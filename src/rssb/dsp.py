"""Low-pass preprocessing of raw RSS streams.

Produces the two signals the estimators consume: ``y``, the stream with
its batch mean removed and then low-passed (for spectral methods), and
``z = y + mean``, which puts the DC level back (for the state-space
trackers).  The filter runs forward only, with no zero-phase tricks,
but both outputs use the mean of the whole batch.  A constant offset of
the input, such as a trace's dB reference, moves ``z`` by that constant
and leaves ``y`` unchanged, up to rounding.
"""

import functools
from dataclasses import dataclass

import numpy as np
from scipy import signal

_TEMPLATE_GRID = 4096
_TEMPLATE_SLACK_DB = 1e-6
_DC_GAIN_TOL = 1e-10
UNIFORM_TOL = 1e-6  # sampling-interval spread, relative, that is still even


class FilterDesignError(ValueError):
    """Requested filter specification cannot be met."""


@dataclass(frozen=True)
class FilterSpec:
    """Low-pass template for breathing signals.

    Defaults follow the reference receiver chain: 5th-order elliptic,
    2 Hz passband with 0.05 dB ripple, 40 dB stopband from 3 Hz.
    """

    order: int = 5
    passband_hz: float = 2.0
    stopband_hz: float = 3.0
    passband_ripple_db: float = 0.05
    stopband_atten_db: float = 40.0

    def __post_init__(self):
        if self.order < 1:
            raise FilterDesignError("order must be at least 1")
        if not 0 < self.passband_hz < self.stopband_hz:
            raise FilterDesignError("need 0 < passband_hz < stopband_hz")
        if self.passband_ripple_db <= 0 or self.stopband_atten_db <= 0:
            raise FilterDesignError("ripple and attenuation must be positive")


@functools.lru_cache
def design_lowpass(spec: FilterSpec, sample_rate_hz) -> np.ndarray:
    """Design the elliptic low-pass as second-order sections.

    The returned cascade is checked against the template on a dense
    frequency grid: ripple within the passband, attenuation beyond the
    stopband edge, and unity DC gain.  A spec the order cannot satisfy
    raises FilterDesignError with the achieved numbers, on every call.
    Each (spec, rate) is designed once; the cascade returned is shared
    and read-only.
    """
    if spec.stopband_hz >= sample_rate_hz / 2:
        raise FilterDesignError(
            f"stopband edge {spec.stopband_hz} Hz must be below Nyquist "
            f"{sample_rate_hz / 2} Hz")
    sos = signal.ellip(spec.order, spec.passband_ripple_db,
                       spec.stopband_atten_db, spec.passband_hz,
                       btype="low", fs=sample_rate_hz, output="sos")
    w, h = signal.sosfreqz(sos, worN=_TEMPLATE_GRID, fs=sample_rate_hz)
    mag_db = 20 * np.log10(np.maximum(np.abs(h), 1e-300))
    pass_dev = np.abs(mag_db[w <= spec.passband_hz])
    stop_max = mag_db[w >= spec.stopband_hz].max()
    dc_gain = np.abs(signal.sosfreqz(sos, worN=[0.0], fs=sample_rate_hz)[1][0])
    if (pass_dev.max() > spec.passband_ripple_db + _TEMPLATE_SLACK_DB
            or stop_max > -spec.stopband_atten_db + _TEMPLATE_SLACK_DB
            or abs(dc_gain - 1) > _DC_GAIN_TOL):
        raise FilterDesignError(
            f"order-{spec.order} design misses the template: passband "
            f"deviation {pass_dev.max():.4f} dB, stopband maximum "
            f"{stop_max:.2f} dB, DC gain {dc_gain:.12f}")
    sos.flags.writeable = False
    return sos


def preprocess(values, spec: FilterSpec, sample_rate_hz):
    """Low-pass a raw RSS stream into the (y, z) estimator inputs.

    ``y`` is the stream after batch mean removal, filtered once, and
    ``z`` is ``y`` plus that mean: the filter has unity DC gain, so the
    mean passes it unchanged and needs no filtering, and ``z`` carries
    no start transient of the stream's level.  Input samples are
    processed in stream order and assumed close to the nominal rate;
    resample first if the timestamps are materially uneven.

    Returns
    -------
    (y, z) : ndarray pair
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError("values must be a 1-D sample stream")
    if len(values) == 0:
        raise ValueError("values must not be empty")
    sos = design_lowpass(spec, sample_rate_hz).copy()  # sosfilt writes
    mean = values.mean()
    y = signal.sosfilt(sos, values - mean)
    return y, y + mean


def resample_uniform(times_s, values, sample_rate_hz):
    """Linear interpolation onto a uniform grid spanning the input times.

    Returns the new timestamps and values.  Input timestamps must be
    strictly increasing; duplicates indicate a merged multi-channel
    stream, which must be separated first.
    """
    times_s = np.asarray(times_s, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(times_s) != len(values):
        raise ValueError("times and values must have equal length")
    if len(times_s) < 2:
        raise ValueError("need at least two samples to resample")
    if np.any(np.diff(times_s) <= 0):
        raise ValueError("timestamps must be strictly increasing")
    step = 1.0 / sample_rate_hz
    # a span short of whole steps by roundoff still ends on a grid
    # point (the tolerance of is_uniform)
    n = int(np.floor((times_s[-1] - times_s[0]) / step + UNIFORM_TOL)) + 1
    grid = times_s[0] + step * np.arange(n)
    return grid, np.interp(grid, times_s, values)


def nominal_rate_hz(times_s):
    """Sample rate of ``times_s``: 1 / the median sampling interval.

    Rounded to 12 significant digits, which drops the roundoff of the
    sample times: 60 s of ``np.arange(n) / 25.0`` reports 25.0, not
    25.000000000000533, so a 30 s window spans ceil(30 · 25) = 750
    samples, not 751.  The median survives isolated drops.
    """
    return float(f"{1.0 / np.median(np.diff(times_s)):.12g}")


def is_uniform(times_s):
    """True when the sampling intervals spread by at most ``UNIFORM_TOL``
    of their median."""
    dt = np.diff(np.asarray(times_s, dtype=float))
    return bool(len(dt) == 0 or np.ptp(dt) <= UNIFORM_TOL * np.median(dt))
