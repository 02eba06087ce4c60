"""Low-pass preprocessing of raw RSS streams.

Produces the two signals the estimators consume: ``y``, the stream with
its batch mean removed and then low-passed (for spectral methods), and
``z = y + mean``, which puts the DC level back (for the state-space
trackers).  The filter runs forward only, with no zero-phase tricks,
but both outputs use the mean of the whole batch.  A constant offset of
the input, such as a trace's dB reference, moves ``z`` by that constant
and leaves ``y`` unchanged, up to rounding.

The elliptic low-pass is the reference receiver chain's one template.
Its analog prototype is tabulated; the prewarp and the bilinear
transform, which depend on the sample rate, follow ``scipy.signal.ellip``
step by step.  The pairing into second-order sections is fixed: it is
``zpk2sos``'s "nearest" pairing for the one shape of roots the template
gives at every rate, written as three rules, so the sections equal
``scipy.signal.ellip``'s bit for bit.  The filter runs as banded
triangular solves in ``scipy.linalg.blas``, so the package never
imports ``scipy.signal``, which would be the largest part of its import
time and memory.
"""

import functools
from dataclasses import dataclass, fields

import numpy as np
from scipy.linalg.blas import dtbsv

_TEMPLATE_GRID = 4096
_TEMPLATE_SLACK_DB = 1e-6
_DC_GAIN_TOL = 1e-10
UNIFORM_TOL = 1e-6  # sampling-interval spread, relative, that is still even


class FilterDesignError(ValueError):
    """Requested filter specification cannot be met."""


@dataclass(frozen=True)
class FilterSpec:
    """The low-pass template of the reference receiver chain: 5th-order
    elliptic, 2 Hz passband with 0.05 dB ripple, 40 dB stopband from 3 Hz.

    The fields record this one template, the only low-pass the package
    designs: a spec with any other value raises FilterDesignError naming
    the first field that differs, before anything is designed.
    """

    order: int = 5
    passband_hz: float = 2.0
    stopband_hz: float = 3.0
    passband_ripple_db: float = 0.05
    stopband_atten_db: float = 40.0

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) != f.default:
                raise FilterDesignError(
                    f"{self}: {f.name} must be {f.default!r}, the template's")


# The design below is scipy.signal's ellip(5, 0.05, 40, output="sos") for
# the template: ellipap's analog prototype, tabulated (the zeros and poles
# for a passband edge at 1 rad/s, complex ones followed by their
# conjugates, and the gain), then iirfilter's prewarp at fs = 2 and
# bilinear_zpk, with the same operations in the same order.  After the
# transform the zeros are always two conjugate pairs and -1, and the
# poles two conjugate pairs and one real pole, so zpk2sos's "nearest"
# pairing reduces to fixed rules (see _ellip_sos), each section formed
# by np.poly as zpk2sos forms it, and the sections are equal bit for
# bit.  The prewarp and bilinear transform are adapted from SciPy,
# Copyright (c) 2001-2002 Enthought, Inc. and 2003- SciPy Developers,
# BSD 3-Clause licence.
_ZEROS = np.array([2.31346757435406j, 1.547108134265165j])
_POLES = np.array([-0.7603081663669875 + 0j,
                   -0.4732670351354864 - 0.8199385981019272j,
                   -0.1253779669147655 - 1.094248251255676j])
_PROTOTYPE = (np.concatenate((_ZEROS, _ZEROS.conj())),
              np.concatenate((_POLES, _POLES[1:].conj())),
              0.06453002992554542)


def _ellip_sos(wn):
    """Sections of the template's digital low-pass with its passband edge
    at ``wn`` times Nyquist (``scipy.signal.ellip(5, 0.05, 40, wn,
    output="sos")``)."""
    z, p, k = _PROTOTYPE
    # prewarp and bilinear transform at fs = 2, as iirfilter does
    fs = 2.0
    warped = float(2 * fs * np.tan(np.pi * wn / fs))
    degree = len(p) - len(z)
    z, p, k = warped * z, warped * p, k * warped ** degree
    fs2 = 2.0 * fs
    k = k * np.real(np.prod(fs2 - z) / np.prod(fs2 - p))
    z = (fs2 + z) / (fs2 - z)
    p = (fs2 + p) / (fs2 - p)
    # zpk2sos's "nearest" pairing of these roots: the complex pole pair
    # nearest the unit circle in section 2, the other in section 1, each
    # with the zero group that holds the zero nearest it, a conjugate
    # pair or {-1, 0} (the bilinear transform's real zero and the 0
    # zpk2sos pads with); the real pole and the padding 0 take the
    # group left, in section 0, with the gain
    groups = [[c, c.conj()] for c in z[z.imag > 0]] + [[-1.0, 0.0]]
    pairs = sorted(p[p.imag > 0], key=lambda c: abs(1 - abs(c)))
    sos = np.empty((3, 6))
    for si, pole in zip((2, 1), pairs):
        zeros = min(groups, key=lambda g: min(abs(r - pole) for r in g))
        groups.remove(zeros)
        sos[si] = np.r_[np.poly(zeros).real, np.poly([pole, pole.conj()]).real]
    sos[0] = np.r_[k * np.poly(groups[0]).real, np.poly([p[0].real, 0.0])]
    return sos


def _response(sos, sample_rate_hz):
    """Frequencies (Hz) of the template grid from 0 up to Nyquist, and
    the cascade's complex response there (``scipy.signal.sosfreqz``)."""
    w = np.linspace(0, np.pi, _TEMPLATE_GRID, endpoint=False)
    zm1 = np.exp(-1j * w)
    h = 1.
    for b0, b1, b2, a0, a1, a2 in sos:
        h = h * ((b0 + (b1 + b2 * zm1) * zm1)
                 / (a0 + (a1 + a2 * zm1) * zm1))
    return w * (sample_rate_hz / (2 * np.pi)), h


@functools.lru_cache
def design_lowpass(spec: FilterSpec, sample_rate_hz) -> np.ndarray:
    """Design the template's elliptic low-pass as second-order sections.

    The sections are those of ``scipy.signal.ellip(5, 0.05, 40, 2.0,
    fs=sample_rate_hz, output="sos")``, bit for bit, computed from the
    tabulated analog prototype.  The cascade is checked against the
    template on a dense frequency grid: ripple within the passband,
    attenuation beyond the stopband edge, and unity DC gain.  A rate at
    which the template cannot be designed, or whose design misses it,
    raises FilterDesignError naming the spec and the rate, on every
    call.  Each rate is designed once; the cascade returned is shared
    and read-only.
    """
    if not spec.stopband_hz < sample_rate_hz / 2:
        raise FilterDesignError(
            f"{spec} at {sample_rate_hz} Hz: the stopband edge must be "
            f"below Nyquist {sample_rate_hz / 2} Hz")
    wn = np.float64(spec.passband_hz) / (sample_rate_hz / 2)
    if not 0 < wn < 1:
        raise FilterDesignError(f"{spec} at {sample_rate_hz} Hz: the passband "
                                f"edge is not within (0, 1) of Nyquist")
    with np.errstate(all="ignore"):
        sos = _ellip_sos(wn)
        if not np.isfinite(sos).all():
            raise FilterDesignError(f"{spec} at {sample_rate_hz} Hz: the "
                                    f"sections are not finite")
        freq, h = _response(sos, sample_rate_hz)
        mag_db = 20 * np.log10(np.maximum(np.abs(h), 1e-300))
    stop_db = mag_db[freq >= spec.stopband_hz]
    if len(stop_db) == 0:
        raise FilterDesignError(f"{spec} at {sample_rate_hz} Hz: no point "
                                f"of the template grid is in the stopband")
    pass_dev = np.abs(mag_db[freq <= spec.passband_hz]).max()
    stop_max = stop_db.max()
    dc_gain = np.abs(h[0])
    # written so that a NaN response fails every comparison
    if not (pass_dev <= spec.passband_ripple_db + _TEMPLATE_SLACK_DB
            and stop_max <= -spec.stopband_atten_db + _TEMPLATE_SLACK_DB
            and abs(dc_gain - 1) <= _DC_GAIN_TOL):
        raise FilterDesignError(
            f"{spec} at {sample_rate_hz} Hz: the order-{spec.order} design "
            f"misses the template: passband deviation {pass_dev:.4f} dB, "
            f"stopband maximum {stop_max:.2f} dB, DC gain {dc_gain:.12f}")
    sos.flags.writeable = False
    return sos


def _sosfilt(sos, x):
    """``x`` through the cascade ``sos`` from a zero state.  Each section
    applies its three numerator taps, then solves the recursion
    y[t] + a1 y[t-1] + a2 y[t-2] = w[t] as one banded lower-triangular
    system with unit diagonal (direct form I)."""
    n = len(x)
    # the band's columns in Fortran order: the unit diagonal, then a1
    # and a2 below it
    band = np.ones((n, 3))
    for section in sos:
        band[:, 1] = section[4]
        band[:, 2] = section[5]
        x = dtbsv(2, band.T, np.convolve(x, section[:3])[:n], lower=1,
                  diag=1, overwrite_x=1)
    return x


def preprocess(values, spec: FilterSpec, sample_rate_hz):
    """Low-pass a raw RSS stream into the (y, z) estimator inputs.

    ``y`` is the stream after batch mean removal, filtered once, and
    ``z`` is ``y`` plus that mean: the filter has unity DC gain, so the
    mean passes it unchanged and needs no filtering, and ``z`` carries
    no start transient of the stream's level.  Input samples are
    processed in stream order and assumed close to the nominal rate;
    resample first if the timestamps are materially uneven.

    Each section of :func:`design_lowpass` runs as its numerator taps
    and a banded triangular solve (direct form I), so ``y`` matches
    ``scipy.signal.sosfilt`` (transposed direct form II) up to rounding,
    within 1e-14 of the input's largest magnitude (a tolerance the tests
    pin).  Scaling ``values`` by a power of two scales both outputs by
    it exactly.

    Returns
    -------
    (y, z) : ndarray pair
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError("values must be a 1-D sample stream")
    if len(values) == 0:
        raise ValueError("values must not be empty")
    mean = values.mean()
    y = _sosfilt(design_lowpass(spec, sample_rate_hz), values - mean)
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

    Only the positive steps within 1.5 times the smallest count, so drop
    gaps do not halve the rate at drop_prob 0.5.  Rounded to 12
    significant digits: 60 s of ``np.arange(n) / 25.0`` gives 25.0, not
    25.000000000000533, and a 30 s window 750 samples, not 751.

    A median positive step over 50 times the smallest gives no single
    rate: ``ValueError``.  Jitter of a tenth of a step keeps steps over
    0.8, so one stamp within 1% of a step after the one before it makes
    the ratio over 80, and would read the rate 100 times too high; drops
    alone pass 50 only on short traces (at drop_prob 0.95, 1 in 3000
    draws of 200 samples).
    """
    dt = np.diff(np.asarray(times_s, dtype=float))
    dt = dt[dt > 0]
    if len(dt) == 0:
        raise ValueError("timestamps hold no increasing step to give a "
                         "sample rate")
    smallest, median = dt.min(), np.median(dt)
    if median > 50 * smallest:
        raise ValueError(f"timestamps give no single sample rate: median "
                         f"step {median:.6g} s, smallest {smallest:.6g} s")
    return float(f"{1.0 / np.median(dt[dt <= 1.5 * smallest]):.12g}")


def is_uniform(times_s):
    """True when the sampling intervals spread by at most ``UNIFORM_TOL``
    of their median."""
    dt = np.diff(np.asarray(times_s, dtype=float))
    return bool(len(dt) == 0 or np.ptp(dt) <= UNIFORM_TOL * np.median(dt))
