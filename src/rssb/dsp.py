"""Low-pass preprocessing of raw RSS streams.

Produces the two signals the estimators consume: ``y``, the stream with
its batch mean removed and then low-passed (for spectral methods), and
``z = y + mean``, which puts the DC level back (for the state-space
trackers).  The filter runs forward only, with no zero-phase tricks,
but both outputs use the mean of the whole batch.  A constant offset of
the input, such as a trace's dB reference, moves ``z`` by that constant
and leaves ``y`` unchanged, up to rounding.

The elliptic low-pass is the reference receiver chain's one template.
Its analog prototype is tabulated; the prewarp, the bilinear transform
and the pairing into second-order sections, which depend on the sample
rate, follow ``scipy.signal.ellip`` step by step and give its sections
bit for bit.  The filter runs as banded triangular solves in
``scipy.linalg.blas``, so the package never imports ``scipy.signal``,
which would be the largest part of its import time and memory.
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
# conjugates, and the gain), then iirfilter's prewarp at fs = 2,
# bilinear_zpk, and zpk2sos with "nearest" pairing, with the same
# operations in the same order, so the sections are equal bit for bit.
# Adapted from SciPy, Copyright (c) 2001-2002 Enthought, Inc. and 2003-
# SciPy Developers, BSD 3-Clause licence.
_ZEROS = np.array([2.31346757435406j, 1.547108134265165j])
_POLES = np.array([-0.7603081663669875 + 0j,
                   -0.4732670351354864 - 0.8199385981019272j,
                   -0.1253779669147655 - 1.094248251255676j])
_PROTOTYPE = (np.concatenate((_ZEROS, _ZEROS.conj())),
              np.concatenate((_POLES, _POLES[1:].conj())),
              0.06453002992554542)


def _cplxreal(z):
    """The conjugate pairs of ``z``, one element each with its positive
    imaginary part (pairs averaged), then its real elements; both sorted
    as scipy.signal's ``_cplxreal`` sorts them."""
    tol = 100 * np.finfo(float).eps
    z = z[np.lexsort((abs(z.imag), z.real))]
    real = abs(z.imag) <= tol * abs(z)
    zr = z[real].real
    if len(zr) == len(z):
        return np.concatenate((np.array([]), zr))
    z = z[~real]
    zp = z[z.imag > 0]
    zn = z[z.imag < 0]
    if len(zp) != len(zn):
        raise FilterDesignError("a complex root has no conjugate")
    # runs of (nearly) the same real part are sorted by imaginary part
    same_real = np.diff(zp.real) <= tol * abs(zp[:-1])
    diffs = np.diff(np.concatenate(([0], same_real, [0])))
    for start, stop in zip(np.nonzero(diffs > 0)[0],
                           np.nonzero(diffs < 0)[0] + 1):
        for chunk in (zp[start:stop], zn[start:stop]):
            chunk[...] = chunk[np.lexsort([abs(chunk.imag)])]
    if any(abs(zp - zn.conj()) > tol * abs(zn)):
        raise FilterDesignError("a complex root has no conjugate")
    return np.concatenate(((zp + zn.conj()) / 2, zr))


def _poly(roots):
    """Coefficients of the monic polynomial with ``roots`` (``np.poly``)."""
    roots = np.asarray(roots)
    a = np.ones(1, roots.dtype)
    for root in roots:
        a = np.convolve(a, np.array([1, -root], roots.dtype))
    if np.iscomplexobj(a) and np.all(np.sort(roots.imag)
                                     == np.sort(-roots.imag)):
        a = a.real.copy()
    return a


def _section(z, p):
    """One second-order section with up to two zeros and poles."""
    sos = np.zeros(6)
    b, a = _poly(z), _poly(p)
    sos[3 - len(b):3] = b
    sos[6 - len(a):6] = a
    return sos


def _nearest(fro, to, which):
    """Index of the element of ``fro`` nearest ``to`` among the real
    ones, the complex ones or (``which="any"``) all."""
    order = np.argsort(np.abs(fro - to))
    if which == "any":
        return order[0]
    mask = np.isreal(fro[order])
    if which == "complex":
        mask = ~mask
    return order[np.nonzero(mask)[0][0]]


def _zpk2sos(z, p, k):
    """Digital zeros, poles and gain as second-order sections, the poles
    nearest the unit circle last, each paired with its nearest zeros
    (``scipy.signal.zpk2sos``, pairing "nearest")."""
    p = np.concatenate((p, np.zeros(max(len(z) - len(p), 0))))
    z = np.concatenate((z, np.zeros(max(len(p) - len(z), 0))))
    n_sections = (len(p) + 1) // 2
    if len(p) % 2 == 1:
        p = np.concatenate((p, [0.]))
        z = np.concatenate((z, [0.]))
    z = _cplxreal(z)
    p = _cplxreal(p)

    def worst(p):
        return np.argmin(np.abs(1 - np.abs(p)))

    sos = np.zeros((n_sections, 6))
    for si in range(n_sections - 1, -1, -1):
        p1_idx = worst(p)
        p1 = p[p1_idx]
        p = np.delete(p, p1_idx)
        if np.isreal(p1) and np.isreal(p).sum() == 0:
            # the last real pole
            z1_idx = _nearest(z, p1, "real")
            z1 = z[z1_idx]
            z = np.delete(z, z1_idx)
            sos[si] = _section([z1, 0], [p1, 0])
        elif (len(p) + 1 == len(z) and not np.isreal(p1)
              and np.isreal(p).sum() == 1 and np.isreal(z).sum() == 1):
            # one real pole and one real zero are left for the other
            # sections, so this pole takes a complex zero
            z1_idx = _nearest(z, p1, "complex")
            z1 = z[z1_idx]
            z = np.delete(z, z1_idx)
            sos[si] = _section([z1, z1.conj()], [p1, p1.conj()])
        else:
            if np.isreal(p1):
                real_idx = np.flatnonzero(np.isreal(p))
                p2_idx = real_idx[worst(p[real_idx])]
                p2 = p[p2_idx]
                p = np.delete(p, p2_idx)
            else:
                p2 = p1.conj()
            if len(z) == 0:
                sos[si] = _section([], [p1, p2])
                continue
            z1_idx = _nearest(z, p1, "any")
            z1 = z[z1_idx]
            z = np.delete(z, z1_idx)
            if not np.isreal(z1):
                sos[si] = _section([z1, z1.conj()], [p1, p2])
            elif len(z) > 0:
                z2_idx = _nearest(z, p1, "real")
                z2 = z[z2_idx]
                z = np.delete(z, z2_idx)
                sos[si] = _section([z1, z2], [p1, p2])
            else:
                sos[si] = _section([z1], [p1, p2])
    sos[0][:3] *= k
    return sos


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
    z = np.concatenate(((fs2 + z) / (fs2 - z), -np.ones(degree)))
    p = (fs2 + p) / (fs2 - p)
    return _zpk2sos(z, p, k)


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
    with np.errstate(all="ignore"):
        # scalar math raises where numpy would return inf or NaN, and
        # a degenerate set of roots can leave the pairing without a
        # real one: every such failure is the rate's
        try:
            wn = np.float64(spec.passband_hz) / (sample_rate_hz / 2)
            if not 0 < wn < 1:
                raise FilterDesignError("the passband edge is not within "
                                        "(0, 1) of Nyquist")
            sos = _ellip_sos(wn)
        except (ArithmeticError, IndexError, ValueError) as exc:
            raise FilterDesignError(
                f"{spec} at {sample_rate_hz} Hz: {exc}") from None
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
    if (pass_dev > spec.passband_ripple_db + _TEMPLATE_SLACK_DB
            or stop_max > -spec.stopband_atten_db + _TEMPLATE_SLACK_DB
            or abs(dc_gain - 1) > _DC_GAIN_TOL):
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

    Only the positive steps within 1.5 times the smallest one count, so
    the gaps left by dropped samples do not: with half the samples
    dropped, the median of all steps spans two sampling intervals and
    would halve the rate.  Timestamps jittered by up to a tenth of a
    step keep every step.  Rounded to 12 significant digits, which
    drops the roundoff of the sample times: 60 s of ``np.arange(n) /
    25.0`` reports 25.0, not 25.000000000000533, so a 30 s window spans
    ceil(30 · 25) = 750 samples, not 751.
    """
    dt = np.diff(np.asarray(times_s, dtype=float))
    dt = dt[dt > 0]
    if len(dt) == 0:
        raise ValueError("timestamps hold no increasing step to give a "
                         "sample rate")
    return float(f"{1.0 / np.median(dt[dt <= 1.5 * dt.min()]):.12g}")


def is_uniform(times_s):
    """True when the sampling intervals spread by at most ``UNIFORM_TOL``
    of their median."""
    dt = np.diff(np.asarray(times_s, dtype=float))
    return bool(len(dt) == 0 or np.ptp(dt) <= UNIFORM_TOL * np.median(dt))
