"""Low-pass preprocessing of raw RSS streams.

Produces the two signals the estimators consume: ``y``, the stream with
its batch mean removed and then low-passed (for spectral methods), and
``z = y + mean``, which puts the DC level back (for the state-space
trackers).  The filter runs forward only, with no zero-phase tricks,
but both outputs use the mean of the whole batch.  A constant offset of
the input, such as a trace's dB reference, moves ``z`` by that constant
and leaves ``y`` unchanged, up to rounding.

The elliptic low-pass is designed here from the Jacobi elliptic
functions of ``scipy.special`` and runs as banded triangular solves in
``scipy.linalg.blas``, so the package never imports ``scipy.signal``,
which would be the largest part of its import time and memory.  The
design repeats ``scipy.signal.ellip`` step by step and gives its
second-order sections bit for bit.
"""

import functools
import math
from dataclasses import astuple, dataclass

import numpy as np
from scipy import special
from scipy.linalg.blas import dtbsv

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
        if not all(map(math.isfinite, astuple(self))):
            raise FilterDesignError(f"{self}: every field must be finite")
        if self.order < 1 or self.order != int(self.order):
            raise FilterDesignError("order must be a whole number of at "
                                    "least 1")
        if not 0 < self.passband_hz < self.stopband_hz:
            raise FilterDesignError("need 0 < passband_hz < stopband_hz")
        if self.passband_ripple_db <= 0 or self.stopband_atten_db <= 0:
            raise FilterDesignError("ripple and attenuation must be positive")


# The design below repeats scipy.signal's ellip(output="sos") for a
# digital low-pass: the analog prototype of ellipap, iirfilter's prewarp
# at fs = 2, bilinear_zpk, and zpk2sos with "nearest" pairing, with the
# same operations in the same order, so the sections are equal bit for
# bit.  Adapted from SciPy, Copyright (c) 2001-2002 Enthought, Inc. and
# 2003- SciPy Developers, BSD 3-Clause licence.  The prototype follows
# Orfanidis, "Lecture Notes on Elliptic Filter Design" (2006).

_EPSILON = 2e-16
_ELLIPDEG_TERMS = 7      # nome series terms of the degree equation
_LANDEN_MAX_STEPS = 10   # Orfanidis suggests 5; a NaN modulus never ends


def _pow10m1(x):
    """10 ** x - 1 for x near 0."""
    return math.expm1(math.log(10) * x)


def _ellipdeg(n, m1):
    """Solve the degree equation n K(m) / K'(m) = K(m1) / K'(m1) for m
    by nomes (Orfanidis, eq. 49)."""
    q1 = np.exp(-np.pi * special.ellipkm1(m1) / special.ellipk(m1))
    q = q1 ** (1 / n)
    mnum = np.arange(_ELLIPDEG_TERMS + 1)
    mden = np.arange(1, _ELLIPDEG_TERMS + 2)
    num = np.sum(q ** (mnum * (mnum + 1)))
    den = 1 + 2 * np.sum(q ** (mden ** 2))
    return 16 * q * (num / den) ** 4


def _arc_jac_sc1(w, m):
    """Real z with w = sc(z, 1 - m), as -i times the inverse Jacobian sn
    of i w at modulus m, by the Landen recursion (Orfanidis, eq. 56)."""
    def complement(kx):
        return ((1 - kx) * (1 + kx)) ** 0.5

    w = 1j * w
    k = m ** 0.5
    if k > 1:
        z = np.nan
    elif k == 1:
        z = np.arctanh(w)
    else:
        ks = [k]
        while ks[-1] != 0:
            if len(ks) > _LANDEN_MAX_STEPS:
                raise FilterDesignError("the Landen transformation does "
                                        "not converge")
            k_p = complement(ks[-1])
            ks.append((1 - k_p) / (1 + k_p))
        for kn, knext in zip(ks[:-1], ks[1:]):
            w = 2 * w / ((1 + knext) * (1 + complement(kn * w)))
        z = np.prod(1 + np.array(ks[1:])) * np.pi / 2 * (
            2 / np.pi * np.arcsin(w))
    if abs(z.real) > 1e-14:
        raise FilterDesignError("the inverse Jacobian sc is not real")
    return z.imag


def _ellip_prototype(n, rp, rs):
    """Zeros, poles and gain of the order-``n`` analog elliptic low-pass
    with ``rp`` dB of passband ripple up to 1 rad/s and ``rs`` dB of
    stopband attenuation (``scipy.signal.ellipap``)."""
    if n == 1:
        p = -math.sqrt(1.0 / _pow10m1(0.1 * rp))
        return np.zeros(0, complex), np.array([p], complex), -p
    eps_sq = _pow10m1(0.1 * rp)
    eps = math.sqrt(eps_sq)
    ck1_sq = eps_sq / _pow10m1(0.1 * rs)
    if ck1_sq == 0:
        raise FilterDesignError("ripple and attenuation leave no "
                                "selectivity")
    m = _ellipdeg(n, ck1_sq)
    capk = special.ellipk(m)
    j = np.arange(1 - n % 2, n, 2)
    s, c, d, _ = special.ellipj(j * capk / n, m * np.ones(len(j)))
    z = 1j * (1.0 / (np.sqrt(m) * np.compress(abs(s) > _EPSILON, s)))
    z = np.concatenate((z, np.conjugate(z)))
    v0 = capk * _arc_jac_sc1(1. / eps, ck1_sq) / (n * special.ellipk(ck1_sq))
    sv, cv, dv, _ = special.ellipj(v0, 1 - m)
    p = -(c * d * sv * cv + 1j * s * dv) / (1 - (d * sv) ** 2.0)
    if n % 2:
        # the real pole of an odd order has no conjugate
        norm = np.sqrt(np.sum(p * np.conjugate(p)).real)
        p = np.concatenate((p, np.conjugate(
            np.compress(abs(p.imag) > _EPSILON * norm, p))))
    else:
        p = np.concatenate((p, np.conjugate(p)))
    k = (np.prod(-p) / np.prod(-z)).real
    if n % 2 == 0:
        k = k / np.sqrt(1 + eps_sq)
    return z, p, float(k)


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


def _ellip_sos(order, rp, rs, wn):
    """Sections of the digital elliptic low-pass with its passband edge
    at ``wn`` times Nyquist (``scipy.signal.ellip(..., output="sos")``)."""
    z, p, k = _ellip_prototype(order, rp, rs)
    # prewarp and bilinear transform at fs = 2, as iirfilter does
    fs = 2.0
    warped = float(2 * fs * np.tan(np.pi * wn / fs))
    degree = len(p) - len(z)
    if degree < 0:
        raise FilterDesignError("the prototype has more zeros than poles")
    z, p, k = warped * z, warped * p, k * warped ** degree
    fs2 = 2.0 * fs
    k = k * np.real(np.prod(fs2 - z) / np.prod(fs2 - p))
    z = np.concatenate(((fs2 + z) / (fs2 - z), -np.ones(degree)))
    p = (fs2 + p) / (fs2 - p)
    if not (np.isfinite(z).all() and np.isfinite(p).all()
            and np.isfinite(k)):
        raise FilterDesignError("the design is not finite")
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
    """Design the elliptic low-pass as second-order sections.

    The sections are those of ``scipy.signal.ellip(spec.order,
    spec.passband_ripple_db, spec.stopband_atten_db, spec.passband_hz,
    fs=sample_rate_hz, output="sos")``, bit for bit, computed from the
    Jacobi elliptic functions of ``scipy.special``.  The cascade is
    checked against the template on a dense frequency grid: ripple
    within the passband, attenuation beyond the stopband edge, and
    unity DC gain.  A spec that cannot be designed at this rate, or
    whose design misses the template, raises FilterDesignError naming
    the spec, on every call.  Each (spec, rate) is designed once; the
    cascade returned is shared and read-only.
    """
    if not spec.stopband_hz < sample_rate_hz / 2:
        raise FilterDesignError(
            f"{spec} at {sample_rate_hz} Hz: the stopband edge must be "
            f"below Nyquist {sample_rate_hz / 2} Hz")
    with np.errstate(all="ignore"):
        # scalar math raises where numpy would return inf or NaN, and
        # a degenerate set of roots can leave the pairing without a
        # real one: every such failure is the spec's
        try:
            wn = np.float64(spec.passband_hz) / (sample_rate_hz / 2)
            if not 0 < wn < 1:
                raise FilterDesignError("the passband edge is not within "
                                        "(0, 1) of Nyquist")
            sos = _ellip_sos(spec.order, spec.passband_ripple_db,
                             spec.stopband_atten_db, wn)
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
