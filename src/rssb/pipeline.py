"""One path from a raw RSS stream to the rate estimates of each method.

Every entry point (the CLI, the SNR sweep, the acceptance scorecard)
runs the estimators through :func:`estimate`, or through its batch form
:func:`estimate_batch` for streams that share timestamps, which yields
one method at a time, so all three methods see the same preprocessing
at the rate their timestamps give: the periodogram takes the
mean-removed stream ``y`` on a uniform grid, the trackers take the
DC-keeping stream ``z`` on the original, possibly uneven timestamps.
All three methods take rows: one call runs a method on every stream of
a batch (kf and gp step the rows together, dft sums each row's in-band
bins over one shared twiddle table).
"""

from .dsp import (FilterSpec, design_lowpass, is_uniform, nominal_rate_hz,
                  preprocess, resample_uniform)
from .estimators import (DftConfig, GpConfig, KfConfig, dft_estimate_batch,
                         gp_estimate_batch, kf_estimate_batch)


ESTIMATORS = {
    "dft": (dft_estimate_batch, DftConfig),
    "kf": (kf_estimate_batch, KfConfig),
    "gp": (gp_estimate_batch, GpConfig),
}
"""Method name -> (batch function, config class).

A batch function maps ``(times_s, rows, cfg)`` to one EstimateSeries
per row of ``rows``, every row sampled at ``times_s``.  kf and gp step
all rows together, and dft runs each row's in-band sliding sums over
one twiddle table shared by the rows.
"""


def check_methods(methods):
    """Raise ValueError unless ``methods`` names each method at most once,
    all of them from :data:`ESTIMATORS`."""
    names = list(methods)
    unknown = [m for m in names if m not in ESTIMATORS]
    if unknown:
        raise ValueError(f"unknown methods: {unknown}")
    repeated = sorted({m for m in names if names.count(m) > 1})
    if repeated:
        raise ValueError(f"repeated methods: {repeated}")


def check_rate(fs):
    """Raise FilterDesignError, a ValueError, unless the low-pass of
    every method can be designed at ``fs``: at 6 Hz and below its
    stopband edge is not below Nyquist."""
    design_lowpass(FilterSpec(), fs)


def spectral_input(times_s, rows, y=None):
    """The dft's input: a uniform grid and the mean-removed ``y`` of each
    row on it.  Evenly spaced rows keep their times (and ``y``, if the
    caller has it); uneven ones are resampled at the timestamps' nominal
    rate, then filtered."""
    uniform = is_uniform(times_s)
    if uniform and y is not None:
        return times_s, y
    fs = nominal_rate_hz(times_s)
    if uniform:
        return times_s, [preprocess(v, FilterSpec(), fs)[0] for v in rows]
    grids = [resample_uniform(times_s, v, fs) for v in rows]
    return grids[0][0], [preprocess(v, FilterSpec(), fs)[0] for _, v in grids]


def estimate(times_s, values, methods, configs=None):
    """Run ``methods`` on one channel's raw samples.

    The filter is designed for the nominal rate of ``times_s``
    (:func:`rssb.dsp.nominal_rate_hz`).  ``configs`` maps a method name
    to its config; a method without one runs on its default config.

    Returns a dict mapping each method, in the order given, to its
    EstimateSeries.
    """
    return {method: series for method, (series,)
            in estimate_batch(times_s, [values], methods, configs)}


def estimate_batch(times_s, rows, methods, configs=None):
    """Yield ``(method, one EstimateSeries per row)`` for each method in
    turn, on the streams in ``rows``, all sampled at ``times_s``.

    The filter's rate is read from the timestamps and each row
    preprocessed once.  Each method then runs once over all rows: kf runs its
    covariance recursion, which depends only on the timestamps, at most
    once, gp steps the states of all rows in lockstep, and dft builds
    its table of in-band twiddle factors once for all rows.  Each series
    equals what :func:`estimate` gives on its row alone, and a caller
    that scores each method as it comes need not hold the series of all
    methods at once.
    """
    check_methods(methods)
    configs = configs or {}
    fs = nominal_rate_hz(times_s)
    y, z = zip(*(preprocess(values, FilterSpec(), fs) for values in rows))
    inputs = {"kf": (times_s, z), "gp": (times_s, z)}
    if "dft" in methods:
        inputs["dft"] = spectral_input(times_s, rows, y)
    for method in methods:
        fn, config_cls = ESTIMATORS[method]
        cfg = configs.get(method) or config_cls()
        yield method, fn(*inputs[method], cfg)
