"""One path from a raw RSS stream to the rate estimates of each method.

Every entry point (the CLI, the SNR sweep, the acceptance scorecard)
runs the estimators through :func:`estimate`, or through its batch form
:func:`estimate_batch` for streams that share timestamps (the sweep
through the generator behind it, to score one method at a time), so all
three methods see the same preprocessing: the periodogram takes the
mean-removed stream ``y`` on a uniform grid, the trackers take the
DC-keeping stream ``z`` on the original, possibly uneven timestamps.
All three methods take rows: one call runs a method on every stream of
a batch (kf and gp step the rows together, dft sums each row's in-band
bins over one shared twiddle table).
"""

from .dsp import (FilterSpec, design_lowpass, is_uniform, preprocess,
                  resample_uniform)
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


def spectral_input(times_s, rows, fs, y=None):
    """The dft's input: a uniform grid and the mean-removed ``y`` of each
    row on it.  Evenly spaced rows keep their times (and ``y``, if the
    caller has it); uneven ones are resampled at ``fs``, then filtered."""
    if is_uniform(times_s):
        if y is None:
            y = [preprocess(v, FilterSpec(), fs)[0] for v in rows]
        return times_s, y
    grids = [resample_uniform(times_s, v, fs) for v in rows]
    return grids[0][0], [preprocess(v, FilterSpec(), fs)[0] for _, v in grids]


def estimate(times_s, values, fs, methods, configs=None):
    """Run ``methods`` on one channel's raw samples.

    ``fs`` is the nominal sample rate the filter is designed for; it is
    never inferred from ``times_s``.  ``configs`` maps a method name to
    its config; a method without one runs on its default config.

    Returns a dict mapping each method, in the order given, to its
    EstimateSeries.
    """
    return estimate_batch(times_s, [values], fs, methods, configs)[0]


def estimate_batch(times_s, rows, fs, methods, configs=None):
    """:func:`estimate` on each stream in ``rows``, sampled at ``times_s``.

    Each method runs once over all rows: kf runs its covariance
    recursion, which depends only on the timestamps, at most once, gp steps
    the states of all rows in lockstep, and dft builds its table of
    in-band twiddle factors once for all rows.  Returns one dict per
    row, each equal to what :func:`estimate` gives on that row alone.
    """
    results = [{} for _ in rows]
    for method, series in _estimate_methods(times_s, rows, fs, methods,
                                            configs):
        for result, one in zip(results, series):
            result[method] = one
    return results


def _estimate_methods(times_s, rows, fs, methods, configs=None):
    """Yield ``(method, one EstimateSeries per row)`` for each method in
    turn, each row preprocessed once; :func:`estimate_batch` collects
    them, and a caller that scores each method as it comes need not hold
    the series of all methods at once."""
    check_methods(methods)
    configs = configs or {}
    y, z = zip(*(preprocess(values, FilterSpec(), fs) for values in rows))
    inputs = {"kf": (times_s, z), "gp": (times_s, z)}
    if "dft" in methods:
        inputs["dft"] = spectral_input(times_s, rows, fs, y)
    for method in methods:
        fn, config_cls = ESTIMATORS[method]
        cfg = configs.get(method) or config_cls()
        yield method, fn(*inputs[method], cfg)
