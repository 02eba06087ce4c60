"""One path from a raw RSS stream to the rate estimates of each method.

Every entry point (the CLI, the SNR sweep, the acceptance scorecard)
runs the estimators through :func:`estimate`, or through its batch form
:func:`estimate_batch` for streams that share timestamps, so all three
methods see the same preprocessing: the periodogram takes the
mean-removed stream ``y`` on a uniform grid, the trackers take the
DC-keeping stream ``z`` on the original, possibly uneven timestamps.
All three methods take rows: one call runs a method on every stream of
a batch (kf and gp step the rows together, dft transforms each row's
windows in their own blocks).
"""

from .dsp import FilterSpec, is_uniform, preprocess, resample_uniform
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
all rows together, and dft transforms each row's windows in their own
blocks.
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


def uniform_samples(times_s, values, sample_rate_hz):
    """The samples as given when evenly spaced, else resampled to a grid."""
    if is_uniform(times_s):
        return times_s, values
    return resample_uniform(times_s, values, sample_rate_hz)


def estimate(times_s, values, fs, methods, configs=None,
             filter_spec=FilterSpec()):
    """Run ``methods`` on one channel's raw samples.

    ``fs`` is the nominal sample rate the filter is designed for; it is
    never inferred from ``times_s``.  ``configs`` maps a method name to
    its config; a method without one runs on its default config.

    Returns a dict mapping each method, in the order given, to its
    EstimateSeries.
    """
    return estimate_batch(times_s, [values], fs, methods, configs,
                          filter_spec)[0]


def estimate_batch(times_s, rows, fs, methods, configs=None,
                   filter_spec=FilterSpec()):
    """:func:`estimate` on each stream in ``rows``, sampled at ``times_s``.

    Each method runs once over all rows: kf runs its covariance
    recursion, which depends only on the timestamps, at most once, gp steps
    the states of all rows in lockstep, and dft transforms each row's
    windows in their own blocks.  Returns one dict per row, each equal
    to what :func:`estimate` gives on that row alone.
    """
    check_methods(methods)
    configs = configs or {}
    y, z = zip(*(preprocess(values, filter_spec, fs) for values in rows))
    inputs = {"kf": (times_s, z), "gp": (times_s, z)}
    if "dft" in methods:
        if is_uniform(times_s):
            inputs["dft"] = (times_s, y)
        else:  # resample, then filter the grid instead
            grids = [resample_uniform(times_s, v, fs) for v in rows]
            y_grid = [preprocess(v, filter_spec, fs)[0] for _, v in grids]
            inputs["dft"] = (grids[0][0], y_grid)
    results = [{} for _ in rows]
    for method in methods:
        fn, config_cls = ESTIMATORS[method]
        cfg = configs.get(method) or config_cls()
        for result, series in zip(results, fn(*inputs[method], cfg)):
            result[method] = series
    return results
