"""One path from a raw RSS stream to the rate estimates of each method.

Every entry point (the CLI, the SNR sweep, the acceptance scorecard)
runs the estimators through :func:`estimate`, or through its batch form
:func:`estimate_batch` for streams that share timestamps, so all three
methods see the same preprocessing: the periodogram takes the
mean-removed stream ``y`` on a uniform grid, the trackers take the
DC-keeping stream ``z`` on the original, possibly uneven timestamps.
"""

from .dsp import FilterSpec, is_uniform, preprocess, resample_uniform
from .estimators import (DftConfig, GpConfig, KfConfig, dft_estimate,
                         gp_estimate, kf_estimate_batch)


def _each_row(estimator):
    """Batch form of a single-stream estimator: one call per row."""
    def batch(times_s, rows, cfg):
        return [estimator(times_s, row, cfg) for row in rows]
    return batch


ESTIMATORS = {
    "dft": (_each_row(dft_estimate), DftConfig),
    "kf": (kf_estimate_batch, KfConfig),
    "gp": (_each_row(gp_estimate), GpConfig),
}
"""Method name -> (batch function, config class).

A batch function maps ``(times_s, rows, cfg)`` to one EstimateSeries
per row of ``rows``, every row sampled at ``times_s``.
"""


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

    Each method runs once over all rows, so work that depends only on
    the timestamps (the kf covariance recursion) is done once.  Returns
    one dict per row, each equal to what :func:`estimate` gives on that
    row alone.
    """
    unknown = [m for m in methods if m not in ESTIMATORS]
    if unknown:
        raise ValueError(f"unknown methods: {unknown}")
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
