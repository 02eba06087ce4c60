"""One path from a raw RSS stream to the rate estimates of each method.

Every entry point (the CLI, the SNR sweep, the acceptance scorecard)
runs the estimators through :func:`estimate`, so all three methods see
the same preprocessing: the periodogram takes the mean-removed stream
``y`` on a uniform grid, the trackers take the DC-keeping stream ``z``
on the original, possibly uneven timestamps.
"""

from .dsp import FilterSpec, is_uniform, preprocess, resample_uniform
from .estimators import (DftConfig, GpConfig, KfConfig, dft_estimate,
                         gp_estimate, kf_estimate)

ESTIMATORS = {
    "dft": (dft_estimate, DftConfig),
    "kf": (kf_estimate, KfConfig),
    "gp": (gp_estimate, GpConfig),
}
"""Method name -> (estimator function, config class)."""


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
    unknown = [m for m in methods if m not in ESTIMATORS]
    if unknown:
        raise ValueError(f"unknown methods: {unknown}")
    configs = configs or {}
    y, z = preprocess(values, filter_spec, fs)
    inputs = {"kf": (times_s, z), "gp": (times_s, z)}
    if "dft" in methods:
        t_grid, v_grid = uniform_samples(times_s, values, fs)
        if v_grid is not values:  # resampled: filter the grid instead
            y, _ = preprocess(v_grid, filter_spec, fs)
        inputs["dft"] = (t_grid, y)
    results = {}
    for method in methods:
        fn, config_cls = ESTIMATORS[method]
        cfg = configs.get(method) or config_cls()
        results[method] = fn(*inputs[method], cfg)
    return results
