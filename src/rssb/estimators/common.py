"""Shared result container for the rate estimators."""

import math
from dataclasses import dataclass, field, fields

import numpy as np


class EstimatorError(ValueError):
    """Estimator input failed validation (too short, uneven, malformed),
    or a tracker's state ran away to values that are not finite."""


def check_finite(cfg):
    """Raise EstimatorError naming the first field of the config ``cfg``
    that holds a NaN or an infinity, alone or in a tuple."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        values = value if isinstance(value, tuple) else (value,)
        if not all(isinstance(v, int) or math.isfinite(v) for v in values):
            raise EstimatorError(f"{f.name} must be finite, got {value!r}")


@dataclass
class EstimateSeries:
    """Per-step rate estimates plus method-specific diagnostics.

    ``times_s`` carries the timestamp of each estimate (window end for
    the periodogram, sample time for the trackers).  ``aux`` holds the
    arrays needed to reconstruct the modeled signal or inspect the
    internal state; keys are method-specific and documented by each
    estimator.
    """

    method: str
    times_s: np.ndarray
    f_hat_hz: np.ndarray
    aux: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.times_s) != len(self.f_hat_hz):
            raise ValueError("times_s and f_hat_hz must have equal length")

    def __len__(self):
        return len(self.times_s)

    def after(self, t_s):
        """Estimates with timestamps strictly greater than ``t_s``."""
        mask = self.times_s > t_s
        return self.times_s[mask], self.f_hat_hz[mask]


def check_rows(times_s, rows):
    """Reject tracker input: ``rows`` holds one stream a row, each sampled
    at ``times_s``.  Returns both as float arrays."""
    times_s = np.asarray(times_s, dtype=float)
    values = np.asarray(rows, dtype=float)
    if values.ndim != 2:
        raise EstimatorError("rows must be a 2-D array, one stream a row")
    if values.shape[1] != len(times_s):
        raise EstimatorError("times and values must have equal length")
    if len(times_s) == 0:
        raise EstimatorError("empty input")
    if not np.all(np.isfinite(values)):
        raise EstimatorError("measurements must be finite")
    if np.any(np.diff(times_s) <= 0):
        raise EstimatorError("timestamps must be strictly increasing")
    return times_s, values
