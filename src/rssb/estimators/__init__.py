"""Breathing-rate estimators operating on preprocessed RSS streams.

Three methods with a shared result type: a sliding-window periodogram
(`dft_estimate`), a Fourier-coefficient Kalman filter on a fixed
frequency grid (`kf_estimate`), and a quasi-periodic Gaussian-process
state-space tracker with an unknown log-frequency (`gp_estimate`).
"""

from .common import EstimateSeries, EstimatorError
from .dft import DftConfig, dft_estimate
from .kf import KfConfig, kf_estimate, kf_estimate_batch
from .gp import (GpConfig, gp_estimate, gp_estimate_batch,
                 kernel_cosine_truncation, kernel_cosine_weights,
                 periodic_kernel)

__all__ = [
    "EstimateSeries", "EstimatorError",
    "DftConfig", "dft_estimate",
    "KfConfig", "kf_estimate", "kf_estimate_batch",
    "GpConfig", "gp_estimate", "gp_estimate_batch", "periodic_kernel",
    "kernel_cosine_weights", "kernel_cosine_truncation",
]
