"""Breathing-rate estimators operating on preprocessed RSS streams.

Three methods with a shared result type: a sliding-window periodogram
(`dft_estimate`), a Fourier-coefficient Kalman filter on a fixed
frequency grid (`kf_estimate`), and a quasi-periodic Gaussian-process
state-space tracker with an unknown log-frequency (`gp_estimate`).
Each has a batch form over rows sampled at shared timestamps
(`dft_estimate_batch`, `kf_estimate_batch`, `gp_estimate_batch`);
the single-stream function is its batch of one.  The periodogram's
spectrogram, which no estimate keeps, comes from `dft_spectrogram`.
"""

from .common import EstimateSeries, EstimatorError
from .dft import (DftConfig, dft_estimate, dft_estimate_batch,
                  dft_spectrogram)
from .kf import KfConfig, kf_estimate, kf_estimate_batch
from .gp import GpConfig, gp_estimate, gp_estimate_batch, kernel_cosine_weights

__all__ = [
    "EstimateSeries", "EstimatorError",
    "DftConfig", "dft_estimate", "dft_estimate_batch", "dft_spectrogram",
    "KfConfig", "kf_estimate", "kf_estimate_batch",
    "GpConfig", "gp_estimate", "gp_estimate_batch", "kernel_cosine_weights",
]
