"""Breathing-rate sensing from received signal strength.

The package models how a periodically moving reflector modulates the
RSS of a static radio link, simulates measurement traces and estimates
the motion rate with three trackers (periodogram peak, harmonic Kalman
filter, Gaussian-process frequency tracker).
"""

from .dsp import FilterDesignError, FilterSpec, design_lowpass, is_uniform, preprocess, resample_uniform
from .estimators import (DftConfig, EstimateSeries, EstimatorError, GpConfig,
                         KfConfig, dft_estimate, gp_estimate, kf_estimate,
                         kernel_cosine_weights)
from .evaluation import (MetricsReport, compute_metrics, convergence_time_s,
                         freq_mae_bpm, hit_ratio_pct, noise_std_for_snr,
                         snr_estimate, snr_sweep)
from .geometry import (C_LIGHT, DegenerateGeometryError, LinkGeometry,
                       MediumParams, ReflectorMotion, effective_reflection,
                       excess_path, fresnel_coefficient, gradient_projection,
                       incidence_cosine)
from .pipeline import ESTIMATORS, estimate
from .presets import (
    PRESETS,
    bed_scenario,
    drifting_scenario,
    example_scenario_path,
    midline_scenario,
    preset_scenario,
    second_harmonic_scenario,
)
from .rss_model import (HarmonicModel, ReflectionState, linear_harmonics,
                        log_harmonics, log_series_coefficients,
                        ratio_db_exact, ratio_exact, reflection_state,
                        signal_energy_approx)
from .simulator import (RssTrace, ScenarioConfig, ScenarioError, load_scenario,
                        scenario_from_dict, synthesize)

__version__ = "0.1.0"

__all__ = [
    "C_LIGHT",
    "DegenerateGeometryError",
    "DftConfig",
    "ESTIMATORS",
    "EstimateSeries",
    "EstimatorError",
    "FilterDesignError",
    "FilterSpec",
    "GpConfig",
    "HarmonicModel",
    "KfConfig",
    "LinkGeometry",
    "MediumParams",
    "MetricsReport",
    "PRESETS",
    "ReflectionState",
    "ReflectorMotion",
    "RssTrace",
    "ScenarioConfig",
    "ScenarioError",
    "bed_scenario",
    "compute_metrics",
    "convergence_time_s",
    "design_lowpass",
    "dft_estimate",
    "drifting_scenario",
    "effective_reflection",
    "estimate",
    "excess_path",
    "freq_mae_bpm",
    "fresnel_coefficient",
    "gp_estimate",
    "gradient_projection",
    "hit_ratio_pct",
    "incidence_cosine",
    "is_uniform",
    "kernel_cosine_weights",
    "kf_estimate",
    "linear_harmonics",
    "load_scenario",
    "log_harmonics",
    "log_series_coefficients",
    "midline_scenario",
    "noise_std_for_snr",
    "preprocess",
    "example_scenario_path",
    "preset_scenario",
    "ratio_db_exact",
    "ratio_exact",
    "reflection_state",
    "resample_uniform",
    "scenario_from_dict",
    "second_harmonic_scenario",
    "signal_energy_approx",
    "snr_estimate",
    "snr_sweep",
    "synthesize",
]
