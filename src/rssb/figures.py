"""Regeneration of the reference model figures as CSV + SVG pairs.

Each function writes its data next to a rendered SVG and returns the
list of paths.  The scenarios are the desk-scale defaults from
:mod:`rssb.presets`; sweeps accept seed counts so the expensive ones
can be thinned out from the command line.
"""

import numpy as np

from . import presets, svgplot
from .evaluation import DEFAULT_SNR_TARGETS_DB, snr_sweep, write_sweep_csv
from .rss_model import log_harmonics, ratio_db_exact, reflection_state, signal_energy_approx
from .simulator import synthesize, write_csv

# Below ~0.05 m excess path the bisector position sits so close to the
# link that the effective reflection exceeds 0.55 and the low-order
# partial sums of the coefficient series oscillate before converging;
# the comparison grid starts where the two-term expansion is in its
# intended regime.
_DELTA_GRID = np.linspace(0.05, 1.0, 200)


def _midline_state(delta_m):
    scenario = presets.midline_scenario(delta_m)
    return reflection_state(scenario.link, scenario.motion, scenario.medium)


def truncation_rmse(state):
    """RMS error of the two-harmonic model against the exact signal, over
    one breathing period, for series orders 1, 2 and 3."""
    t = (np.arange(512) + 0.5) / 512 / state.breath_freq_hz
    displacement = (state.mod_index_rad * state.wavelength_m / (2 * np.pi)
                    * np.sin(2 * np.pi * state.breath_freq_hz * t))
    exact = ratio_db_exact(state.reflection, state.excess_path_m + displacement,
                           state.wavelength_m)
    out = []
    for order in (1, 2, 3):
        model = log_harmonics(state, truncation_m=2, series_order=order)
        out.append(float(np.sqrt(np.mean((model.evaluate(t) - exact) ** 2))))
    return out


def _figure(outdir, stem, header, rows, series, **labels):
    """Write ``rows`` under ``header`` to ``<stem>.csv`` and ``series``
    plotted by :func:`svgplot.line_plot` with ``labels`` to
    ``<stem>.svg``, both in ``outdir``; returns the two paths."""
    csv_path, svg_path = f"{outdir}/{stem}.csv", f"{outdir}/{stem}.svg"
    write_csv(csv_path, header, rows)
    svgplot.line_plot(svg_path, series, **labels)
    return [csv_path, svg_path]


def make_fig2c(outdir):
    """Two-harmonic model RMSE versus excess path for series orders 1..3."""
    rows = [(d, *truncation_rmse(_midline_state(d))) for d in _DELTA_GRID]
    arr = np.asarray(rows)
    return _figure(
        outdir, "fig2c_truncation_rmse",
        "delta_m,rmse_order1_db,rmse_order2_db,rmse_order3_db", rows,
        [(arr[:, 0], arr[:, k], f"series order {k}") for k in (1, 2, 3)],
        title="Two-harmonic model error vs excess path",
        xlabel="excess path (m)", ylabel="RMSE (dB)")


def make_fig3a(outdir):
    """First-two-harmonic energy versus excess path (nulls at n*lambda/2)."""
    energy = [signal_energy_approx(_midline_state(d)) for d in _DELTA_GRID]
    return _figure(outdir, "fig3a_harmonic_energy",
                   "delta_m,first_two_harmonic_energy_db2",
                   zip(_DELTA_GRID, energy),
                   [(_DELTA_GRID, energy, "c1^2 + c2^2")],
                   title="Harmonic energy vs excess path",
                   xlabel="excess path (m)", ylabel="energy (dB^2)")


def make_fig3b(outdir):
    """Example 30 s traces at quarter- and half-wavelength rest phases."""
    lam = presets.DESK_MEDIUM.wavelength_m
    variants = {
        "fundamental": presets.midline_scenario(1.25 * lam, duration_s=30.0),
        "double_rate": presets.midline_scenario(1.5 * lam, duration_s=30.0),
    }
    t, odd = synthesize(variants["fundamental"]).for_channel(0)
    _, even = synthesize(variants["double_rate"]).for_channel(0)
    return _figure(
        outdir, "fig3b_traces",
        "time_s,rss_db_fundamental,rss_db_double_rate",
        ((f"{t_k:.6f}", a, b) for t_k, a, b in zip(t, odd, even)),
        [(t, odd, "rest phase pi/2 (odd)"), (t, even, "rest phase pi (even)")],
        title="Breathing traces at two rest phases",
        xlabel="time (s)", ylabel="RSS (dB)")


def make_fig6c(outdir, n_seeds=10, jobs=1):
    """Hit ratio versus injected SNR for the three estimators."""
    template = presets.bed_scenario(quantization_db=0.0)
    rows = snr_sweep(template, DEFAULT_SNR_TARGETS_DB, n_seeds=n_seeds,
                     jobs=jobs)
    csv_path = f"{outdir}/fig6c_snr_sweep.csv"
    write_sweep_csv(rows, csv_path)
    svg_path = f"{outdir}/fig6c_snr_sweep.svg"
    # rows come in rising SNR for each method
    series = [([r["snr_db"] for r in rows if r["method"] == method],
               [r["hit_ratio_pct"] for r in rows if r["method"] == method],
               method) for method in ("dft", "kf", "gp")]
    svgplot.line_plot(svg_path, series, title="Hit ratio vs injected SNR",
                      xlabel="SNR (dB)", ylabel="estimates within 1 bpm (%)")
    return [csv_path, svg_path]


FIGURES = {
    "fig2c": make_fig2c,
    "fig3a": make_fig3a,
    "fig3b": make_fig3b,
    "fig6c": make_fig6c,
}
