"""Accuracy metrics, SNR characterization and ensemble sweeps.

Rate errors are expressed in breaths per minute (bpm = 60 * Hz).  The
30 s split separates the settling transient of the trackers from their
steady behaviour; the outlier threshold removes runs that locked onto
a harmonic when judging fine accuracy, mirroring how the reference
results are reported.
"""

import math
import os
import sys
from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from .pipeline import check_methods, estimate_batch
from .rss_model import log_harmonics, reflection_state
from .simulator import ScenarioConfig, synthesize, write_csv

SPLIT_S = 30.0
HIT_TOL_BPM = 1.0
OUTLIER_BPM = 3.0
SNR_BAND_HZ = (0.1, 3.0)
DEFAULT_SNR_TARGETS_DB = tuple(range(-18, -2, 2))  # the sweep's default grid
HARMONIC_NEIGHBORHOOD_HZ = 2.0 / 60.0  # +/- 2 bpm around each harmonic
MODEL_HARMONICS = 4  # model harmonics summed into the in-band signal power


def _err_bpm(f_hat_hz, true_hz):
    return 60.0 * (np.asarray(f_hat_hz, dtype=float) - true_hz)


def freq_mae_bpm(f_hat_hz, true_hz) -> float:
    """Mean absolute rate error in bpm."""
    if len(f_hat_hz) == 0:
        raise ValueError("no estimates to score")
    return float(np.mean(np.abs(_err_bpm(f_hat_hz, true_hz))))


def hit_ratio_pct(f_hat_hz, true_hz) -> float:
    """Percentage of estimates within ``HIT_TOL_BPM`` of the true rate."""
    if len(f_hat_hz) == 0:
        raise ValueError("no estimates to score")
    err = np.abs(_err_bpm(f_hat_hz, true_hz))
    return float(100.0 * np.mean(err <= HIT_TOL_BPM))


def convergence_split(times_s, f_hat_hz, true_hz):
    """MAE up to and after ``SPLIT_S`` (None for an empty side)."""
    times_s = np.asarray(times_s, dtype=float)
    early = times_s <= SPLIT_S
    out = []
    for mask in (early, ~early):
        out.append(freq_mae_bpm(np.asarray(f_hat_hz)[mask], true_hz)
                   if np.any(mask) else None)
    return tuple(out)


def outlier_filtered_mae(f_hat_hz, true_hz):
    """MAE excluding harmonic-lock outliers, plus the excluded share.

    An outlier is an estimate more than ``OUTLIER_BPM`` off.  Returns
    ``(mae_bpm, outlier_pct)``; the MAE is None when every estimate is
    an outlier.
    """
    err = np.abs(_err_bpm(f_hat_hz, true_hz))
    keep = err <= OUTLIER_BPM
    pct = float(100.0 * np.mean(~keep)) if len(err) else 0.0
    if not np.any(keep):
        return None, pct
    return float(np.mean(err[keep])), pct


def convergence_time_s(times_s, f_hat_hz, true_hz):
    """Earliest time from which all estimates stay within HIT_TOL_BPM."""
    if len(f_hat_hz) == 0:
        raise ValueError("no estimates to score")
    times_s = np.asarray(times_s, dtype=float)
    ok = np.abs(_err_bpm(f_hat_hz, true_hz)) <= HIT_TOL_BPM
    if not ok[-1]:
        return None
    # last index where the estimate was outside tolerance
    bad = np.flatnonzero(~ok)
    return float(times_s[0] if len(bad) == 0 else times_s[bad[-1] + 1])


def snr_estimate(y, sample_rate_hz, breath_freq_hz) -> float:
    """Harmonic-to-residual power ratio of the preprocessed signal, in dB.

    The periodogram power within ``HARMONIC_NEIGHBORHOOD_HZ`` of the
    first two breathing harmonics is compared against the remaining
    power in ``SNR_BAND_HZ``; the DC bin is always excluded.
    """
    y = np.asarray(y, dtype=float)
    if len(y) < 8:
        raise ValueError("signal too short for an SNR estimate")
    nfft = 1 << int(math.ceil(math.log2(len(y))))
    psd = np.abs(np.fft.rfft(y, nfft)) ** 2
    freqs = np.fft.rfftfreq(nfft, d=1.0 / sample_rate_hz)
    in_band = (freqs >= SNR_BAND_HZ[0]) & (freqs <= SNR_BAND_HZ[1])
    in_band[0] = False
    near = np.zeros_like(in_band)
    for harmonic in (breath_freq_hz, 2 * breath_freq_hz):
        near |= np.abs(freqs - harmonic) <= HARMONIC_NEIGHBORHOOD_HZ
    signal_bins = in_band & near
    rest_bins = in_band & ~near
    if not np.any(signal_bins) or not np.any(rest_bins):
        raise ValueError("SNR band holds no bins near the harmonics, "
                         "or none away from them")
    return float(10 * np.log10(psd[signal_bins].sum() / psd[rest_bins].sum()))


@dataclass
class MetricsReport:
    """Flat summary of one estimator run against a known rate."""

    method: str
    true_freq_hz: float
    n_estimates: int
    freq_mae_bpm: float
    hit_ratio_pct: float
    early_mae_bpm: Optional[float]
    late_mae_bpm: Optional[float]
    mae_no_outliers_bpm: Optional[float]
    outlier_pct: float
    convergence_time_s: Optional[float]
    snr_db: Optional[float] = None

    def to_dict(self):
        return asdict(self)


def compute_metrics(series, true_freq_hz, *, snr_db=None) -> MetricsReport:
    early, late = convergence_split(series.times_s, series.f_hat_hz,
                                    true_freq_hz)
    mae_clean, outlier_pct = outlier_filtered_mae(series.f_hat_hz,
                                                  true_freq_hz)
    return MetricsReport(
        method=series.method,
        true_freq_hz=float(true_freq_hz),
        n_estimates=len(series),
        freq_mae_bpm=freq_mae_bpm(series.f_hat_hz, true_freq_hz),
        hit_ratio_pct=hit_ratio_pct(series.f_hat_hz, true_freq_hz),
        early_mae_bpm=early,
        late_mae_bpm=late,
        mae_no_outliers_bpm=mae_clean,
        outlier_pct=outlier_pct,
        convergence_time_s=convergence_time_s(series.times_s, series.f_hat_hz,
                                              true_freq_hz),
        snr_db=snr_db,
    )


# --- ensemble sweeps -------------------------------------------------------

def inband_signal_power(scenario: ScenarioConfig) -> float:
    """Mean-square dB-scale signal power landing inside ``SNR_BAND_HZ``.

    Computed from the harmonic model at the rest position of the first
    channel: sum of c_m**2 / 2 over the first ``MODEL_HARMONICS``
    harmonics whose tone lies in the band.
    """
    medium = replace(scenario.medium,
                     wavelength_m=scenario.channel_wavelengths_m()[0])
    state = reflection_state(scenario.link, scenario.motion, medium)
    model = log_harmonics(state, truncation_m=MODEL_HARMONICS)
    f = scenario.motion.breath_freq_hz
    power = 0.0
    for m in range(1, MODEL_HARMONICS + 1):
        if SNR_BAND_HZ[0] <= m * f <= SNR_BAND_HZ[1]:
            power += model.coefficient(m) ** 2 / 2
    if power == 0:
        raise ValueError("scenario has no harmonic power inside the band")
    return power


def noise_std_for_snr(scenario: ScenarioConfig, snr_db) -> float:
    """Noise standard deviation producing a target model-level SNR.

    The SNR here is the ratio of the mean-square harmonic signal power
    in ``SNR_BAND_HZ`` to the white-noise sample variance,
    ``snr = 10*log10(P_sig / sigma^2)``.  Unlike the periodogram-ratio
    characterization, this injected quantity is known exactly and stays
    well defined at arbitrarily low values.
    """
    return _noise_std(inband_signal_power(scenario), snr_db)


def _noise_std(p_sig, snr_db):
    """The noise standard deviation of ``snr_db`` below the in-band
    signal power ``p_sig``."""
    return math.sqrt(p_sig * 10 ** (-snr_db / 10))


# Cells per unit of sweep work.  A worker holds one method's estimate
# series of every cell of a unit until it has scored them, so this bounds
# its memory: a unit of 32 bed cells peaks at 26.7 MB under tracemalloc,
# 23.2 MB for kf alone (its states and its retained gain table), 21.9 MB
# for gp and 11.5 MB for dft, which keeps no spectrogram.  kf runs its
# covariance recursion once per drop-free time grid in each worker
# process and reuses it across units.
_MAX_CHUNK_CELLS = 32


def _sweep_chunk(args):
    """Hit ratios of a contiguous run of (noise_std_db, seed) cells, as a
    (cells × methods) array.  The cells whose traces share timestamps
    (all of them, without drops) are estimated as one batch.
    """
    template, cells, methods = args
    batches = {}  # timestamps -> (times, cell indices, values)
    for i, (sigma, seed) in enumerate(cells):
        trace = synthesize(replace(template, noise_std_db=sigma), seed=seed)
        t = trace.times_s
        _, index, rows = batches.setdefault(t.tobytes(), (t, [], []))
        index.append(i)
        rows.append(trace.values_db)
    true_hz = template.motion.breath_freq_hz
    hits = np.empty((len(cells), len(methods)))
    for t, index, rows in batches.values():
        for j, (_, series) in enumerate(estimate_batch(t, rows, methods)):
            hits[index, j] = [hit_ratio_pct(one.after(SPLIT_S)[1], true_hz)
                              for one in series]
            del series  # free this method's series before the next runs
    return hits


def snr_sweep(template: ScenarioConfig, snr_targets_db, n_seeds=25,
              methods=("dft", "kf", "gp"), jobs=1):
    """Hit ratio of every method across an injected-SNR grid.

    For each distinct target SNR the template's noise level is
    recalibrated and ``n_seeds`` traces, seeded ``template.seed``
    onwards, scored on the post-transient estimates of their first
    channel.  Returns a list of ``{"snr_db", "method", "hit_ratio_pct"}``
    rows, seed-averaged, ordered by SNR then method.

    The (SNR, seed) cells are split into contiguous chunks, a multiple
    of ``jobs`` of them, run by ``jobs`` processes.  Within a chunk, each
    method runs once per batch of cells with identical timestamps.  The
    processes are spawned and run the main program again: it needs an
    ``if __name__ == "__main__":`` guard, and one read from standard
    input raises ValueError before they start.
    """
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be at least 1, got {n_seeds}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    targets = [float(snr) for snr in snr_targets_db]
    if not all(map(math.isfinite, targets)):
        raise ValueError(f"SNR targets must be finite, got {targets}")
    check_methods(methods)
    targets = sorted(set(targets))
    if not targets:
        return []
    p_sig = inband_signal_power(template)
    cells = [(_noise_std(p_sig, snr), template.seed + i) for snr in targets
             for i in range(n_seeds)]
    # a multiple of jobs chunks of near-equal size keeps the workers even
    n_chunks = jobs * max(1, -(-len(cells) // (jobs * _MAX_CHUNK_CELLS)))
    bounds = [len(cells) * i // n_chunks for i in range(n_chunks + 1)]
    # each channel draws its own stream, so channel 0 needs no others
    template = replace(template, channels_hz=template.channels_hz[:1])
    tasks = [(template, cells[a:b], tuple(methods))
             for a, b in zip(bounds, bounds[1:]) if b > a]
    if jobs > 1:
        main_file = getattr(sys.modules["__main__"], "__file__", None)
        if main_file is not None and not os.path.isfile(main_file):
            raise ValueError(
                f"snr_sweep(jobs={jobs}) spawns workers that run the main "
                f"program again, and {main_file!r} names no file: run it "
                "from a file with an `if __name__ == \"__main__\":` guard, "
                "or pass jobs=1")
        # forked from a parent whose BLAS threads run, workers stalled at
        # random on two cores: spawn them, each with one BLAS thread
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        saved = os.environ.get("OPENBLAS_NUM_THREADS")
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        spawn = multiprocessing.get_context("spawn")
        try:
            with ProcessPoolExecutor(jobs, mp_context=spawn) as pool:
                chunks = list(pool.map(_sweep_chunk, tasks))
        finally:  # the caller's environment back
            os.environ.pop("OPENBLAS_NUM_THREADS", None)
            if saved is not None:
                os.environ["OPENBLAS_NUM_THREADS"] = saved
    else:
        chunks = [_sweep_chunk(t) for t in tasks]
    hits = np.concatenate(chunks).reshape(len(targets), n_seeds, len(methods))
    # seeds on the last, contiguous axis sum as np.mean of each list does
    means = np.ascontiguousarray(hits.transpose(0, 2, 1)).mean(axis=-1)
    return [{"snr_db": snr, "method": method, "hit_ratio_pct": float(hit)}
            for snr, row in zip(targets, means)
            for method, hit in zip(methods, row)]


def write_sweep_csv(rows, path):
    """Write ``snr_sweep`` rows as ``snr_db,method,hit_ratio_pct`` CSV."""
    write_csv(path, "snr_db,method,hit_ratio_pct",
              ((row["snr_db"], row["method"], f"{row['hit_ratio_pct']:.2f}")
               for row in rows))
