"""Synthetic RSS trace generation from a scenario description.

A scenario couples the link geometry, the reflector motion and the
medium with the radio sampling process: channel set, sample rate,
noise, quantization and packet loss.  The simulator walks the reflector
along its trajectory and evaluates the reflection model exactly at
every sample, then applies the measurement impairments in dB domain.

Two trajectory models are available.  ``exact`` (the default)
re-evaluates the excess path and the reflection coefficient at every
instantaneous position, so second-order geometric effects are present
in the output.  ``frozen`` keeps the reflection coefficient at its
rest-position value and moves only the first-order excess path, which
is precisely the signal the harmonic expansions describe; it exists so
the expansions can be validated against an exact waveform.
"""

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .config import from_dict, to_dict
from .geometry import (C_LIGHT, LinkGeometry, MediumParams, ReflectorMotion,
                       effective_reflection, excess_path, fresnel_coefficient,
                       gradient_projection, incidence_cosine)
from .rss_model import ratio_db_exact, reflection_state


class ScenarioError(ValueError):
    """Scenario configuration failed validation."""


def default_channels_hz(count=16, start_hz=2.405e9, spacing_hz=5e6):
    """Default channel grid: 16 channels at 2.4 GHz with 5 MHz spacing."""
    return tuple(start_hz + spacing_hz * i for i in range(count))


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one synthetic measurement campaign.

    ``channels_hz`` may be empty, in which case a single channel at the
    medium's reference wavelength is simulated with channel id 0.
    ``noise_std_db`` is the standard deviation of the Gaussian noise
    added to the dB-scale samples; ``quantization_db`` rounds values to
    a lattice (0 disables it) and ``drop_prob`` removes samples
    independently at random.
    """

    link: LinkGeometry
    motion: ReflectorMotion
    medium: MediumParams
    channels_hz: tuple = ()
    sample_rate_hz: float = 31.25
    duration_s: float = 120.0
    baseline_dbm: float = 0.0
    noise_std_db: float = 0.0
    quantization_db: float = 1.0
    drop_prob: float = 0.0
    seed: int = 0
    model: str = "exact"

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise ScenarioError("sample_rate_hz must be positive")
        if self.duration_s <= 0:
            raise ScenarioError("duration_s must be positive")
        if self.noise_std_db < 0:
            raise ScenarioError("noise_std_db must be non-negative")
        if self.quantization_db < 0:
            raise ScenarioError("quantization_db must be non-negative")
        if not 0 <= self.drop_prob < 1:
            raise ScenarioError("drop_prob must lie in [0, 1)")
        if self.model not in ("exact", "frozen"):
            raise ScenarioError(f"unknown trajectory model {self.model!r}")
        if any(f <= 0 for f in self.channels_hz):
            raise ScenarioError("channel frequencies must be positive")

    def channel_wavelengths_m(self):
        """Per-channel wavelengths, lambda_c = c / f_c."""
        if not self.channels_hz:
            return (self.medium.wavelength_m,)
        return tuple(C_LIGHT / f for f in self.channels_hz)


@dataclass
class RssTrace:
    """Sampled RSS measurements, possibly from several channels.

    ``values`` are in dB relative to the unperturbed baseline
    (``scale == "relative"``) or absolute dBm (``scale == "absolute"``).
    Dropped samples are simply absent, so per-channel timestamps need
    not be uniform.
    """

    times_s: np.ndarray
    channel_ids: np.ndarray
    values_db: np.ndarray
    scale: str = "relative"

    def channels(self):
        return sorted(int(c) for c in np.unique(self.channel_ids))

    def for_channel(self, channel_id):
        """Timestamps and values of one channel, in time order."""
        mask = self.channel_ids == channel_id
        if not np.any(mask):
            raise KeyError(f"channel {channel_id} not present in trace")
        return self.times_s[mask], self.values_db[mask]

    def nominal_rate_hz(self):
        """Median sampling rate of the first channel, robust to drops."""
        t, _ = self.for_channel(self.channels()[0])
        if len(t) < 2:
            raise ValueError("trace too short to infer a sampling rate")
        # 12 significant digits drop the roundoff of the sample times,
        # so a 31.25 Hz trace reports 31.25, not 31.24999999999997.
        return float(f"{1.0 / np.median(np.diff(t)):.12g}")

    def save_csv(self, path):
        """Write the trace in time order; floats reload bit-identical.

        ``repr`` of a Python float is the shortest string that parses
        back to the same double, so a saved trace keeps its exact time
        base (and with it ``is_uniform``) and its exact values.
        """
        order = np.lexsort((self.channel_ids, self.times_s))
        rows = zip(self.times_s[order].tolist(),
                   self.channel_ids[order].astype(int).tolist(),
                   self.values_db[order].tolist())
        with open(path, "w") as fh:
            fh.write("time_s,channel_id,rss_db\n")
            fh.writelines(f"{t!r},{c},{v!r}\n" for t, c, v in rows)

    @classmethod
    def load_csv(cls, path, scale="relative"):
        times, chans, vals = read_csv_columns(
            path, "time_s,channel_id,rss_db", "trace contains no samples",
            (float, int, float))
        return cls(np.asarray(times), np.asarray(chans, dtype=int),
                   np.asarray(vals), scale=scale)


def read_csv_columns(path, header, empty_message, types):
    """Columns of a CSV file with a fixed header, converted by ``types``.

    Blank lines are skipped; every other line must hold one field per
    type, and a float field must be finite.  A wrong header, a
    malformed row (reported by line number) and a file without rows
    raise ValueError.
    """
    columns = [[] for _ in types]
    with open(path) as fh:
        found = fh.readline().strip()
        if found != header:
            raise ValueError(f"{path}: unexpected header {found!r}")
        lineno = 2
        # Lines are parsed a block at a time, which is faster than a loop
        # per row.  A block that fails is parsed again, by the same
        # function, one line at a time to name the first bad line.
        while lines := fh.readlines(1 << 16):
            try:
                block = _parse_rows(lines, types)
            except ValueError:
                for i, line in enumerate(lines, start=lineno):
                    try:
                        _parse_rows([line], types)
                    except ValueError as exc:
                        raise ValueError(f"{path}: malformed row {i}: {exc}") from exc
                raise
            for column, values in zip(columns, block):
                column.extend(values)
            lineno += len(lines)
    if not columns[0]:
        raise ValueError(f"{path}: {empty_message}")
    return columns


def _parse_rows(lines, types):
    """Columns of the non-blank ``lines``, each line holding one field per
    type and each field converted by its type, floats finite; ValueError
    otherwise."""
    rows = [line for line in map(str.strip, lines) if line]
    n = len(types)
    if any(row.count(",") != n - 1 for row in rows):
        raise ValueError(f"expected {n} fields")
    flat = ",".join(rows).split(",") if rows else []
    columns = [list(map(t, flat[i::n])) for i, t in enumerate(types)]
    for t, column in zip(types, columns):
        if t is float and not all(map(math.isfinite, column)):
            raise ValueError("values must be finite")
    return columns


def _trajectory_db(scenario: ScenarioConfig, wavelength_m, t):
    """Noise-free dB-scale reflection signal along the trajectory."""
    link, motion = scenario.link, scenario.motion
    medium = replace(scenario.medium, wavelength_m=wavelength_m)
    if scenario.model == "frozen":
        state = reflection_state(link, motion, medium)
        delta = (state.excess_path_m
                 + state.speed_gain_mps * t
                 + state.direction_gain * motion.amplitude_m
                 * np.sin(2 * np.pi * motion.breath_freq_hz * t))
        return ratio_db_exact(state.reflection, delta, wavelength_m)
    pos = motion.position(t)
    delta = excess_path(link, pos)
    p_inner, _ = incidence_cosine(link, pos)
    gamma = fresnel_coefficient(p_inner, medium)
    g = effective_reflection(gamma, delta, link.node_distance,
                             medium.path_gain_exponent)
    return ratio_db_exact(g, delta, wavelength_m)


def synthesize(scenario: ScenarioConfig, seed=None) -> RssTrace:
    """Generate one RssTrace realization of the scenario.

    The RNG seed defaults to the scenario's own; each channel draws
    noise and drop decisions from an independent stream spawned
    deterministically from it, so single-channel results do not depend
    on how many channels are simulated alongside.
    """
    seed = scenario.seed if seed is None else seed
    fs = scenario.sample_rate_hz
    n = int(round(scenario.duration_s * fs))
    t = np.arange(n) / fs
    wavelengths = scenario.channel_wavelengths_m()
    streams = np.random.SeedSequence(seed).spawn(len(wavelengths))

    all_t, all_c, all_v = [], [], []
    for cid, (lam, ss) in enumerate(zip(wavelengths, streams)):
        rng = np.random.default_rng(ss)
        v = _trajectory_db(scenario, lam, t)
        if scenario.noise_std_db > 0:
            v = v + rng.normal(0.0, scenario.noise_std_db, n)
        if scenario.quantization_db > 0:
            q = scenario.quantization_db
            v = np.round(v / q) * q
        keep = np.ones(n, dtype=bool)
        if scenario.drop_prob > 0:
            keep = rng.random(n) >= scenario.drop_prob
        all_t.append(t[keep])
        all_c.append(np.full(keep.sum(), cid, dtype=int))
        all_v.append(v[keep])

    trace = RssTrace(np.concatenate(all_t), np.concatenate(all_c),
                     np.concatenate(all_v), scale="relative")
    return trace


def to_absolute(trace: RssTrace, baseline_dbm) -> RssTrace:
    """Shift a relative trace onto the absolute dBm scale."""
    if trace.scale != "relative":
        raise ValueError("trace is already absolute")
    return RssTrace(trace.times_s, trace.channel_ids,
                    trace.values_db + baseline_dbm, scale="absolute")


# --- scenario (de)serialization -------------------------------------------

def scenario_to_dict(s: ScenarioConfig) -> dict:
    return to_dict(s)


def scenario_from_dict(d: dict) -> ScenarioConfig:
    """Build a validated ScenarioConfig from plain JSON data."""
    try:
        return from_dict(ScenarioConfig, d)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def load_scenario(path) -> ScenarioConfig:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: not valid JSON: {exc}") from exc
    return scenario_from_dict(data)


def save_scenario(scenario: ScenarioConfig, path):
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2)
        fh.write("\n")
