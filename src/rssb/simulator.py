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
from dataclasses import dataclass, field, replace

import numpy as np

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
        return 1.0 / float(np.median(np.diff(t)))

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
        times, chans, vals = [], [], []
        with open(path) as fh:
            header = fh.readline().strip()
            if header != "time_s,channel_id,rss_db":
                raise ValueError(f"{path}: unexpected header {header!r}")
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                try:
                    if len(parts) != 3:
                        raise ValueError("expected 3 fields")
                    times.append(float(parts[0]))
                    chans.append(int(parts[1]))
                    vals.append(float(parts[2]))
                except ValueError as exc:
                    raise ValueError(f"{path}: malformed row {lineno}: {exc}") from exc
        if not times:
            raise ValueError(f"{path}: trace contains no samples")
        return cls(np.asarray(times), np.asarray(chans, dtype=int),
                   np.asarray(vals), scale=scale)


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
    return {
        "link": {"tx": list(s.link.tx), "rx": list(s.link.rx)},
        "motion": {
            "rest": list(s.motion.rest),
            "direction": list(s.motion.direction),
            "amplitude_m": s.motion.amplitude_m,
            "breath_freq_hz": s.motion.breath_freq_hz,
            "velocity_mps": list(s.motion.velocity_mps),
        },
        "medium": {
            "wavelength_m": s.medium.wavelength_m,
            "rel_permittivity": s.medium.rel_permittivity,
            "path_gain_exponent": s.medium.path_gain_exponent,
        },
        "channels_hz": list(s.channels_hz),
        "sample_rate_hz": s.sample_rate_hz,
        "duration_s": s.duration_s,
        "baseline_dbm": s.baseline_dbm,
        "noise_std_db": s.noise_std_db,
        "quantization_db": s.quantization_db,
        "drop_prob": s.drop_prob,
        "seed": s.seed,
        "model": s.model,
    }


def _pair(section, key, value):
    try:
        x, y = value
        return (float(x), float(y))
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{section}.{key} must be a pair of numbers") from exc


def scenario_from_dict(d: dict) -> ScenarioConfig:
    """Build a validated ScenarioConfig from plain JSON data."""
    try:
        link = LinkGeometry(tx=_pair("link", "tx", d["link"]["tx"]),
                            rx=_pair("link", "rx", d["link"]["rx"]))
        mo = d.get("motion", {})
        motion = ReflectorMotion(
            rest=_pair("motion", "rest", mo["rest"]),
            direction=_pair("motion", "direction", mo.get("direction", (0, -1))),
            amplitude_m=float(mo.get("amplitude_m", 0.01)),
            breath_freq_hz=float(mo.get("breath_freq_hz", 0.2)),
            velocity_mps=_pair("motion", "velocity_mps",
                               mo.get("velocity_mps", (0, 0))),
        )
        me = d.get("medium", {})
        medium = MediumParams(
            wavelength_m=float(me.get("wavelength_m", 0.125)),
            rel_permittivity=float(me.get("rel_permittivity", 1.5)),
            path_gain_exponent=float(me.get("path_gain_exponent", 2.0)),
        )
        return ScenarioConfig(
            link=link, motion=motion, medium=medium,
            channels_hz=tuple(float(f) for f in d.get("channels_hz", ())),
            sample_rate_hz=float(d.get("sample_rate_hz", 31.25)),
            duration_s=float(d.get("duration_s", 120.0)),
            baseline_dbm=float(d.get("baseline_dbm", 0.0)),
            noise_std_db=float(d.get("noise_std_db", 0.0)),
            quantization_db=float(d.get("quantization_db", 1.0)),
            drop_prob=float(d.get("drop_prob", 0.0)),
            seed=int(d.get("seed", 0)),
            model=str(d.get("model", "exact")),
        )
    except KeyError as exc:
        raise ScenarioError(f"scenario is missing required field {exc}") from exc
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"invalid scenario value: {exc}") from exc


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
