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

import csv
import json
import math
from dataclasses import dataclass
from itertools import chain, islice, repeat

import numpy as np

from .config import from_dict
from .dsp import nominal_rate_hz
from .geometry import (C_LIGHT, LinkGeometry, MediumParams, ReflectorMotion,
                       effective_reflection, excess_path, fresnel_coefficient,
                       incidence_cosine)
from .rss_model import ratio_db_exact, reflection_state


# Lines of a saved trace joined into one write.
_LINES_PER_WRITE = 4096

# Every byte ``repr`` of a finite float and ``int`` write in a trace CSV.
_NUMBER_TEXT = b"0123456789+-.e,\n"


class ScenarioError(ValueError):
    """Scenario configuration failed validation."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one synthetic measurement campaign.

    ``channels_hz`` may be empty, in which case a single channel at the
    medium's reference wavelength is simulated with channel id 0.
    ``noise_std_db`` is the standard deviation of the Gaussian noise
    added to the dB-scale samples; ``quantization_db`` rounds values to
    a lattice (0 disables it), a non-zero ``baseline_dbm`` is then added
    to make them absolute, and ``drop_prob`` removes samples at random.
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
        if not math.isfinite(self.duration_s * self.sample_rate_hz):
            raise ScenarioError("duration_s * sample_rate_hz must be a "
                                "finite sample count")
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

    ``values_db`` are in dB against any fixed reference: relative to
    the unperturbed link, or absolute dBm when :func:`synthesize` adds
    the scenario's ``baseline_dbm``; the estimates do not depend on
    which.  Dropped samples are simply absent, so per-channel
    timestamps need not be uniform.
    """

    times_s: np.ndarray
    channel_ids: np.ndarray
    values_db: np.ndarray

    def channels(self):
        return sorted(int(c) for c in np.unique(self.channel_ids))

    def for_channel(self, channel_id):
        """Timestamps and values of one channel, in stored order:
        strictly increasing in time for a trace that :func:`synthesize`
        made or :meth:`load_csv` read."""
        mask = self.channel_ids == channel_id
        if not np.any(mask):
            raise KeyError(f"channel {channel_id} not present in trace")
        return self.times_s[mask], self.values_db[mask]

    def nominal_rate_hz(self):
        """Sampling rate of the first channel, robust to drops
        (:func:`rssb.dsp.nominal_rate_hz`)."""
        channels = self.channels()
        t = self.for_channel(channels[0])[0] if channels else ()
        if len(t) < 2:
            raise ValueError("trace too short to infer a sampling rate")
        return nominal_rate_hz(t)

    def save_csv(self, path):
        """Write the trace in time order; floats reload bit-identical.

        ``repr`` of a Python float is the shortest string that parses
        back to the same double, so a saved trace keeps its exact time
        base (and with it ``is_uniform``) and its exact values.  Channels
        sampled together share a timestamp, whose text is made once.
        A trace that :meth:`load_csv` would refuse (no samples, a time or
        value that is not finite, a timestamp repeated within a channel)
        raises ValueError before the file is opened.
        """
        n = len(self.times_s)
        if n == 0:
            raise ValueError(f"cannot write {path}: the trace has no samples")
        bad = n - np.count_nonzero(np.isfinite(self.times_s)
                                   & np.isfinite(self.values_db))
        if bad:
            raise ValueError(f"cannot write {path}: {bad} of the trace's "
                             f"{n} samples are not finite")
        order = np.lexsort((self.channel_ids, self.times_s))
        times = self.times_s[order]
        chans = self.channel_ids[order]
        if (channel := _unordered_channel(times, chans)) is not None:
            raise ValueError(f"cannot write {path}: channel {channel} "
                             "repeats a timestamp")
        # runs of one timestamp, told apart by bits so -0.0 keeps its sign
        bits = times.view(np.int64)
        first = np.ones(len(times), dtype=bool)
        first[1:] = bits[1:] != bits[:-1]
        starts = np.flatnonzero(first)
        stamps = [f"{t!r}," for t in times[starts].tolist()]
        counts = np.diff(starts, append=len(times)).tolist()
        rows = zip(chain.from_iterable(map(repeat, stamps, counts)),
                   chans.astype(int).tolist(),
                   self.values_db[order].tolist())
        with open(path, "w") as fh:
            fh.write("time_s,channel_id,rss_db\n")
            while block := [f"{t}{c},{v!r}\n"
                            for t, c, v in islice(rows, _LINES_PER_WRITE)]:
                fh.write("".join(block))

    @classmethod
    def load_csv(cls, path):
        """Read a trace that :meth:`save_csv` wrote.

        Rows may come in any order across channels, but each channel's
        timestamps must be strictly increasing down the file; a
        ValueError names the lowest channel whose timestamps are not.
        """
        times, chans, vals = read_csv_columns(
            path, "time_s,channel_id,rss_db", "trace contains no samples",
            (float, int, float))
        times, chans = np.asarray(times), np.asarray(chans, dtype=int)
        if (channel := _unordered_channel(times, chans)) is not None:
            raise ValueError(f"{path}: timestamps of channel {channel} "
                             "are not strictly increasing")
        return cls(times, chans, np.asarray(vals))


def _unordered_channel(times, chans):
    """The lowest channel whose ``times`` do not strictly increase in
    row order, or None."""
    step = np.diff(times)
    ties = step == 0
    # save_csv's order: times never fall, and rows that share a timestamp
    # list their channels in rising order
    if np.all(step >= 0) and np.all(np.diff(chans)[ties] > 0):
        return None
    order = np.argsort(chans, kind="stable")
    times, chans = times[order], chans[order]
    bad = (times[1:] <= times[:-1]) & (chans[1:] == chans[:-1])
    return int(chans[1:][bad][0]) if bad.any() else None


def write_csv(path, header, rows):
    """Write ``header`` (comma-separated names, as
    :func:`read_csv_columns` takes it) and ``rows`` in :mod:`csv`'s
    default dialect; a field that is not a string is written as its
    ``str``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header.split(","))
        writer.writerows(rows)


def read_csv_columns(path, header, empty_message, types):
    """Columns of a CSV file with a fixed header, converted by ``types``.

    Blank lines are skipped; every other line must hold one field per
    type, a float field must be finite and an int field must fit in 64
    bits.  A wrong header, a malformed row (reported by line number) and
    a file without rows raise ValueError.  Numeric columns of seekable
    plain number text are read by numpy's text reader; other text, or
    text it fails on, is parsed one line at a time, which accepts what
    ``float`` and ``int`` accept and names the first bad row.
    """
    with open(path) as fh:
        found = fh.readline().strip()
        if found != header:
            raise ValueError(f"{path}: unexpected header {found!r}")
        if fh.seekable() and str not in types:
            start = fh.tell()
            if numbers := _load_plain_numbers(fh, types):
                return numbers
            fh.seek(start)
        rows = [_parse_row(path, lineno, row, types)
                for lineno, line in enumerate(fh, start=2)
                if (row := line.strip())]
    if not rows:
        raise ValueError(f"{path}: {empty_message}")
    return [list(column) for column in zip(*rows)]


def _load_plain_numbers(fh, types):
    """The columns of the rest of ``fh`` as ``np.loadtxt`` reads them.

    None when the text holds no row or a character that ``repr`` of a
    finite float and ``int`` never write, when the reader fails, or when
    a float is not finite.  numpy's reader rejects some fields that
    ``float`` and ``int`` accept, such as ``1_0``, but it also strips
    padding they reject (the ASCII separators 0x1c-0x1f), so it is given
    plain number text only.
    """
    start = fh.tell()
    any_row = False
    for chunk in iter(lambda: fh.read(1 << 16), ""):
        if chunk.encode().translate(None, _NUMBER_TEXT):
            return None
        any_row = any_row or not chunk.isspace()
    if not any_row:
        return None
    fh.seek(start)
    dtype = [(f"f{i}", t) for i, t in enumerate(types)]
    try:
        table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=1,
                           dtype=dtype)
    except ValueError:
        return None
    columns = [np.ascontiguousarray(table[name]) for name, _ in dtype]
    finite = all(np.isfinite(column).all()
                 for column, t in zip(columns, types) if t is float)
    return columns if finite else None


def _parse_row(path, lineno, row, types):
    """The fields of ``row``, line ``lineno`` of ``path`` stripped, one per
    type, each converted by its type, floats finite and integers within
    64 bits; a ValueError naming the line otherwise."""
    fields = row.split(",")
    try:
        if len(fields) != len(types):
            raise ValueError(f"expected {len(types)} fields")
        values = [t(field) for t, field in zip(types, fields)]
        for t, value in zip(types, values):
            if t is float and not math.isfinite(value):
                raise ValueError("values must be finite")
            if t is int and not -2**63 <= value < 2**63:
                raise ValueError("integers must fit in 64 bits")
    except ValueError as exc:
        raise ValueError(f"{path}: malformed row {lineno}: {exc}") from exc
    return values


def _reflection_path(scenario: ScenarioConfig, t):
    """Effective reflection and excess path along the trajectory.

    Neither depends on the wavelength (the Fresnel coefficient reads the
    permittivity only), so all channels share them.
    """
    link, motion = scenario.link, scenario.motion
    if scenario.model == "frozen":
        state = reflection_state(link, motion, scenario.medium)
        delta = (state.excess_path_m
                 + state.speed_gain_mps * t
                 + state.direction_gain * motion.amplitude_m
                 * np.sin(2 * np.pi * motion.breath_freq_hz * t))
        return state.reflection, delta
    pos = motion.position(t)
    delta = excess_path(link, pos)
    p_inner, _ = incidence_cosine(link, pos)
    gamma = fresnel_coefficient(p_inner, scenario.medium)
    g = effective_reflection(gamma, delta, link.node_distance,
                             scenario.medium.path_gain_exponent)
    return g, delta


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
    reflection, delta = _reflection_path(scenario, t)

    all_t, all_c, all_v = [], [], []
    for cid, (lam, ss) in enumerate(zip(wavelengths, streams)):
        rng = np.random.default_rng(ss)
        v = ratio_db_exact(reflection, delta, lam)
        if scenario.noise_std_db > 0:
            v = v + rng.normal(0.0, scenario.noise_std_db, n)
        if scenario.quantization_db > 0:
            q = scenario.quantization_db
            v = np.round(v / q) * q
        if scenario.baseline_dbm:
            v = v + scenario.baseline_dbm
        keep = np.ones(n, dtype=bool)
        if scenario.drop_prob > 0:
            keep = rng.random(n) >= scenario.drop_prob
        all_t.append(t[keep])
        all_c.append(np.full(keep.sum(), cid, dtype=int))
        all_v.append(v[keep])

    return RssTrace(np.concatenate(all_t), np.concatenate(all_c),
                    np.concatenate(all_v))


# --- scenario (de)serialization -------------------------------------------

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
