"""Ready-made desk-scale scenarios.

All presets share the 2 m link of the reference experiments: nodes at
(-1, 0) and (1, 0), 12.5 cm carrier, eta = 2, er = 1.5, breathing
amplitude 1 cm toward the link line.  Positions are chosen on the
perpendicular bisector of the link, where the excess path is a simple
function of the distance to the link line.
"""

import math
from importlib import resources

from .geometry import LinkGeometry, MediumParams, ReflectorMotion
from .simulator import ScenarioConfig

DESK_LINK = LinkGeometry(tx=(-1.0, 0.0), rx=(1.0, 0.0))
DESK_MEDIUM = MediumParams()


def midline_offset_for_excess(excess_path_m, link: LinkGeometry = DESK_LINK):
    """Distance from the link line giving a target excess path length.

    On the bisector both node distances equal sqrt((d/2)**2 + y**2), so
    y = sqrt(((delta + d)/2)**2 - (d/2)**2).
    """
    if excess_path_m < 0:
        raise ValueError("excess path must be non-negative")
    half_d = link.node_distance / 2
    return math.sqrt(((excess_path_m + link.node_distance) / 2) ** 2 - half_d ** 2)


def midline_scenario(excess_path_m, **kwargs) -> ScenarioConfig:
    """Breathing reflector on the link bisector at a chosen excess path.

    ``amplitude_m``, ``breath_freq_hz`` and ``velocity_mps`` set the
    motion, all other keywords the scenario (unquantized by default).
    """
    y = midline_offset_for_excess(excess_path_m)
    motion = ReflectorMotion(rest=(0.0, y), **{
        k: kwargs.pop(k) for k in ("amplitude_m", "breath_freq_hz",
                                   "velocity_mps") if k in kwargs})
    return ScenarioConfig(link=DESK_LINK, motion=motion, medium=DESK_MEDIUM,
                          **{"quantization_db": 0.0, **kwargs})


def bed_scenario(**kwargs) -> ScenarioConfig:
    """Sleeping-subject setup: strong fundamental, moderate noise.

    The rest position sits a quarter wavelength past the 3/2-lambda
    ellipse (excess path 1.25 * lambda), where the resting phase is an
    odd multiple of pi/2 and the fundamental tone is near its largest.
    The default noise level puts the mean-square signal power 5 dB
    below the noise variance.
    """
    return midline_scenario(1.25 * DESK_MEDIUM.wavelength_m, **{
        "noise_std_db": 1.24, "quantization_db": 1.0, **kwargs})


def second_harmonic_scenario(**kwargs) -> ScenarioConfig:
    """Rest position exactly on the 2-lambda ellipse, deep breathing.

    The resting phase is an even multiple of pi, which cancels the odd
    series harmonics, and the even series terms add in phase, so the
    spectrum is dominated by the double-rate tone.  A residual weak
    fundamental survives from the position dependence of the
    reflection coefficient along the stroke.
    """
    return midline_scenario(2.0 * DESK_MEDIUM.wavelength_m, **{
        "amplitude_m": 0.02, "noise_std_db": 0.05, **kwargs})


def drifting_scenario(shift_hz=0.3, **kwargs) -> ScenarioConfig:
    """Reflector walking away from the link at constant radial speed.

    Far from the link the excess-path gradient is nearly constant, so a
    vertical velocity produces a clean tone displacement of
    ``shift_hz = speed_gain / lambda``.  The required speed is solved
    from the gradient at the start position.
    """
    y0 = 5.0
    half_d = DESK_LINK.node_distance / 2
    node_dist = math.hypot(half_d, y0)
    gain_per_speed = 2 * y0 / node_dist  # gradient projection of (0, 1)
    speed = shift_hz * DESK_MEDIUM.wavelength_m / gain_per_speed
    motion = ReflectorMotion(rest=(0.0, y0), velocity_mps=(0.0, speed))
    return ScenarioConfig(link=DESK_LINK, motion=motion, medium=DESK_MEDIUM,
                          **{"duration_s": 60.0, "quantization_db": 0.0,
                             **kwargs})


PRESETS = {
    "bed": bed_scenario,
    "second-harmonic": second_harmonic_scenario,
    "drifting": drifting_scenario,
}


def preset_scenario(name, **kwargs) -> ScenarioConfig:
    try:
        factory = PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; have {sorted(PRESETS)}") from None
    return factory(**kwargs)


def example_scenario_path():
    """Path of the bundled 16-channel example scenario file."""
    return resources.files("rssb.data").joinpath("scenario_desk_16ch.json")
