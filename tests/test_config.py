"""The dataclass codec: JSON round trips and the rules of from_dict."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rssb.config import from_dict, to_dict
from rssb.dsp import FilterSpec
from rssb.estimators import DftConfig, GpConfig, KfConfig
from rssb.geometry import LinkGeometry, MediumParams, ReflectorMotion
from rssb.simulator import ScenarioConfig

finite = st.floats(-1e6, 1e6, allow_nan=False)
positive = st.floats(1e-6, 1e6, allow_nan=False)
non_negative = st.floats(0.0, 1e6, allow_nan=False)
pair = st.tuples(finite, finite)
increasing = st.tuples(positive, positive).filter(lambda p: p[0] < p[1])

links = st.tuples(pair, pair).filter(
    lambda p: not np.allclose(*p)).map(lambda p: LinkGeometry(*p))
motions = st.builds(
    ReflectorMotion, rest=pair,
    direction=st.floats(0, 2 * math.pi).map(
        lambda a: (math.cos(a), math.sin(a))),
    amplitude_m=non_negative, breath_freq_hz=non_negative, velocity_mps=pair)
media = st.builds(MediumParams, wavelength_m=positive,
                  rel_permittivity=st.floats(1.0, 1e3), path_gain_exponent=finite)
scenarios = st.builds(
    ScenarioConfig, link=links, motion=motions, medium=media,
    channels_hz=st.lists(positive, max_size=4).map(tuple),
    sample_rate_hz=positive, duration_s=positive, baseline_dbm=finite,
    noise_std_db=non_negative, quantization_db=non_negative,
    drop_prob=st.floats(0.0, 0.99), seed=st.integers(0, 2**64),
    model=st.sampled_from(["exact", "frozen"]))
filter_specs = st.just(FilterSpec())  # the template is the only spec
dft_configs = st.builds(DftConfig, n_dft=st.integers(2, 2**16),
                        window_s=positive, band_hz=increasing)
kf_configs = st.builds(KfConfig, n_bins=st.integers(1, 500),
                       max_freq_hz=positive, process_var=positive,
                       meas_var=positive, init_cov=positive, amp_floor=finite)
# GpConfig rejects a lengthscale below about 0.0374, where its kernel
# weights overflow
gp_configs = st.builds(
    GpConfig, n_harmonics=st.integers(1, 6), kernel_var=positive,
    lengthscale=st.floats(0.04, 1e6), freq_drift=non_negative,
    meas_var=positive, init_log_freq=finite, init_log_freq_var=positive,
    init_dc_var=positive)

STRATEGIES = {
    LinkGeometry: links, ReflectorMotion: motions, MediumParams: media,
    ScenarioConfig: scenarios, FilterSpec: filter_specs,
    DftConfig: dft_configs, KfConfig: kf_configs, GpConfig: gp_configs,
}


@pytest.mark.parametrize("cls", list(STRATEGIES), ids=lambda c: c.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_json_round_trip(cls, data):
    obj = data.draw(STRATEGIES[cls])
    assert from_dict(cls, json.loads(json.dumps(to_dict(obj)))) == obj


def test_absent_fields_take_the_dataclass_defaults():
    minimal = {"link": {"tx": [-1, 0], "rx": [1, 0]},
               "motion": {"rest": [0, 0.5]}}
    scenario = from_dict(ScenarioConfig, minimal)
    assert scenario == ScenarioConfig(
        link=LinkGeometry((-1.0, 0.0), (1.0, 0.0)),
        motion=ReflectorMotion(rest=(0.0, 0.5)), medium=MediumParams())
    assert from_dict(GpConfig, {}) == GpConfig()


@pytest.mark.parametrize("cls, data, message", [
    (ScenarioConfig, {"link": {"tx": [0, 0], "rx": [1, 0]}},
     "missing required field motion.rest"),
    (ScenarioConfig, {"motion": {"rest": [0, 1]}},
     "missing required field link.tx"),
    (ScenarioConfig, {"link": {"tx": [0, 0], "rx": [1, 0], "ty": [0, 0]},
                      "motion": {"rest": [0, 1]}}, "unknown field link.ty"),
    (ScenarioConfig, {"link": [0, 0], "motion": {"rest": [0, 1]}},
     "link must be an object"),
    (DftConfig, {"band_hz": [0.1]}, "band_hz must be a list of 2 numbers"),
    (DftConfig, {"band_hz": [0.1, "x"]}, r"band_hz\[1\] must be a finite number"),
    (DftConfig, {"n_dft": 1024.5}, "n_dft must be an integer"),
    (DftConfig, {"n_dft": True}, "n_dft must be a finite number"),
    (KfConfig, {"meas_var": "1"}, "meas_var must be a finite number"),
    (KfConfig, {"meas_var": float("nan")}, "meas_var must be a finite number"),
    (GpConfig, {"kernel_var": float("inf")}, "kernel_var must be a finite"),
    (KfConfig, {"meas_var": 10 ** 400}, "meas_var must be a finite number"),
    (ScenarioConfig, {"link": {"tx": [0, 0], "rx": [1, 0]},
                      "motion": {"rest": [0, 1]}, "seed": 10 ** 400},
     "seed must be a finite number"),
    (ScenarioConfig, {"link": {"tx": [0, 0], "rx": [1, 0]},
                      "motion": {"rest": [0, 1]}, "model": 3},
     "model must be a string"),
    (ScenarioConfig, {"link": {"tx": [0, 0], "rx": [1, 0]},
                      "motion": {"rest": [0, 1]}, "channels_hz": 2.4e9},
     "channels_hz must be a list of numbers"),
])
def test_bad_data_names_the_dotted_path(cls, data, message):
    with pytest.raises(ValueError, match=message):
        from_dict(cls, data)


def test_integral_numbers_are_integers():
    cfg = from_dict(DftConfig, {"n_dft": 1024.0, "window_s": 20})
    assert cfg.n_dft == 1024 and isinstance(cfg.n_dft, int)
    assert cfg.window_s == 20.0 and isinstance(cfg.window_s, float)
