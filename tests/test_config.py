import copy
import json

import numpy as np
import pytest

from apsim.config import RunConfig, SCAN_KINDS, load_config
from apsim.errors import ConfigError
from apsim.pulses import APPulse

BASE = {
    "scan": {"kind": "spectrum", "start_khz": -65.0, "stop_khz": 65.0, "step_khz": 1.0},
    "pulse": {
        "kind": "ap",
        "omega_max_khz": 28.0,
        "delta_max_khz": 40.0,
        "delta_c_khz": 0.0,
        "t_p_ms": 2.0,
    },
    "thermal": {"delta_ls_max_khz": -11.0, "delta_th_khz": 1.7, "p_max": 0.95},
}


def cfg(**over) -> dict:
    out = copy.deepcopy(BASE)
    out.update(copy.deepcopy(over))
    return out


def test_minimal_spectrum_config():
    rc = load_config(cfg())
    assert rc.kind == "spectrum"
    assert len(rc.grid) == 131
    assert rc.grid[0] == -65.0 and rc.grid[-1] == 65.0
    assert isinstance(rc.pulse, APPulse)
    assert rc.seed == 0
    assert rc.apply_detection is False
    assert rc.damping is None
    assert rc.renormalize is False


def test_kinds_enumerated():
    assert set(SCAN_KINDS) == {"spectrum", "spatial", "transport", "adiabaticity"}


def test_file_round_trip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg()))
    rc = load_config(path)
    assert rc.kind == "spectrum"
    assert isinstance(rc, RunConfig)


def test_invalid_json_and_source_type(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)
    with pytest.raises(ConfigError):
        load_config(42)


def test_unknown_keys_rejected_everywhere():
    with pytest.raises(ConfigError):
        load_config(cfg(surprise=1))
    bad = cfg()
    bad["scan"]["comment"] = "hi"
    with pytest.raises(ConfigError):
        load_config(bad)
    bad = cfg()
    bad["thermal"]["temperature_uk"] = 20.0
    with pytest.raises(ConfigError):
        load_config(bad)
    bad = cfg()
    bad["pulse"]["ramp"] = True
    with pytest.raises(ConfigError):
        load_config(bad)


def test_required_sections_per_kind():
    no_thermal = cfg()
    del no_thermal["thermal"]
    with pytest.raises(ConfigError):
        load_config(no_thermal)

    spatial = cfg()
    spatial["scan"] = {"kind": "spatial", "start_um": -25.0, "stop_um": 25.0, "step_um": 0.5}
    with pytest.raises(ConfigError):
        load_config(spatial)  # geometry missing
    spatial["geometry"] = {
        "grad_nu_khz_per_um": 3.2, "guide_shift_nu_mhz": 9.8, "span_um": 300.0,
    }
    rc = load_config(spatial)
    assert rc.kind == "spatial"
    assert len(rc.grid) == 101


def test_scan_kind_validation():
    bad = cfg()
    bad["scan"]["kind"] = "frequency"
    with pytest.raises(ConfigError):
        load_config(bad)
    bad = cfg()
    del bad["scan"]["kind"]
    with pytest.raises(ConfigError):
        load_config(bad)
    with pytest.raises(ConfigError):
        load_config({"pulse": BASE["pulse"]})  # scan section missing entirely


def test_grid_forms():
    explicit = cfg()
    explicit["scan"] = {"kind": "spectrum", "values_khz": [-10.0, 0.0, 5.0]}
    rc = load_config(explicit)
    np.testing.assert_array_equal(rc.grid, [-10.0, 0.0, 5.0])

    both = cfg()
    both["scan"] = {
        "kind": "spectrum", "values_khz": [1.0], "start_khz": 0.0,
        "stop_khz": 1.0, "step_khz": 1.0,
    }
    with pytest.raises(ConfigError):
        load_config(both)

    descending = cfg()
    descending["scan"] = {"kind": "spectrum", "values_khz": [5.0, 1.0]}
    with pytest.raises(ConfigError):
        load_config(descending)

    zero_step = cfg()
    zero_step["scan"] = {"kind": "spectrum", "start_khz": 0.0, "stop_khz": 1.0, "step_khz": 0.0}
    with pytest.raises(ConfigError):
        load_config(zero_step)


def test_grid_step_rounding():
    # 0.1 steps accumulate float error; count must come from rounding
    rc = load_config(
        cfg(scan={"kind": "spectrum", "start_khz": 0.0, "stop_khz": 1.0, "step_khz": 0.1})
    )
    assert len(rc.grid) == 11
    assert rc.grid[-1] == pytest.approx(1.0, abs=1e-12)


def test_booleans_are_not_numbers():
    bad = cfg()
    bad["thermal"]["p_max"] = True
    with pytest.raises(ConfigError):
        load_config(bad)
    bad = cfg(seed=True)
    with pytest.raises(ConfigError):
        load_config(bad)


def test_domain_invariants_surface_as_config_errors():
    bad = cfg()
    bad["thermal"]["delta_th_khz"] = -1.7
    with pytest.raises(ConfigError):
        load_config(bad)
    bad = cfg()
    bad["pulse"]["omega_max_khz"] = 0.0
    with pytest.raises(ConfigError):
        load_config(bad)


def test_transport_config():
    t = {
        "scan": {"kind": "transport", "inv_tau_per_ms": [0.05, 0.1, 1.0, 10.0]},
        "geometry": {
            "grad_nu_khz_per_um": 3.2, "guide_shift_nu_mhz": 9.8, "span_um": 300.0,
        },
        "transport": {
            "d_um": 132.0, "omega_r_khz": 26.0, "delta_0_khz": -72.0, "spread_khz": 32.0,
        },
    }
    rc = load_config(t)
    assert rc.kind == "transport"
    assert rc.transport.n_ensemble == 32
    assert rc.transport.readout == "dressed"
    np.testing.assert_array_equal(rc.grid, [0.05, 0.1, 1.0, 10.0])

    bad = copy.deepcopy(t)
    bad["scan"]["inv_tau_per_ms"] = [1.0, -2.0]
    with pytest.raises(ConfigError):
        load_config(bad)
    bad = copy.deepcopy(t)
    bad["transport"]["n_ensemble"] = 0
    with pytest.raises(ConfigError):
        load_config(bad)


def test_adiabaticity_config():
    a = {"scan": {"kind": "adiabaticity", "n_points": 101}, "pulse": BASE["pulse"]}
    rc = load_config(a)
    assert rc.kind == "adiabaticity"
    assert len(rc.grid) == 101
    # native abscissa is time in milliseconds across the pulse
    assert rc.grid[0] == 0.0 and rc.grid[-1] == pytest.approx(2.0)
    a["scan"]["n_points"] = 1
    with pytest.raises(ConfigError):
        load_config(a)


@pytest.mark.parametrize("method", ["quad", "grid"])
def test_convolution_method_key_is_rejected(method):
    # there is one convolution rule; the old selector is an unknown key
    with pytest.raises(ConfigError, match="unknown convolution keys"):
        load_config(cfg(convolution={"method": method}))


def test_optional_sections():
    rc = load_config(
        cfg(
            integrator={"rel_tol": 1e-8, "max_step_ms": 0.01},
            damping={"gamma_2_khz": 0.2},
            convolution={"renormalize": True},
            detection={"eps_pushout": 0.98, "eps_keep": 0.97, "p_init": 0.93},
            apply_detection=True,
            seed=7,
        )
    )
    assert rc.integrator.rel_tol == 1e-8
    assert rc.integrator.max_step == pytest.approx(1e-5)
    assert rc.damping.gamma_2 == pytest.approx(2.0 * np.pi * 200.0)
    assert rc.renormalize is True
    assert rc.detection.p_init == 0.93
    assert rc.apply_detection is True
    assert rc.seed == 7

    with pytest.raises(ConfigError):
        load_config(cfg(damping={"gamma_2_khz": -1.0}))
