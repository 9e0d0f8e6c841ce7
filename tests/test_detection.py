import numpy as np
import pytest

from apsim.config import load_config
from apsim.detection import DetectionModel, apply_detection
from apsim.errors import ConfigError


def test_perfect_detection_is_identity():
    ideal = DetectionModel(eps_pushout=1.0, eps_keep=1.0, p_init=1.0)
    p = np.linspace(0.0, 1.0, 11)
    np.testing.assert_allclose(apply_detection(p, ideal), p, atol=1e-15)


def test_anchor_points():
    det = DetectionModel(eps_pushout=0.99, eps_keep=0.99, p_init=0.95)
    # full transfer: survival limited by the kept-fraction and preparation
    assert apply_detection(1.0, det) == pytest.approx(
        det.p_init * det.eps_keep + (1 - det.p_init) * det.eps_keep
    )
    # no transfer: only pushout leakage and unprepared atoms survive
    assert apply_detection(0.0, det) == pytest.approx(
        det.p_init * (1 - det.eps_pushout) + (1 - det.p_init) * det.eps_keep
    )


def test_map_is_affine_with_documented_slope():
    det = DetectionModel(eps_pushout=0.97, eps_keep=0.98, p_init=0.93)
    p = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    out = apply_detection(p, det)
    slopes = np.diff(out) / np.diff(p)
    np.testing.assert_allclose(slopes, det.slope, rtol=1e-12)
    assert det.slope == pytest.approx(det.p_init * (det.eps_keep + det.eps_pushout - 1.0))


def test_contrast_compression():
    det = DetectionModel()
    out = apply_detection(np.array([0.0, 1.0]), det)
    # imperfect readout always compresses the contrast inside [0, 1]
    assert out[0] > 0.0
    assert out[1] < 1.0
    assert out[1] > out[0]


def test_scalar_in_scalar_out():
    val = apply_detection(0.5, DetectionModel())
    assert isinstance(val, float)


def test_probability_range_enforced():
    det = DetectionModel()
    with pytest.raises(ValueError):
        apply_detection(-0.01, det)
    with pytest.raises(ValueError):
        apply_detection(np.array([0.5, 1.01]), det)


def test_parameter_validation():
    with pytest.raises(ConfigError):
        DetectionModel(eps_pushout=1.2)
    with pytest.raises(ConfigError):
        DetectionModel(eps_keep=-0.1)
    with pytest.raises(ConfigError):
        DetectionModel(p_init=2.0)


def test_json_round_trip():
    # the config's detection section loads as the model of its fields,
    # which a config that maps its output holds
    det = DetectionModel(0.97, 0.96, 0.94)
    section = {"eps_pushout": 0.97, "eps_keep": 0.96, "p_init": 0.94}
    cfg = {"scan": {"kind": "spectrum", "values_khz": [0.0]},
           "pulse": {"kind": "ap", "omega_max_khz": 28.0, "delta_max_khz": 40.0,
                     "delta_c_khz": 0.0, "t_p_ms": 2.0},
           "thermal": {"delta_ls_max_khz": -11.0, "delta_th_khz": 1.7, "p_max": 0.95},
           "detection": section, "apply_detection": True}
    assert load_config(cfg).detection == det
    section["eps_pushout"] = "0.97"  # a numeric string is not a number
    with pytest.raises(ConfigError, match="must be a number"):
        load_config(cfg)
    section["eps_pushout"] = 0.97
    section["gain"] = 1.0
    with pytest.raises(ConfigError):
        load_config(cfg)
