import numpy as np
import pytest

from apsim.addressing import (
    PlateauMetrics,
    crosstalk,
    offset_to_detuning,
    plateau_metrics,
)
from apsim.bloch import detuning_spectrum
from apsim.cli import run_scan
from apsim.config import RunConfig, load_config
from apsim.errors import ConfigError
from apsim.pulses import APPulse
from apsim.thermal import broadened_spectrum
from apsim.units import khz_to_rad_per_s, rad_per_s_to_khz


@pytest.fixture
def grad() -> float:
    """The presets' gradient, 3.2 kHz per um, in rad/s per um."""
    return khz_to_rad_per_s(3.2)


# ------------------------------------------------------------ unit map

def test_offset_to_detuning_examples(grad):
    assert rad_per_s_to_khz(offset_to_detuning(1.0, grad)) == pytest.approx(3.2)
    assert rad_per_s_to_khz(offset_to_detuning(-10.0, grad)) == pytest.approx(-32.0)


def test_unit_map_round_trip(grad):
    dx = np.array([-140.0, -3.7, 0.0, 55.5, 149.0])
    back = rad_per_s_to_khz(offset_to_detuning(dx, grad)) / 3.2
    np.testing.assert_allclose(back, dx, rtol=1e-12, atol=1e-12)


def _transport_config(section: dict) -> dict:
    return {
        "scan": {"kind": "transport", "inv_tau_per_ms": [1.0]},
        "geometry": section,
        "transport": {"d_um": 132.0, "omega_r_khz": 26.0, "delta_0_khz": -72.0,
                      "spread_khz": 32.0},
    }


def test_geometry_validation():
    # one rule, in rad/s per um: 1e308 kHz per um overflows there
    for bad in (0.0, -3.2, np.inf, np.nan, 1e308):
        with pytest.raises(ConfigError, match="must be positive and finite in rad/s per um"):
            load_config(_transport_config({"grad_nu_khz_per_um": bad}))


def test_geometry_json_round_trip(grad):
    # the config's geometry section is its one gradient, which the config
    # and the transport plan hold in rad/s per um
    section = {"grad_nu_khz_per_um": 3.2}
    rc = load_config(_transport_config(section))
    assert rc.grad == grad
    assert rc.transport.grad == grad
    with pytest.raises(ConfigError, match=r"unknown geometry keys: \['span_um'\]"):
        load_config(_transport_config({**section, "span_um": 300.0}))
    with pytest.raises(ConfigError, match="missing geometry keys"):
        load_config(_transport_config({}))


# ------------------------------------------------------------ spatial scans

def test_spatial_scan_is_spectrum_scan_in_disguise(ref_pulse, ref_thermal, grad):
    # the spatial grid maps to central detunings by the gradient, and the
    # scan is the spectrum scan at those detunings
    dx = np.array([-8.0, -2.0, 0.0, 3.0, 9.0])
    spatial = RunConfig("spatial", dx, pulse=ref_pulse, grad=grad, thermal=ref_thermal)
    np.testing.assert_array_equal(spatial.detunings, offset_to_detuning(dx, grad))
    scan = run_scan(spatial)
    direct = broadened_spectrum(ref_pulse, ref_thermal, offset_to_detuning(dx, grad))
    np.testing.assert_array_equal(scan.p1, direct)
    assert scan.unit == "um"
    assert scan.stderr is None
    np.testing.assert_array_equal(scan.abscissa, dx)
    khz = rad_per_s_to_khz(offset_to_detuning(dx, grad))
    spectrum = run_scan(RunConfig("spectrum", khz, pulse=ref_pulse, thermal=ref_thermal))
    assert spectrum.unit == "khz"
    np.testing.assert_allclose(spectrum.p1, scan.p1, atol=1e-9)


def test_spatial_scan_rejects_empty_grid():
    raw = {"scan": {"kind": "spatial", "values_um": []},
           "pulse": {"kind": "ap", "omega_max_khz": 28.0, "delta_max_khz": 40.0,
                     "delta_c_khz": 0.0, "t_p_ms": 2.0},
           "thermal": {"delta_ls_max_khz": -11.0, "delta_th_khz": 1.7, "p_max": 0.95},
           "geometry": {"grad_nu_khz_per_um": 3.2}}
    with pytest.raises(ConfigError, match="must be a non-empty list"):
        load_config(raw)


def test_plateau_width_tracks_sweep_span(ref_pulse):
    # doubling the sweep span widens the half-maximum plateau by about
    # twice the added span; the soft shoulders contribute the same amount
    # on both curves and cancel in the difference
    grid = khz_to_rad_per_s(np.linspace(-55.0, 55.0, 221))
    wide = detuning_spectrum(ref_pulse, grid)
    narrow_pulse = APPulse(
        ref_pulse.omega_max, ref_pulse.delta_max / 2, ref_pulse.delta_c, ref_pulse.t_p
    )
    narrow = detuning_spectrum(narrow_pulse, grid)
    x_khz = rad_per_s_to_khz(grid)
    m_wide = plateau_metrics(x_khz, wide, 0.5, 0.1)
    m_narrow = plateau_metrics(x_khz, narrow, 0.5, 0.1)
    added = rad_per_s_to_khz(ref_pulse.delta_max)  # delta_max - delta_max / 2
    assert m_wide.plateau_width - m_narrow.plateau_width == pytest.approx(added, abs=4.0)


# ------------------------------------------------------------ crosstalk

def test_crosstalk_on_target_is_high(ref_pulse, ref_thermal, grad):
    on_site = crosstalk(ref_pulse, 10.0, 10.0, grad, ref_thermal)
    assert on_site > 0.85


def test_crosstalk_far_neighbor_negligible(ref_pulse, ref_thermal, grad):
    # 30 um at 3.2 kHz/um puts the neighbor 96 kHz away, far past the sweep
    far = crosstalk(ref_pulse, 0.0, 30.0, grad, ref_thermal)
    assert far < 0.01
    also_far = crosstalk(ref_pulse, 0.0, -30.0, grad, ref_thermal)
    assert also_far < 0.01


def test_crosstalk_translation_covariance(ref_pulse, ref_thermal, grad):
    # only the target-neighbor separation matters; dyadic shifts keep the
    # floating-point difference bit-exact, so the values must match exactly
    base = crosstalk(ref_pulse, 4.0, 16.0, grad, ref_thermal)
    for shift in (13.0 / 32.0, -7.0 / 32.0, 25.0):
        moved = crosstalk(
            ref_pulse, 4.0 + shift, 16.0 + shift, grad, ref_thermal
        )
        assert moved == base


def test_crosstalk_accepts_atom_positions(ref_pulse, ref_thermal, grad):
    # positions are numbers in um: ints and numpy scalars read as floats
    a = crosstalk(ref_pulse, np.float32(0.0), 30, grad, ref_thermal)
    b = crosstalk(ref_pulse, 0.0, 30.0, grad, ref_thermal)
    assert a == b


# ------------------------------------------------------------ plateau metrology

def _trapezoid(x, top, flat_half, foot_half):
    # symmetric trapezoid: flat at `top` within +-flat_half, linear to zero
    # at +-foot_half
    y = np.clip((foot_half - np.abs(x)) / (foot_half - flat_half), 0.0, 1.0)
    return top * y


def test_plateau_metrics_on_synthetic_trapezoid():
    x = np.linspace(-30.0, 30.0, 6001)
    y = _trapezoid(x, top=1.0, flat_half=10.0, foot_half=20.0)
    m = plateau_metrics(x, y, 0.9, 0.1)
    # crossing of level L sits at foot_half - L * (foot_half - flat_half)
    assert m.hi_right == pytest.approx(11.0, abs=1e-2)
    assert m.hi_left == pytest.approx(-11.0, abs=1e-2)
    assert m.lo_right == pytest.approx(19.0, abs=1e-2)
    assert m.plateau_width == pytest.approx(22.0, abs=2e-2)
    assert m.left_edge_width == pytest.approx(8.0, abs=2e-2)
    assert m.right_edge_width == pytest.approx(8.0, abs=2e-2)


def test_plateau_metrics_interpolates_between_samples():
    x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    y = np.array([0.0, 1.0, 1.0, 1.0, 0.0])
    m = plateau_metrics(x, y, 0.5, 0.25)
    assert m.hi_left == pytest.approx(0.5)
    assert m.hi_right == pytest.approx(3.5)
    assert m.lo_right == pytest.approx(3.75)


def test_plateau_metrics_failure_modes():
    x = np.linspace(-1.0, 1.0, 101)
    low = 0.3 * np.exp(-(x**2))
    with pytest.raises(ValueError):
        plateau_metrics(x, low, 0.9, 0.1)  # never reaches the level
    flat_top = np.full_like(x, 0.95)
    with pytest.raises(ValueError):
        plateau_metrics(x, flat_top, 0.9, 0.1)  # never falls off inside grid
    with pytest.raises(ValueError):
        plateau_metrics(x[::-1], low, 0.9, 0.1)  # decreasing abscissa
    with pytest.raises(ValueError):
        plateau_metrics(x, low, 0.1, 0.9)  # levels swapped


def test_plateau_metrics_derived_quantities():
    m = PlateauMetrics(0.9, 0.1, -5.0, 5.0, -8.0, 9.0)
    assert m.plateau_width == 10.0
    assert m.left_edge_width == 3.0
    assert m.right_edge_width == 4.0
