import numpy as np
import pytest

from apsim.addressing import (
    AtomPosition,
    PlateauMetrics,
    TrapGeometry,
    crosstalk,
    detuning_to_offset,
    offset_to_detuning,
    plateau_metrics,
    spatial_spectrum,
)
from apsim.bloch import detuning_spectrum
from apsim.errors import ConfigError
from apsim.pulses import APPulse
from apsim.thermal import broadened_spectrum
from apsim.units import khz_to_rad_per_s, rad_per_s_to_khz


@pytest.fixture
def geometry() -> TrapGeometry:
    return TrapGeometry(grad_nu=3.2, guide_shift_nu=9.8, span=300.0)


# ------------------------------------------------------------ unit map

def test_offset_to_detuning_examples(geometry):
    assert rad_per_s_to_khz(offset_to_detuning(1.0, geometry)) == pytest.approx(3.2)
    assert rad_per_s_to_khz(offset_to_detuning(-10.0, geometry)) == pytest.approx(-32.0)


def test_unit_map_round_trip(geometry):
    dx = np.array([-140.0, -3.7, 0.0, 55.5, 149.0])
    back = detuning_to_offset(offset_to_detuning(dx, geometry), geometry)
    np.testing.assert_allclose(back, dx, rtol=1e-12, atol=1e-12)


def test_geometry_validation():
    with pytest.raises(ConfigError):
        TrapGeometry(grad_nu=0.0, guide_shift_nu=9.8, span=300.0)
    with pytest.raises(ConfigError):
        TrapGeometry(grad_nu=3.2, guide_shift_nu=9.8, span=-1.0)
    with pytest.raises(ConfigError):
        TrapGeometry(grad_nu=3.2, guide_shift_nu=np.inf, span=300.0)
    with pytest.raises(ConfigError):
        TrapGeometry(grad_nu=np.inf, guide_shift_nu=9.8, span=300.0)
    with pytest.raises(ConfigError):
        TrapGeometry(grad_nu=3.2, guide_shift_nu=9.8, span=np.inf)


def test_geometry_json_round_trip(geometry):
    again = TrapGeometry.from_json_dict(geometry.to_json_dict())
    assert again == geometry
    bad = geometry.to_json_dict()
    del bad["span_um"]
    with pytest.raises(ConfigError):
        TrapGeometry.from_json_dict(bad)


# ------------------------------------------------------------ spatial scans

def test_spatial_spectrum_is_detuning_spectrum_in_disguise(
    ref_pulse, ref_thermal, geometry
):
    dx = np.array([-8.0, -2.0, 0.0, 3.0, 9.0])
    scan = spatial_spectrum(ref_pulse, geometry, ref_thermal, dx)
    direct = broadened_spectrum(
        ref_pulse, ref_thermal, offset_to_detuning(dx, geometry)
    )
    np.testing.assert_allclose(scan.p1, direct, atol=1e-9)
    assert scan.unit == "um"
    assert scan.stderr is None
    np.testing.assert_array_equal(scan.abscissa, dx)


def test_spatial_spectrum_rejects_empty_grid(ref_pulse, ref_thermal, geometry):
    with pytest.raises(ConfigError):
        spatial_spectrum(ref_pulse, geometry, ref_thermal, [])


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

def test_crosstalk_on_target_is_high(ref_pulse, ref_thermal, geometry):
    on_site = crosstalk(ref_pulse, 10.0, 10.0, geometry, ref_thermal)
    assert on_site > 0.85


def test_crosstalk_far_neighbor_negligible(ref_pulse, ref_thermal, geometry):
    # 30 um at 3.2 kHz/um puts the neighbor 96 kHz away, far past the sweep
    far = crosstalk(ref_pulse, 0.0, 30.0, geometry, ref_thermal)
    assert far < 0.01
    also_far = crosstalk(ref_pulse, 0.0, -30.0, geometry, ref_thermal)
    assert also_far < 0.01


def test_crosstalk_translation_covariance(ref_pulse, ref_thermal, geometry):
    # only the target-neighbor separation matters; dyadic shifts keep the
    # floating-point difference bit-exact, so the values must match exactly
    base = crosstalk(ref_pulse, 4.0, 16.0, geometry, ref_thermal)
    for shift in (13.0 / 32.0, -7.0 / 32.0, 25.0):
        moved = crosstalk(
            ref_pulse, 4.0 + shift, 16.0 + shift, geometry, ref_thermal
        )
        assert moved == base


def test_crosstalk_accepts_atom_positions(ref_pulse, ref_thermal, geometry):
    a = crosstalk(ref_pulse, AtomPosition(0.0), AtomPosition(30.0), geometry, ref_thermal)
    b = crosstalk(ref_pulse, 0.0, 30.0, geometry, ref_thermal)
    assert a == b


def test_crosstalk_rejects_positions_outside_span(ref_pulse, ref_thermal, geometry):
    with pytest.raises(ConfigError):
        crosstalk(ref_pulse, 0.0, 151.0, geometry, ref_thermal)
    with pytest.raises(ConfigError):
        crosstalk(ref_pulse, -200.0, 0.0, geometry, ref_thermal)


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
