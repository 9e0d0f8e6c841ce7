import math

import numpy as np
import pytest

from apsim.pulses import APPulse, PulseProgram, adiabaticity, max_adiabaticity
from apsim.config import load_config
from apsim.errors import ConfigError
from apsim.units import khz_to_rad_per_s, ms_to_s, rad_per_s_to_khz

from oracles import RectPulse, inverted


@pytest.fixture
def pulse() -> APPulse:
    return APPulse.from_khz(28.0, 40.0, 0.0, 2.0)


# ------------------------------------------------------------ shape

def test_envelope_boundary_and_peak(pulse):
    assert pulse.rabi(0.0) == 0.0
    assert pulse.rabi(pulse.t_p) == pytest.approx(0.0, abs=1e-6)
    assert pulse.rabi(pulse.t_p / 2) == pytest.approx(pulse.omega_max, rel=1e-12)
    # sin^2 envelope: quarter point sits at half maximum
    assert pulse.rabi(pulse.t_p / 4) == pytest.approx(pulse.omega_max / 2, rel=1e-12)


def test_detuning_sweep_endpoints_and_center(pulse):
    assert pulse.detuning(0.0) == pytest.approx(pulse.delta_c - pulse.delta_max, rel=1e-12)
    assert pulse.detuning(pulse.t_p) == pytest.approx(pulse.delta_c + pulse.delta_max, rel=1e-12)
    assert pulse.detuning(pulse.t_p / 2) == pytest.approx(pulse.delta_c, abs=1e-6)


def test_detuning_continuous_and_monotone(pulse):
    t = np.linspace(0.0, pulse.t_p, 20001)
    d = pulse.detuning(t)
    steps = np.diff(d)
    assert np.all(steps >= 0.0)
    # no jump anywhere near the midpoint sign change
    assert np.max(np.abs(steps)) < pulse.delta_max * 1e-2


def test_offresonant_center_shifts_sweep():
    p = APPulse.from_khz(28.0, 40.0, 7.0, 2.0)
    base = APPulse.from_khz(28.0, 40.0, 0.0, 2.0)
    t = np.linspace(0.0, p.t_p, 101)
    assert p.detuning(t) - base.detuning(t) == pytest.approx(
        np.full(101, p.delta_c), rel=1e-12
    )


def test_scalar_and_array_cal_conventions(pulse):
    assert np.shape(pulse.rabi(1e-3)) == ()
    out = pulse.detuning(np.array([0.0, 1e-3, 2e-3]))
    assert out.shape == (3,)


def test_validation():
    with pytest.raises(ValueError):
        APPulse.from_khz(0.0, 40.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        APPulse.from_khz(28.0, -1.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        APPulse.from_khz(28.0, 40.0, 0.0, 0.0)
    # omega_max pi / t_p overflows: the derivatives would be inf * sin(0)
    with pytest.raises(ValueError):
        APPulse.from_khz(28.0, 40.0, 0.0, 1e-300)


# ------------------------------------------------------------ derivatives

def _central_diff(f, t, h):
    return (f(t + h) - f(t - h)) / (2.0 * h)


@pytest.mark.parametrize("frac", [0.1, 0.27, 0.47, 0.5, 0.63, 0.9])
def test_rabi_dot_matches_finite_difference(pulse, frac):
    t = frac * pulse.t_p
    h = 1e-8 * pulse.t_p
    fd = _central_diff(pulse.rabi, t, h)
    scale = pulse.omega_max / pulse.t_p
    assert pulse.rabi_dot(t) == pytest.approx(fd, abs=1e-5 * scale)


@pytest.mark.parametrize("frac", [0.1, 0.27, 0.47, 0.63, 0.9])
def test_detuning_dot_matches_finite_difference(pulse, frac):
    # frac = 0.5 excluded: the square root in the sweep loses all precision
    # right at the midpoint, so a finite difference there is noise
    t = frac * pulse.t_p
    h = 1e-8 * pulse.t_p
    fd = _central_diff(pulse.detuning, t, h)
    scale = pulse.delta_max / pulse.t_p
    assert pulse.detuning_dot(t) == pytest.approx(fd, abs=1e-5 * scale)


def test_detuning_dot_midpoint_closed_form(pulse):
    expect = math.sqrt(2.0) * math.pi * pulse.delta_max / pulse.t_p
    assert pulse.detuning_dot(pulse.t_p / 2) == pytest.approx(expect, rel=1e-12)


def test_sweep_rate_vanishes_at_pulse_ends(pulse):
    # the sweep flattens where the envelope dies; no endpoint blowup
    assert pulse.detuning_dot(0.0) == 0.0
    assert pulse.detuning_dot(pulse.t_p) == pytest.approx(0.0, abs=1e-6)


# ------------------------------------------------------------ adiabaticity

def test_max_adiabaticity_matches_closed_form(pulse):
    # the maximum sits at the sweep midpoint where the expression reduces
    # to sqrt(2) pi delta_max / (2 t_p omega_max^2)
    closed = math.sqrt(2.0) * math.pi * pulse.delta_max / (2.0 * pulse.t_p * pulse.omega_max**2)
    assert max_adiabaticity(pulse, 1_000_000) == pytest.approx(closed, rel=1e-9)


def test_max_adiabaticity_frozen_values(pulse):
    assert max_adiabaticity(pulse) == pytest.approx(9.019214676610e-03, rel=1e-9)
    detuned = APPulse.from_khz(28.0, 40.0, 100.0, 2.0)
    assert max_adiabaticity(detuned) == pytest.approx(7.664298638774e-04, rel=1e-9)
    # well below one even with the carrier far off resonance
    assert max_adiabaticity(detuned) < 1.0


def test_adiabaticity_infinite_on_zero_gap():
    # carrier at the sweep edge: drive and detuning both vanish at t = 0
    p = APPulse.from_khz(28.0, 40.0, 40.0, 2.0)
    assert adiabaticity(0.0, p) == np.inf
    assert np.isfinite(max_adiabaticity(p))


def test_adiabaticity_checks_range_and_takes_the_shape_of_t(pulse):
    with pytest.raises(ValueError):
        adiabaticity(-1e-9, pulse)
    with pytest.raises(ValueError):
        adiabaticity(np.array([0.0, pulse.t_p * (1 + 1e-9)]), pulse)
    assert np.shape(adiabaticity(0.5e-3, pulse)) == ()
    assert adiabaticity(np.linspace(0.0, pulse.t_p, 5), pulse).shape == (5,)


def test_adiabaticity_scaling_with_duration(pulse):
    # twice the time, half the peak demand
    slower = APPulse(pulse.omega_max, pulse.delta_max, pulse.delta_c, 2 * pulse.t_p)
    assert max_adiabaticity(slower, 100_000) == pytest.approx(
        max_adiabaticity(pulse, 100_000) / 2.0, rel=1e-6
    )


# ------------------------------------------------------------ other programs

def test_rect_pulse_constant():
    # the test oracle: a constant drive returns its constants
    p = RectPulse(khz_to_rad_per_s(14.0), khz_to_rad_per_s(-3.0), 0.5e-3)
    t = np.linspace(0.0, p.t_p, 7)
    assert np.all(p.rabi(t) == p.omega)
    assert np.all(p.detuning(t) == p.delta)


def test_protocol_runtime_check(pulse):
    for p in (pulse, RectPulse(1.0, 0.0, 1.0), inverted(pulse)):
        assert isinstance(p, PulseProgram)


# ------------------------------------------------------------ transforms

def test_inverted_negates_both_fields(pulse):
    inv = inverted(pulse)
    t = np.linspace(0.0, pulse.t_p, 11)
    assert inv.rabi(t) == pytest.approx(-pulse.rabi(pulse.t_p - t), rel=1e-12)
    assert inv.detuning(t) == pytest.approx(-pulse.detuning(pulse.t_p - t), rel=1e-12)


# ------------------------------------------------------------ serialization

# the config reads pulse sections; "ap" is the one kind

def _load(section: dict):
    return load_config({"scan": {"kind": "adiabaticity", "n_points": 2}, "pulse": section}).pulse


def test_json_round_trip_ap(pulse):
    again = _load({
        "kind": "ap",
        "omega_max_khz": rad_per_s_to_khz(pulse.omega_max),
        "delta_max_khz": rad_per_s_to_khz(pulse.delta_max),
        "delta_c_khz": rad_per_s_to_khz(pulse.delta_c),
        "t_p_ms": pulse.t_p / ms_to_s(1.0),
    })
    assert isinstance(again, APPulse)
    assert again.omega_max == pytest.approx(pulse.omega_max, rel=1e-15)
    assert again.delta_max == pytest.approx(pulse.delta_max, rel=1e-15)
    assert again.t_p == pytest.approx(pulse.t_p, rel=1e-15)


def test_json_rejects_unknown_kind_and_keys():
    for kind in ("chirp", "rect", "tabulated", None):
        with pytest.raises(ConfigError, match="pulse.kind must be 'ap'"):
            _load({"kind": kind, "omega_khz": 14.0, "delta_khz": -3.0, "t_p_ms": 0.5})
    d = {"kind": "ap", "omega_max_khz": 28.0, "delta_max_khz": 40.0, "delta_c_khz": 0.0,
         "t_p_ms": 2.0}
    with pytest.raises(ConfigError):
        _load({**d, "typo": 1.0})
    del d["t_p_ms"]
    with pytest.raises(ConfigError):
        _load(d)
    with pytest.raises(ConfigError):
        _load({**d, "t_p_ms": "1"})
