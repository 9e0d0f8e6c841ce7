import math
from dataclasses import replace

import numpy as np
import pytest

from apsim.addressing import TrapGeometry
from apsim.bloch import evolve_offsets
from apsim.errors import ConfigError
from apsim.pulses import PulseProgram
from apsim.scan import TRANSPORT_UNIT
from apsim.transport import (
    TransportPlan,
    TransportPulse,
    _draw_delta_r,
    dressed_projection,
    interaction_width,
    landau_zener_oracle,
    transport_curve,
    transport_transfer,
)
from apsim.units import khz_to_rad_per_s, rad_per_s_to_khz

from oracles import LinearSweepPulse, RampedTransportPulse, RectPulse, dressed_ground


def transfer(plan, rng_seed, **fields):
    """transport_transfer over the members drawn from rng_seed, of the plan
    with the given fields replaced."""
    plan = replace(plan, **fields)
    return transport_transfer(plan, _draw_delta_r(plan, rng_seed))


@pytest.fixture
def geometry() -> TrapGeometry:
    return TrapGeometry(grad_nu=3.2, span=300.0)


@pytest.fixture
def plan(geometry) -> TransportPlan:
    return TransportPlan(
        d=132.0,
        omega_r=khz_to_rad_per_s(26.0),
        delta_0=khz_to_rad_per_s(-72.0),
        spread=khz_to_rad_per_s(32.0),
        g=geometry,
    )


# ------------------------------------------------------------ plan and chirp

def test_plan_validation(geometry):
    kw = dict(d=132.0, omega_r=1.0, delta_0=0.0, spread=0.0, g=geometry)
    assert TransportPlan(**kw).tau == 1e-3
    for bad in (dict(d=0.0), dict(tau=-1.0), dict(omega_r=0.0), dict(spread=-1.0),
                dict(n_ensemble=0), dict(n_ensemble=2**16 + 1)):
        with pytest.raises(ConfigError):
            TransportPlan(**{**kw, **bad})


def test_total_sweep_is_distance_times_gradient(plan):
    # 132 um at 3.2 kHz/um: the full chirp spans 422.4 kHz regardless of tau
    pulse = TransportPulse(plan)
    total = pulse.detuning(plan.tau) - pulse.detuning(0.0)
    assert rad_per_s_to_khz(total) == pytest.approx(422.4, rel=1e-12)
    faster = replace(plan, tau=plan.tau / 7.0)
    total_fast = TransportPulse(faster).detuning(faster.tau)
    assert total_fast == pytest.approx(total, rel=1e-12)


def test_chirp_shape(plan):
    # accelerate-decelerate move: halfway in time covers half the sweep,
    # quarter covers one eighth (x = a t^2 / 2 with a = 4 d / tau^2)
    pulse = TransportPulse(plan)
    total = pulse.detuning(plan.tau)
    assert pulse.detuning(plan.tau / 2) == pytest.approx(total / 2, rel=1e-12)
    assert pulse.detuning(plan.tau / 4) == pytest.approx(total / 8, rel=1e-12)
    assert pulse.detuning(0.0) == 0.0


def test_chirp_continuous_and_monotone(plan):
    t = np.linspace(0.0, plan.tau, 4001)
    d = TransportPulse(plan).detuning(t)
    steps = np.diff(d)
    assert np.all(steps >= 0.0)
    assert np.max(steps) < khz_to_rad_per_s(1.0)


def test_transport_pulse_is_pulse_program(plan):
    pulse = TransportPulse(plan)
    assert isinstance(pulse, PulseProgram)
    assert pulse.duration == plan.tau
    assert pulse.rabi(plan.tau / 3) == plan.omega_r
    # rate peaks at the handover between acceleration and deceleration,
    # which the middle one of 101 equal intervals contains
    rates = np.diff(pulse.detuning(np.linspace(0.0, plan.tau, 102)))
    assert np.argmax(rates) == 50


def test_pulse_detuning_crosses_resonance_once(plan):
    # the member's initial detuning is its offset, added to the chirp
    pulse = TransportPulse(plan)
    t = np.linspace(0.0, plan.tau, 2001)
    sign = np.sign(khz_to_rad_per_s(-72.0) + pulse.detuning(t))
    flips = np.count_nonzero(np.diff(sign))
    assert flips == 1


# ------------------------------------------------------------ interaction width

def test_interaction_width_value(plan):
    # 2 * 26 kHz / (3.2 kHz/um) = 16.25 um
    assert interaction_width(plan) == pytest.approx(16.25, rel=1e-12)


def test_interaction_width_scales_linearly(plan):
    import dataclasses

    doubled = dataclasses.replace(plan, omega_r=2 * plan.omega_r)
    assert interaction_width(doubled) == pytest.approx(2 * interaction_width(plan))
    steeper = dataclasses.replace(
        plan, g=TrapGeometry(grad_nu=6.4, span=300.0)
    )
    assert interaction_width(steeper) == pytest.approx(interaction_width(plan) / 2)


# ------------------------------------------------------------ dressed frame

def test_dressed_projection_consistency():
    # the dressed ground state has unit overlap with its own torque axis
    assert dressed_projection(dressed_ground(2.0, 1.5), 2.0, 1.5) == pytest.approx(1.0, rel=1e-12)
    # far from resonance the dressed readout is the bare one, row by row
    arr = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    np.testing.assert_allclose(dressed_projection(arr, 1.0, 1e9), [1.0, 0.0], atol=1e-9)


def test_dressed_initialization_is_stationary(plan):
    # without the sweep the dressed state must not evolve: run a constant
    # drive at the initial detuning and check the projection stays at 1
    delta = khz_to_rad_per_s(-72.0)
    pulse = RectPulse(plan.omega_r, delta, 0.5e-3)
    final = evolve_offsets(pulse, [0.0], dressed_ground(plan.omega_r, delta))
    assert dressed_projection(final, plan.omega_r, delta) == pytest.approx([1.0], abs=1e-9)


# ------------------------------------------------------------ ensemble transfer

def test_slow_transport_is_complete(plan):
    p1, stderr = transfer(plan, 0, tau=5e-3, n_ensemble=8)
    assert p1 > 0.999
    assert stderr < 0.01


def test_ensemble_of_one_matches_direct_integration(plan):
    p1, stderr = transfer(plan, 3, n_ensemble=1)
    assert stderr == 0.0
    # reproduce the single member by hand: same draw, same dynamics
    draw = _draw_delta_r(replace(plan, n_ensemble=1), 3)[0]
    pulse = TransportPulse(plan)
    final = evolve_offsets(pulse, [draw], dressed_ground(plan.omega_r, draw))
    end = draw + pulse.detuning(plan.tau)
    want = dressed_projection(final, plan.omega_r, end)
    assert p1 == pytest.approx(want[0], abs=1e-9)


def test_transfer_deterministic_for_seed(plan):
    a = transfer(plan, 11, n_ensemble=6)
    b = transfer(plan, 11, n_ensemble=6)
    assert a == b
    c = transfer(plan, 12, n_ensemble=6)
    assert c[0] != a[0]


def test_member_draws_stable_under_ensemble_growth(plan):
    # member i's detuning draw depends only on (seed, i), so growing the
    # ensemble extends the list without reshuffling earlier members
    small = _draw_delta_r(replace(plan, n_ensemble=4), 5)
    large = _draw_delta_r(replace(plan, n_ensemble=8), 5)
    np.testing.assert_array_equal(large[:4], small)


def test_draw_distributions(plan):
    uni = _draw_delta_r(replace(plan, n_ensemble=4000), 1)
    half = plan.spread / 2
    assert np.all(uni >= plan.delta_0 - half) and np.all(uni <= plan.delta_0 + half)


def test_ramped_switch_on_agrees_with_dressed_start(plan):
    # a sufficiently slow real switch-on, a sin^2 ramp of the drive from
    # the bare ground state, reproduces the ideal dressed start
    slow = replace(plan, tau=2e-3, n_ensemble=4)
    draws = _draw_delta_r(slow, 2)
    ramped = evolve_offsets(RampedTransportPulse(slow, 1e-3), draws)
    end = draws + TransportPulse(slow).detuning(slow.tau)
    p1 = np.mean(dressed_projection(ramped, slow.omega_r, end))
    assert p1 == pytest.approx(transport_transfer(slow, draws)[0], abs=0.005)


def test_ramped_pulse_holds_detuning_during_the_ramp(plan):
    # the oracle's switch-on: the drive rises as sin^2 while the detuning
    # waits at its start, then the move runs as TransportPulse(plan)
    ramped = RampedTransportPulse(plan, 0.5e-3)
    assert ramped.duration == plan.tau + 0.5e-3
    t = np.array([0.0, 0.25e-3, 0.5e-3, 1.0e-3])
    np.testing.assert_allclose(ramped.rabi(t), plan.omega_r * np.array([0.0, 0.5, 1.0, 1.0]),
                               atol=1e-9 * plan.omega_r)
    np.testing.assert_array_equal(ramped.detuning(t[:3]), 0.0)
    assert ramped.detuning(1.0e-3) == TransportPulse(plan).detuning(0.5e-3)


def test_bare_readout_close_for_far_final_detuning(plan):
    # final detuning ~350 kHz >> 26 kHz drive: the bare readout (1 + w)/2
    # nearly agrees with the dressed projection the model reads
    slow = replace(plan, tau=5e-3, n_ensemble=4)
    draws = _draw_delta_r(slow, 0)
    pulse = TransportPulse(slow)
    starts = np.array([dressed_ground(slow.omega_r, d) for d in draws])
    final = evolve_offsets(pulse, draws, starts)
    dressed = np.mean(dressed_projection(final, slow.omega_r, draws + pulse.detuning(slow.tau)))
    bare = np.mean(0.5 * (1.0 + final[:, 2]))
    assert dressed == pytest.approx(transport_transfer(slow, draws)[0], abs=1e-12)
    assert bare == pytest.approx(dressed, abs=0.01)


# ------------------------------------------------------------ speed curve

def test_transport_curve_layout_and_monotony(plan):
    grid = np.array([0.2, 2.0, 8.0])
    scan = transport_curve(replace(plan, n_ensemble=6), grid, rng_seed=0)
    assert scan.unit == TRANSPORT_UNIT
    np.testing.assert_array_equal(scan.abscissa, grid)
    assert len(scan) == 3
    # faster transport, less adiabatic
    assert scan.p1[0] > scan.p1[1] > scan.p1[2]
    assert np.all(scan.stderr >= 0.0)


@pytest.mark.parametrize("kwargs", [{}, {"spread": 0.0}])
def test_curve_points_equal_single_transfers(plan, kwargs):
    # the curve draws its members once; each point is still the transfer
    # that draws them itself, bit for bit, also when every member has the
    # same detuning
    grid = [2.0, 8.0]
    plan = replace(plan, n_ensemble=5, **kwargs)
    scan = transport_curve(plan, grid, rng_seed=4)
    for inv_tau, p1, stderr in zip(grid, scan.p1, scan.stderr):
        assert transfer(plan, 4, tau=1e-3 / inv_tau) == (p1, stderr)


def test_transport_curve_validation(plan):
    with pytest.raises(ConfigError):
        transport_curve(plan, [])
    with pytest.raises(ConfigError):
        transport_curve(plan, [0.0, 1.0])


# ------------------------------------------------------------ analytic crossing

def test_landau_zener_oracle_algebra():
    # infinitely fast sweep transfers nothing
    assert landau_zener_oracle(1.0, 1e12) == pytest.approx(0.0, abs=1e-9)
    # coupling chosen so the exponent is ln 2 gives exactly one half
    rate = 1.0e9
    omega = math.sqrt(2.0 * rate * math.log(2.0) / math.pi)
    assert landau_zener_oracle(omega, rate) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(ValueError):
        landau_zener_oracle(1.0, 0.0)


def test_linear_sweep_matches_oracle():
    # moderately adiabatic single crossing vs the analytic formula
    omega = khz_to_rad_per_s(5.0)
    rate = (2.0 * math.pi) * 1.0e9  # rad/s per s, knee region for 5 kHz
    span = 40.0 * max(omega, math.sqrt(rate))
    duration = span / rate
    pulse = LinearSweepPulse(omega, rate, duration)
    final = evolve_offsets(pulse, [0.0], dressed_ground(omega, pulse.detuning(0.0)))
    got = dressed_projection(final[0], omega, pulse.detuning(duration))
    assert got == pytest.approx(landau_zener_oracle(omega, rate), abs=0.01)

