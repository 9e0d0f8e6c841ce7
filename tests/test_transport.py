import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import apsim.bloch as bloch
import apsim.transport as transport
from apsim.bloch import evolve_offsets
from apsim.errors import ConfigError
from apsim.presets import preset_config
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

from oracles import (
    LinearSweepPulse,
    RampedTransportPulse,
    RectPulse,
    dressed_ground,
    gauss_legendre_transport_mean,
)


def transfer(plan, rng_seed, **fields):
    """(p1, stderr) of transport_transfer at the plan's own tau, over the
    members drawn from rng_seed, of the plan with the given fields
    replaced."""
    plan = replace(plan, **fields)
    p1, stderr, _ = transport_transfer(plan, _draw_delta_r(plan, rng_seed), [plan.tau])
    return float(p1[0]), float(stderr[0])


# the presets' gradient, 3.2 kHz per um, in rad/s per um
GRAD = khz_to_rad_per_s(3.2)


@pytest.fixture
def plan() -> TransportPlan:
    return TransportPlan(
        d=132.0,
        omega_r=khz_to_rad_per_s(26.0),
        delta_0=khz_to_rad_per_s(-72.0),
        spread=khz_to_rad_per_s(32.0),
        grad=GRAD,
    )


# ------------------------------------------------------------ plan and chirp

def test_plan_validation():
    kw = dict(d=132.0, omega_r=1.0, delta_0=0.0, spread=0.0, grad=GRAD)
    assert TransportPlan(**kw).tau == 1e-3
    for bad in (dict(d=0.0), dict(tau=-1.0), dict(omega_r=0.0), dict(spread=-1.0),
                dict(n_ensemble=0), dict(n_ensemble=2**16 + 1),
                dict(grad=0.0), dict(grad=np.inf), dict(grad=np.nan)):
        with pytest.raises(ConfigError):
            TransportPlan(**{**kw, **bad})
    # a non-finite value is refused where the plan is made, not later as a
    # NaN torque in the propagator
    for bad in (dict(spread=np.inf), dict(omega_r=np.inf), dict(delta_0=np.nan),
                dict(delta_0=np.inf)):
        with pytest.raises(ConfigError, match="must be finite"):
            TransportPlan(**{**kw, **bad})


def test_plan_from_khz_is_the_config_plan(plan):
    # the config's transport section loads through from_khz
    assert TransportPlan.from_khz(132.0, 26.0, -72.0, 32.0, GRAD) == plan
    assert preset_config("transport_speed").transport == plan


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
    steeper = dataclasses.replace(plan, grad=2 * plan.grad)
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


def test_draw_seed_is_a_non_negative_integer(plan):
    # as numpy's SeedSequence takes it: any integer type, never a float
    # or a negative number
    np.testing.assert_array_equal(_draw_delta_r(plan, np.uint64(5)), _draw_delta_r(plan, 5))
    with pytest.raises(ValueError, match="non-negative"):
        _draw_delta_r(plan, -1)
    with pytest.raises(TypeError):
        _draw_delta_r(plan, 5.0)


def test_draw_distributions(plan):
    uni = _draw_delta_r(replace(plan, n_ensemble=4000), 1)
    half = plan.spread / 2
    assert np.all(uni >= plan.delta_0 - half) and np.all(uni <= plan.delta_0 + half)


def _numpy_draws(plan, seed, members):
    """Member detunings from numpy's own SeedSequence and PCG64, the oracle
    of the package's in-package generator."""
    from numpy.random import SeedSequence, default_rng

    u = [default_rng(SeedSequence(entropy=seed, spawn_key=(i,))).uniform() for i in members]
    return np.array([plan.delta_0 + plan.spread * (x - 0.5) for x in u])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 10**400), n=st.integers(1, 64))
@example(seed=0, n=1)
@example(seed=2**96 - 1, n=64)  # three words, padded to the pool's four
@example(seed=2**128 - 1, n=64)  # four words, none left after the pool
def test_draws_equal_numpy_substreams(seed, n):
    # seeds from one 32-bit word to 42 (multi-word entropy), bit for bit
    plan = TransportPlan(d=132.0, omega_r=1.0, delta_0=khz_to_rad_per_s(-72.0),
                         spread=khz_to_rad_per_s(32.0), grad=GRAD,
                         n_ensemble=n)
    np.testing.assert_array_equal(_draw_delta_r(plan, seed), _numpy_draws(plan, seed, range(n)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", [0, 9, 2**32, 10**400], ids=["0", "9", "2^32", "10^400"])
def test_draws_equal_numpy_substreams_at_the_cap(plan, seed):
    members = [0, 1, 2**15, 2**16 - 1]
    draws = _draw_delta_r(replace(plan, n_ensemble=2**16), seed)
    np.testing.assert_array_equal(draws[members], _numpy_draws(plan, seed, members))


def test_ramped_switch_on_agrees_with_dressed_start(plan):
    # a sufficiently slow real switch-on, a sin^2 ramp of the drive from
    # the bare ground state, reproduces the ideal dressed start
    slow = replace(plan, tau=2e-3, n_ensemble=4)
    draws = _draw_delta_r(slow, 2)
    ramped = evolve_offsets(RampedTransportPulse(slow, 1e-3), draws)
    end = draws + TransportPulse(slow).detuning(slow.tau)
    p1 = np.mean(dressed_projection(ramped, slow.omega_r, end))
    assert p1 == pytest.approx(transport_transfer(slow, draws, [slow.tau])[0][0], abs=0.005)


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
    assert dressed == pytest.approx(transport_transfer(slow, draws, [slow.tau])[0][0], abs=1e-12)
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
    # the curve draws its members once and runs all its speeds in one
    # stacked call; each point equals the curve of its speed alone to
    # rounding (the stacked passes size their blocks by their own member
    # counts), also when every member has the same detuning, and a curve
    # of one speed is the transfer that draws the members itself, bit for
    # bit
    grid = [0.5, 2.0, 8.0]
    plan = replace(plan, n_ensemble=5, **kwargs)
    scan = transport_curve(plan, grid, rng_seed=4)
    for inv_tau, p1, stderr in zip(grid, scan.p1, scan.stderr):
        one = transport_curve(plan, [inv_tau], rng_seed=4)
        assert p1 == pytest.approx(one.p1[0], rel=0, abs=1e-13)
        assert stderr == pytest.approx(one.stderr[0], rel=0, abs=1e-13)
        assert transfer(plan, 4, tau=1e-3 / inv_tau) == (one.p1[0], one.stderr[0])


def test_curve_runs_in_one_call_per_ensemble_cap(plan, monkeypatch):
    # all speeds share one evolve_offsets call until their members pass
    # _MAX_ENSEMBLE; beyond it the speeds split into calls of at most that
    # many members, with the same points to rounding
    calls = []

    def counted(pulse, offsets, *args, **kwargs):
        calls.append(np.size(offsets))
        return evolve_offsets(pulse, offsets, *args, **kwargs)

    monkeypatch.setattr(transport, "evolve_offsets", counted)
    plan = replace(plan, n_ensemble=4)
    grid = [0.5, 1.0, 2.0, 4.0, 8.0]
    whole = transport_curve(plan, grid, rng_seed=1)
    assert calls == [20]
    monkeypatch.setattr(transport, "_MAX_ENSEMBLE", 9)
    split = transport_curve(plan, grid, rng_seed=1)
    assert calls[1:] == [8, 8, 4]
    np.testing.assert_allclose(split.p1, whole.p1, rtol=0, atol=1e-13)
    np.testing.assert_allclose(split.stderr, whole.stderr, rtol=0, atol=1e-13)


def test_repeated_speed_runs_once_within_one_speeds_budget(plan, monkeypatch):
    # a speed given twice runs once, so a curve of it holds the member-step
    # budget of that speed alone, and both points are the one-speed point
    plan = replace(plan, n_ensemble=4)
    draws = _draw_delta_r(plan, 3)
    one = int(bloch._initial_steps(bloch._need(TransportPulse(plan), draws, 1.0)).sum())
    monkeypatch.setattr(bloch, "_MAX_MEMBER_STEPS", one)
    alone = transport_curve(plan, [1.0], rng_seed=3)
    twice = transport_curve(plan, [1.0, 2.0, 1.0], rng_seed=3)
    assert twice.p1[0] == twice.p1[2] == alone.p1[0]
    assert twice.stderr[0] == twice.stderr[2] == alone.stderr[0]


def test_every_pass_of_a_curve_takes_a_power_of_two_steps(monkeypatch):
    # the transport_speed preset without its two slowest speeds, 10 speeds
    # of 32 members at their own time scales: every pass it runs has
    # 2^p >= 16 steps, which the kernel's equal blocks rely on
    cfg = preset_config("transport_speed")
    rotation_pass = bloch._rotation_pass
    steps = []

    def counted(pulse, offsets, states, n, work, groups):
        assert n >= 16 and n & (n - 1) == 0
        steps.append(n)
        return rotation_pass(pulse, offsets, states, n, work, groups)

    monkeypatch.setattr(bloch, "_rotation_pass", counted)
    transport_curve(cfg.transport, [0.2, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0], cfg.seed)
    assert len(steps) > 1


@pytest.mark.parametrize("inv_tau", [1e-300, 1e308])
def test_every_speed_is_checked_before_any_member_runs(plan, monkeypatch, inv_tau):
    # a speed whose chirp 4 d / tau^2 is not finite and positive stops the
    # curve at its plan check, wherever it sits in the grid
    monkeypatch.setattr(transport, "evolve_offsets", lambda *args, **kw: pytest.fail("ran"))
    grid = sorted([1.0, 2.0, inv_tau])
    with pytest.raises(ConfigError, match="no finite positive chirp"):
        transport_curve(replace(plan, n_ensemble=2), grid)


@pytest.mark.parametrize("c", [0.2, 3.0])
def test_time_scale_is_the_move_at_that_duration(plan, c):
    # the transport chirp depends on t / tau alone, so a time scale c on
    # the move of duration tau is the move of duration c tau
    ref = replace(plan, n_ensemble=6)
    draws = _draw_delta_r(ref, 5)
    starts = np.array([dressed_ground(ref.omega_r, d) for d in draws])
    got = evolve_offsets(TransportPulse(ref), draws, starts, scales=np.full(6, c))
    want = evolve_offsets(TransportPulse(replace(ref, tau=c * ref.tau)), draws, starts)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_transport_curve_validation(plan):
    with pytest.raises(ConfigError):
        transport_curve(plan, [])
    with pytest.raises(ConfigError):
        transport_curve(plan, [0.0, 1.0])


# ------------------------------------------------------------ interpolant over the spread

@pytest.mark.parametrize("seed", range(5))
def test_interpolant_meets_the_tolerance_at_every_speed(seed):
    # the audit: at all 12 preset speeds, a speed whose estimate is within
    # the tolerance reads every member off the 9-node interpolant within
    # 1e-6 of its direct integration.  The estimate measures the members'
    # error, it does not bound it: the transfer carries a small part that
    # oscillates across the spread, which neither interpolant resolves, so
    # members miss by up to 2.8 estimates at seeds 0-4, while the mean and
    # the standard error stay within 0.35 of one
    cfg = preset_config("transport_speed")
    plan, taus = cfg.transport, 1e-3 / cfg.grid
    draws = _draw_delta_r(plan, seed)
    fine, estimate = transport._read_off(plan, draws, taus)
    direct = transport._transfer(plan, draws, taus)
    accept = estimate <= transport._TOL
    np.testing.assert_array_equal(cfg.grid[accept], [0.05, 0.1, 0.2, 0.5, 1.0])
    assert np.all(np.abs(fine - direct)[accept] <= 1e-6)
    for stat in (np.mean, lambda p: np.std(p, ddof=1) / math.sqrt(p.size)):
        moved = [abs(stat(f) - stat(d)) for f, d in zip(fine[accept], direct[accept])]
        assert np.all(moved <= estimate[accept])
    # the curve takes the interpolated members where the estimate is
    # accepted, the integrated ones elsewhere, and reports which
    curve = transport_curve(plan, cfg.grid, seed)
    np.testing.assert_array_equal(curve.estimate[accept], estimate[accept])
    assert np.all(np.isnan(curve.estimate[~accept]))
    np.testing.assert_array_equal(curve.p1[accept], fine.mean(axis=1)[accept])
    np.testing.assert_allclose(curve.p1[~accept], direct.mean(axis=1)[~accept], rtol=0, atol=1e-13)


def test_wide_spread_fails_the_estimate_and_takes_its_members(plan):
    # over a 256 kHz spread the transfer at 1 /ms is too rough for 9 nodes
    # (estimate 2.3e-5), so that speed integrates its members; 0.2 /ms
    # still reads them off the interpolant
    wide = replace(plan, spread=khz_to_rad_per_s(256.0))
    draws = _draw_delta_r(wide, 0)
    p1, stderr, estimate = transport_transfer(wide, draws, [5e-3, 1e-3])
    assert np.isnan(estimate[1]) and estimate[0] <= transport._TOL
    members = transport._transfer(wide, draws, np.array([wide.tau]))[0]
    assert p1[1] == np.mean(members)
    assert stderr[1] == np.std(members, ddof=1) / math.sqrt(members.size)


@pytest.mark.parametrize("n_ensemble, spread_khz", [(1, 32.0), (2, 32.0), (9, 32.0), (32, 0.0)])
def test_small_or_pointlike_ensemble_integrates_its_members(plan, n_ensemble, spread_khz):
    # at most 9 members, or members that all start at one detuning, take
    # no interpolant: the output is that of evolve_offsets on the members,
    # bit for bit
    plan = replace(plan, n_ensemble=n_ensemble, spread=khz_to_rad_per_s(spread_khz))
    draws = _draw_delta_r(plan, 2)
    p1, stderr, estimate = transport_transfer(plan, draws, [plan.tau])
    norm = np.array([math.hypot(plan.omega_r, d) for d in draws])
    starts = np.stack([plan.omega_r / norm, np.zeros(draws.size), draws / norm], axis=1)
    final = evolve_offsets(TransportPulse(plan), draws, starts)
    members = dressed_projection(final, plan.omega_r, draws + TransportPulse(plan).detuning(plan.tau))
    assert np.isnan(estimate[0])
    assert p1[0] == np.mean(members)
    want = 0.0 if n_ensemble == 1 else np.std(members, ddof=1) / math.sqrt(n_ensemble)
    assert stderr[0] == want


@pytest.mark.parametrize("grid, calls, passes, member_steps", [
    ([0.2, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0], [90, 224], 11, 419712),
    (None, [108, 224], 13, 1083264),
], ids=["bench", "preset"])
def test_transport_work_ledger(monkeypatch, grid, calls, passes, member_steps):
    # the evolve_offsets calls, rotation passes and member-steps of the
    # seed-0 curves on the benchmark's grid and the full preset: the nodes
    # of every speed in one call, the members of the speeds whose estimate
    # fails in a second.  A change in the transport's work shows here
    # exactly, whatever the host's speed.  Integrating every member took
    # one call of 320 and 384 members, 864256 and 3223552 member-steps
    cfg = preset_config("transport_speed")
    evolve, rotation_pass = transport.evolve_offsets, bloch._rotation_pass
    sizes, steps = [], []

    def calling(pulse, offsets, *args, **kwargs):
        sizes.append(np.size(offsets))
        return evolve(pulse, offsets, *args, **kwargs)

    def stepping(pulse, offsets, states, n, *args):
        steps.append(offsets.size * n)
        return rotation_pass(pulse, offsets, states, n, *args)

    monkeypatch.setattr(transport, "evolve_offsets", calling)
    monkeypatch.setattr(bloch, "_rotation_pass", stepping)
    transport_curve(cfg.transport, cfg.grid if grid is None else grid, cfg.seed)
    assert (sizes, len(steps), sum(steps)) == (calls, passes, member_steps)


def test_plan_tau_is_only_the_unit_of_the_durations(monkeypatch):
    # a curve's durations run as time scales of the plan's own move, so the
    # plan's tau moves the scales, not the moves: the preset's seed-0 speeds
    # give the same transfer, stderr and estimate to rounding, and take the
    # same member-steps, whatever tau the plan carries
    cfg = preset_config("transport_speed")
    draws, taus = _draw_delta_r(cfg.transport, cfg.seed), 1e-3 / cfg.grid
    rotation_pass, steps = bloch._rotation_pass, []

    def stepping(pulse, offsets, states, n, *args):
        steps.append(offsets.size * n)
        return rotation_pass(pulse, offsets, states, n, *args)

    monkeypatch.setattr(bloch, "_rotation_pass", stepping)
    runs = []
    for tau in (1e-3, 1e-4, 2e-2):
        steps.clear()
        runs.append((transport_transfer(replace(cfg.transport, tau=tau), draws, taus), sum(steps)))
    (want, want_steps), *others = runs
    for got, got_steps in others:
        assert got_steps == want_steps == 1083264
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)


def test_empty_draws_or_durations_are_refused(plan):
    draws = _draw_delta_r(plan, 0)
    with pytest.raises(ValueError, match="draws must hold at least one"):
        transport_transfer(plan, np.array([]), [plan.tau])
    with pytest.raises(ValueError, match="taus must hold at least one"):
        transport_transfer(plan, draws, [])
    # a non-finite draw is refused before the nodes or the starts are built
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="draws must be finite"):
            transport_transfer(plan, np.r_[draws, bad], [plan.tau])


# ------------------------------------------------------------ analytic crossing

def test_seeded_mean_matches_quadrature_over_the_spread():
    # the 32 seeded members estimate the mean over a uniform spread; eight
    # Gauss-Legendre nodes give it to about 1e-7.  The 1e-6 slack covers
    # the slow speeds, whose standard errors are 1e-16 to 1e-12
    cfg = preset_config("transport_speed")
    curve = transport_curve(cfg.transport, cfg.grid, cfg.seed)
    exact = gauss_legendre_transport_mean(cfg.transport, 1e-3 / cfg.grid)
    assert len(curve) == 12
    assert np.all(np.abs(curve.p1 - exact) <= 3.0 * curve.stderr + 1e-6)


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

