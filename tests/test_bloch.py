import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

import apsim
import apsim.bloch as bloch
from apsim.bloch import detuning_spectrum, evolve_offsets
from apsim.errors import IntegrationError
from apsim.pulses import APPulse
from apsim.units import khz_to_rad_per_s

from oracles import RectPulse, dop853_final, inverted

GROUND = np.array([0.0, 0.0, -1.0])


def final(pulse, state=GROUND):
    """Bloch vector after the pulse, as a stack of one trajectory."""
    return evolve_offsets(pulse, [0.0], state)[0]


def p1(state) -> float:
    return 0.5 * (1.0 + state[2])


# ------------------------------------------------------------ state type

def test_state_basics():
    # trajectories start in the ground state unless given a start; no
    # drive leaves every start where it is, and P1 reads (1 + w) / 2
    idle = RectPulse(0.0, 0.0, 1.0e-3)
    np.testing.assert_array_equal(evolve_offsets(idle, [0.0, 1.0]), [GROUND, GROUND])
    starts = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.5]])
    np.testing.assert_array_equal(evolve_offsets(idle, [0.0, 0.0], starts), starts)
    assert p1(starts[1]) == 0.75


# ------------------------------------------------------------ textbook limits

def test_resonant_pi_pulse_inverts():
    omega = khz_to_rad_per_s(10.0)
    p = RectPulse(omega, 0.0, math.pi / omega)
    assert p1(final(p)) == pytest.approx(1.0, abs=1e-9)


def test_resonant_two_pi_pulse_returns():
    omega = khz_to_rad_per_s(10.0)
    p = RectPulse(omega, 0.0, 2.0 * math.pi / omega)
    assert p1(final(p)) == pytest.approx(0.0, abs=1e-9)


def test_rabi_formula_off_resonance():
    # generalized Rabi oscillation: P1 = (omega/W)^2 sin^2(W t / 2)
    omega = khz_to_rad_per_s(10.0)
    delta = khz_to_rad_per_s(6.0)
    t = 0.37e-3
    p = RectPulse(omega, delta, t)
    w_eff = math.hypot(omega, delta)
    expect = (omega / w_eff) ** 2 * math.sin(w_eff * t / 2.0) ** 2
    assert p1(final(p)) == pytest.approx(expect, abs=1e-9)


def test_free_precession_about_z():
    # no drive: coherences rotate at the detuning, inversion frozen
    delta = khz_to_rad_per_s(3.0)
    t = 0.21e-3
    p = RectPulse(0.0, delta, t)
    u, v, w = final(p, np.array([1.0, 0.0, 0.0]))
    assert u == pytest.approx(math.cos(delta * t), abs=1e-9)
    assert v == pytest.approx(math.sin(delta * t), abs=1e-9)
    assert w == pytest.approx(0.0, abs=1e-12)


# ------------------------------------------------------------ rotation oracle

def test_constant_segments_match_rotation_oracle():
    # piecewise-constant evolution is exactly a rotation about the torque
    # vector (omega, 0, delta) by |torque| * dt; check the integrator
    # against scipy's rotation machinery on random segments
    rng = np.random.default_rng(20240917)
    for _ in range(100):
        omega = khz_to_rad_per_s(rng.uniform(-40.0, 40.0))
        delta = khz_to_rad_per_s(rng.uniform(-60.0, 60.0))
        dt = rng.uniform(0.01e-3, 0.3e-3)
        vec = rng.normal(size=3)
        vec /= np.linalg.norm(vec)
        got = final(RectPulse(omega, delta, dt), vec)
        want = Rotation.from_rotvec(np.array([omega, 0.0, delta]) * dt).apply(vec)
        np.testing.assert_allclose(got, want, atol=1e-8)


# ------------------------------------------------------------ passage pulse

def test_norm_conserved_through_passage(ref_pulse):
    norm = np.linalg.norm(final(ref_pulse))
    assert norm == pytest.approx(1.0, abs=1e-8)


def test_inverted_pulse_reverses_evolution(ref_pulse):
    # if r(t) solves the torque equation, -r(t_p - t) solves it for the
    # sign-flipped mirrored pulse; running the inverse program from the
    # negated final state must land on the negated initial state
    r1 = final(ref_pulse)
    back = final(inverted(ref_pulse), -r1)
    np.testing.assert_allclose(back, -GROUND, atol=1e-7)


def test_tighter_tolerance_consistent(ref_pulse, monkeypatch):
    answers = []
    for rel_tol, abs_tol in ((1e-7, 1e-10), (1e-12, 1e-14)):
        monkeypatch.setattr(bloch, "_REL_TOL", rel_tol)
        monkeypatch.setattr(bloch, "_ABS_TOL", abs_tol)
        answers.append(p1(final(ref_pulse)))
    loose, tight = answers
    assert loose == pytest.approx(tight, abs=1e-6)


# ------------------------------------------------------------ batched offsets

def test_offsets_match_individual_runs(ref_pulse):
    offs = khz_to_rad_per_s(np.array([-30.0, -5.0, 0.0, 12.0, 45.0]))
    batch = evolve_offsets(ref_pulse, offs)
    for off, row in zip(offs, batch):
        shifted = APPulse(
            ref_pulse.omega_max, ref_pulse.delta_max, ref_pulse.delta_c + off, ref_pulse.t_p
        )
        np.testing.assert_allclose(row, final(shifted), atol=1e-8)


def test_offsets_custom_initial_states(ref_pulse):
    up = np.array([0.0, 0.0, 1.0])
    out = evolve_offsets(ref_pulse, [0.0, khz_to_rad_per_s(10.0)], initial_states=up)
    assert out.shape == (2, 3)
    single = final(ref_pulse, up)
    np.testing.assert_allclose(out[0], single, atol=1e-9)


def test_offsets_validation(ref_pulse):
    with pytest.raises(ValueError):
        evolve_offsets(ref_pulse, [np.inf])
    with pytest.raises(ValueError):
        evolve_offsets(ref_pulse, [0.0, 1.0], initial_states=np.zeros((3, 3)))


def test_spectrum_symmetric_for_centered_sweep(ref_pulse):
    # even drive envelope + odd sweep: P1 is even in the carrier detuning
    grid = khz_to_rad_per_s(np.array([-50.0, -35.0, -10.0, 10.0, 35.0, 50.0]))
    p1 = detuning_spectrum(ref_pulse, grid)
    np.testing.assert_allclose(p1, p1[::-1], atol=1e-8)


def test_spectrum_scalar_grid(ref_pulse):
    val = detuning_spectrum(ref_pulse, 0.0)
    assert isinstance(val, float)
    assert val == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("delta_c_khz", [-17.0, 1e300])
def test_spectrum_ignores_the_pulses_own_delta_c(ref_pulse, delta_c_khz):
    # the grid values replace delta_c: the pulse runs at delta_c = 0 with
    # the grid as offsets, so its own delta_c never enters, however large
    grid = khz_to_rad_per_s(np.array([-30.0, 0.0, 12.0]))
    moved = APPulse.from_khz(28.0, 40.0, delta_c_khz, 2.0)
    assert np.array_equal(detuning_spectrum(moved, grid), detuning_spectrum(ref_pulse, grid))


def test_non_finite_error_estimate_stops_at_once(ref_pulse, monkeypatch):
    # a pass whose states are not finite ends the doubling with the next
    # estimate instead of running on up to the step budget
    rotation_pass = bloch._rotation_pass
    passes = []

    def poisoned(pulse, offsets, states, n, work, groups):
        passes.append(n)
        out = rotation_pass(pulse, offsets, states, n, work, groups)
        return out if len(passes) == 1 else np.full_like(out, np.nan)

    monkeypatch.setattr(bloch, "_rotation_pass", poisoned)
    with pytest.raises(IntegrationError, match="not finite"):
        evolve_offsets(ref_pulse, [0.0])
    assert len(passes) == 2


def test_member_step_budget_fires_before_any_pass(ref_pulse, monkeypatch):
    # one trajectory more than the budget holds at the pulse's first step
    # count; no rotation pass may start
    first = bloch._initial_steps(bloch._need(ref_pulse, np.zeros(1), 1.0))
    n = bloch._MAX_MEMBER_STEPS // int(first[0]) + 1
    monkeypatch.setattr(bloch, "_rotation_pass", lambda *args: pytest.fail("a pass ran"))
    with pytest.raises(IntegrationError, match="work budget exceeded"):
        evolve_offsets(ref_pulse, np.zeros(n))


def test_need_builds_its_torque_table_in_parts(ref_pulse):
    # 2 _STEPS + 1 trajectories take three equal parts of at most _STEPS
    # columns of 64 torques each, never a lone column, which numpy would
    # sum pairwise: every angle is the row-by-row sum it has in a wider table
    offs = khz_to_rad_per_s(np.linspace(-117.0, 65.0, 2 * bloch._STEPS + 1))
    tracemalloc.start()
    try:
        need = bloch._need(ref_pulse, offs, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * bloch._STEPS * 8 + 2 * offs.nbytes
    wide = np.concatenate([bloch._need(ref_pulse, offs[:2], 1.0),
                           bloch._need(ref_pulse, offs[2:], 1.0)])
    assert np.array_equal(need, wide)


def _first_steps(pulse, offsets, scale):
    """Member-steps of the first passes of the offsets at one time scale."""
    return int(bloch._initial_steps(bloch._need(pulse, offsets, scale)).sum())


def test_member_step_budget_holds_per_time_scale(ref_pulse, monkeypatch):
    # two time scales whose first passes each fit the budget run, however
    # much they take together; one scale over it stops the call before any
    # pass, also beside a scale that fits
    offs = khz_to_rad_per_s(np.linspace(-40.0, 40.0, 6))
    slow, fast = _first_steps(ref_pulse, offs, 2.0), _first_steps(ref_pulse, offs, 0.5)
    monkeypatch.setattr(bloch, "_MAX_MEMBER_STEPS", max(slow, fast))
    assert slow + fast > bloch._MAX_MEMBER_STEPS
    both = evolve_offsets(ref_pulse, np.r_[offs, offs], scales=np.repeat([2.0, 0.5], 6))
    assert np.all(np.isfinite(both))
    monkeypatch.setattr(bloch, "_MAX_MEMBER_STEPS", slow - 1)
    monkeypatch.setattr(bloch, "_rotation_pass", lambda *args: pytest.fail("a pass ran"))
    with pytest.raises(IntegrationError, match="work budget exceeded"):
        evolve_offsets(ref_pulse, offs, scales=np.full(6, 2.0))
    with pytest.raises(IntegrationError, match="at time scale 2"):
        evolve_offsets(ref_pulse, np.r_[offs, offs], scales=np.repeat([2.0, 0.5], 6))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scales", [[1e308, 1e308], [1.0, 1e308]], ids=["one", "beside-1"])
def test_overflowing_time_scale_is_an_integration_error(ref_pulse, scales):
    # the scale times the rotation angle overflows to inf, which the step
    # budget refuses, without a RuntimeWarning
    with pytest.raises(IntegrationError, match="step budget exceeded"):
        evolve_offsets(ref_pulse, [0.0, 1.0], scales=scales)


@pytest.mark.parametrize("scales", [[0.0, 1.0], [1.0, -1.0], [np.nan, 1.0], [1.0, np.inf],
                                    [1.0, 1.0, 1.0], 1.0])
def test_scales_validation(ref_pulse, scales):
    with pytest.raises(ValueError, match="scales"):
        evolve_offsets(ref_pulse, [0.0, 1.0], scales=scales)


@pytest.mark.parametrize("c", [0.37, 2.5])
def test_time_scale_stretches_the_pulse(ref_pulse, c):
    # a time scale c runs the pulse stretched to c times its duration
    offs = khz_to_rad_per_s(np.array([-40.0, -7.0, 0.0, 13.0, 55.0])) - ref_pulse.delta_c
    want = evolve_offsets(replace(ref_pulse, t_p=c * ref_pulse.t_p), offs)
    got = evolve_offsets(ref_pulse, offs, scales=np.full(offs.size, c))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_unit_time_scales_change_nothing(ref_pulse):
    offs = khz_to_rad_per_s(np.linspace(-117.0, 65.0, 41))
    assert np.array_equal(evolve_offsets(ref_pulse, offs, scales=np.ones(41)),
                          evolve_offsets(ref_pulse, offs))


def test_mixed_time_scales_match_separate_calls(ref_pulse):
    # trajectories at three scales, interleaved, come back in their own
    # order, each as the call at its scale alone gives it
    offs = khz_to_rad_per_s(np.linspace(-60.0, 60.0, 9))
    scales = np.array([2.0, 0.5, 1.0] * 3)
    got = evolve_offsets(ref_pulse, offs, scales=scales)
    for c in (0.5, 1.0, 2.0):
        at = scales == c
        alone = evolve_offsets(ref_pulse, offs[at], scales=np.full(3, c))
        np.testing.assert_allclose(got[at], alone, rtol=0, atol=1e-13)


def test_non_finite_pulse_raises_integration_error():
    class BrokenPulse:
        duration = 1.0e-3

        def rabi(self, t):
            return np.nan

        def detuning(self, t):
            return 0.0

    with pytest.raises(IntegrationError):
        final(BrokenPulse())


# ------------------------------------------------------------ rotation path

def _stack(ref_pulse):
    offs = khz_to_rad_per_s(np.arange(-76.0, 65.5, 1.0)) - ref_pulse.delta_c
    return offs, np.tile(GROUND, (offs.size, 1))


def _pass(pulse, offsets, states, n, groups=None):
    """One rotation pass in a workspace of its own; every member at time
    scale 1 unless groups says otherwise."""
    groups = groups or ((1.0, offsets.size),)
    return bloch._rotation_pass(pulse, offsets, states, n, bloch._workspace(offsets.size), groups)


def test_rotation_path_matches_dop853_oracle(ref_pulse):
    offs, y0 = _stack(ref_pulse)
    want = dop853_final(ref_pulse, offs, y0)
    got = evolve_offsets(ref_pulse, offs)
    assert np.max(np.linalg.norm(got - want, axis=1)) <= 1e-8


def test_rotation_step_is_sixth_order(ref_pulse):
    # the error falls 2^6 = 64-fold per halving of the step, which is what
    # the /63 in the step-doubling estimate assumes
    offs, y0 = _stack(ref_pulse)
    fine = _pass(ref_pulse, offs, y0, 2**14)
    err = [
        np.max(np.linalg.norm(_pass(ref_pulse, offs, y0, n) - fine, axis=1))
        for n in (512, 1024, 2048)
    ]
    assert 40.0 <= err[0] / err[1] <= 90.0
    assert 40.0 <= err[1] / err[2] <= 90.0


def _sequential(pairs):
    """Product U[k-1] ... U[0] of the (2, k, m) stack of pairs, one step at a
    time."""
    want = pairs[:, 0].copy()
    for k in range(1, pairs.shape[1]):
        nxt = np.empty_like(want)
        bloch._ck_mul(*pairs[:, k], *want, nxt, np.empty(want.shape[1:], dtype=complex))
        want = nxt
    return want


@pytest.mark.parametrize("k", [1, 2, 32, 1024])
def test_bit_reversal_is_an_involution(k):
    perm = bloch._bit_reversed(k)
    assert np.array_equal(np.sort(perm), np.arange(k))
    assert np.array_equal(perm[perm], np.arange(k))


def test_step_order_reverses_each_power_of_two_block():
    sizes = bloch._blocks(1500, 32)
    assert sizes == [1024, 256, 128, 64, 16, 8, 4]
    order = bloch._step_order(sizes)
    lo = 0
    for k in sizes:
        assert np.array_equal(order[lo : lo + k], lo + bloch._bit_reversed(k))
        lo += k
    assert lo == 1500
    assert bloch._blocks(4096, 1025) == [16] * 256
    assert bloch._blocks(3, 40000) == [1, 1, 1]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(n=st.integers(1, 2**20), m=st.integers(1, 40000))
def test_blocks_are_powers_of_two_within_one_chunk(n, m):
    # every block fits one chunk of _STEPS rows and one block stack of
    # max(_CHUNK, m) elements, and the sizes never grow, so no block
    # crosses a chunk boundary
    sizes = np.array(bloch._blocks(n, m))
    assert sizes.sum() == n
    assert np.all(sizes & (sizes - 1) == 0) and np.all(sizes <= bloch._STEPS)
    assert np.all(sizes * m <= max(bloch._CHUNK, m))
    assert np.all(np.diff(sizes) <= 0)
    start = np.cumsum(sizes) - sizes
    assert np.array_equal(start // bloch._STEPS, (start + sizes - 1) // bloch._STEPS)


def test_pairwise_composition_matches_sequential(ref_pulse):
    # _compose takes a stack in bit-reversed step order
    rng = np.random.default_rng(7)
    for k in (1, 2, 32, 1024):
        steps = rng.normal(size=(2, k, 5)) + 1j * rng.normal(size=(2, k, 5))
        steps /= np.sqrt(np.sum(np.abs(steps) ** 2, axis=0))
        pairs = np.empty((5, k, 5), dtype=complex)
        pairs[:2] = steps[:, bloch._bit_reversed(k)]
        np.testing.assert_allclose(bloch._compose(pairs), _sequential(steps), atol=1e-12)
    # 4001 members take blocks of 8 steps (and one of 4), one member takes the
    # 100 steps in blocks of 64, 32 and 4: the answers agree
    offs = khz_to_rad_per_s(np.linspace(-60.0, 60.0, 4001))
    y0 = np.tile(GROUND, (offs.size, 1))
    many = _pass(ref_pulse, offs, y0, 100)
    assert 100 > bloch._CHUNK // offs.size
    for i in (0, 1234, 4000):
        one = _pass(ref_pulse, offs[i : i + 1], y0[i : i + 1], 100)
        np.testing.assert_allclose(many[i], one[0], atol=1e-12)


def _direct_pass(pulse, offsets, states, n):
    """_rotation_pass with each member's Magnus vector formed straight from
    the formula in _magnus6's docstring, by cross products of (n, m, 3)
    arrays, instead of from polynomials in x, and the steps multiplied one
    at a time in step order."""
    h = pulse.duration / n
    t = (np.arange(n)[:, None] + bloch._NODES) * h
    om, de = pulse.rabi(t), pulse.detuning(t)
    shape = (n, offsets.size, 3)
    a1, a2, a3 = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    a1[..., 0] = h * om[:, 1, None]
    a1[..., 2] = h * de[:, 1, None] + h * offsets
    for a, k, w in ((a2, math.sqrt(15.0) / 3.0, (-1.0, 0.0, 1.0)),
                    (a3, 10.0 / 3.0, (1.0, -2.0, 1.0))):
        a[..., 0] = k * h * (om @ w)[:, None]
        a[..., 2] = k * h * (de @ w)[:, None]
    c1 = np.cross(a1, a2)
    c2 = -np.cross(a1, 2.0 * a3 + c1) / 60.0
    theta = a1 + a3 / 12.0 + np.cross(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0
    pairs = np.empty((2,) + shape[:2], dtype=complex)
    bloch._cayley_klein(np.moveaxis(theta, -1, 0) / 4.0, pairs, np.empty((3,) + shape[:2]))
    return bloch._rotate(*_sequential(pairs), states)


@pytest.mark.parametrize("m, n, x_max", [(1, 100, 0.3), (32, 1500, 0.5), (512, 200, 1.2),
                                         (3, 9000, 0.3)],
                         ids=["one-member", "tail-block", "fit-range", "three-chunks"])
def test_rotation_pass_matches_direct_magnus_vectors(ref_pulse, m, n, x_max):
    # the kernel evaluates each step's Magnus vector as polynomials in
    # x = h * offset, in blocks of steps; no n here is a power of two, so
    # every case ends in power-of-two sub-blocks, |x| <= 1.2 is the range
    # of the fit's cache, and 3 members take blocks of _STEPS steps, so
    # that their 9000 steps span three chunks
    assert n % bloch._blocks(n, m)[0]
    offs = np.linspace(-x_max, x_max, m) * n / ref_pulse.duration
    rng = np.random.default_rng(m)
    y0 = rng.normal(size=(m, 3))
    y0 /= np.linalg.norm(y0, axis=1)[:, None]
    got = _pass(ref_pulse, offs, y0, n)
    np.testing.assert_allclose(got, _direct_pass(ref_pulse, offs, y0, n), rtol=0, atol=1e-13)


@pytest.mark.parametrize("m, n", [(7, 1500), (3, 9000)], ids=["in-workspace", "fresh-buffer"])
def test_rotation_pass_groups_match_stretched_pulses(ref_pulse, m, n):
    # a pass over groups of members at their own time scales gives each
    # group the pass of the stretched pulse; three groups of one member
    # take blocks of _STEPS steps, whose coefficients do not fit the
    # workspace's chunk rows
    counts = [m - 2 * (m // 3), m // 3, m // 3]
    groups = list(zip([0.5, 1.0, 1.75], counts))
    offs = np.linspace(-0.4, 0.4, m) * n / ref_pulse.duration
    rng = np.random.default_rng(m)
    y0 = rng.normal(size=(m, 3))
    y0 /= np.linalg.norm(y0, axis=1)[:, None]
    assert (bloch._blocks(n, m)[0] * 3 > bloch._STEPS) == (m == 3)
    got = _pass(ref_pulse, offs, y0, n, groups)
    lo = 0
    for c, count in groups:
        cut = slice(lo, lo + count)
        stretched = replace(ref_pulse, t_p=c * ref_pulse.t_p)
        want = _direct_pass(stretched, offs[cut], y0[cut], n)
        np.testing.assert_allclose(got[cut], want, rtol=0, atol=1e-13)
        lo += count


@pytest.mark.parametrize("m", [32, 1025])
def test_need_sums_the_samples_like_a_loop(ref_pulse, m):
    # _need picks the power-of-two first step counts, so its vectorised sum
    # must equal the per-sample loop bit for bit
    offs = khz_to_rad_per_s(np.random.default_rng(m).uniform(-117.0, 65.0, m))
    t = (np.arange(64) + 0.5) * (ref_pulse.duration / 64)
    angle = np.zeros(m)
    for om_k, de_k in zip(ref_pulse.rabi(t), ref_pulse.detuning(t)):
        angle += np.hypot(om_k, de_k + offs)
    angle *= ref_pulse.duration / (64 * math.pi)
    assert np.array_equal(bloch._need(ref_pulse, offs, np.ones(m)), angle)


def test_rotation_pass_does_not_depend_on_blas_threads():
    # the kernel multiplies by BLAS: its states must not change with the
    # number of BLAS threads, or a fixed seed would not fix the output;
    # 1500 steps of 27 members also take the power-of-two sub-blocks
    script = f"""
import sys
sys.path.insert(0, {str(Path(apsim.__file__).parents[1])!r})
import numpy as np
import apsim.bloch as bloch
from apsim.pulses import APPulse
from apsim.units import khz_to_rad_per_s

pulse = APPulse.from_khz(28.0, 40.0, 0.0, 2.0)
for m, n in ((1025, 1024), (32, 4096), (1, 2048), (27, 1500)):
    offs = khz_to_rad_per_s(np.linspace(-117.0, 65.0, m))
    y0 = np.tile([0.0, 0.0, -1.0], (m, 1))
    work = bloch._workspace(m)
    sys.stdout.write(bloch._rotation_pass(pulse, offs, y0, n, work, ((1.0, m),)).tobytes().hex())
"""
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=env)
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout)
    assert outs[0] == outs[1]


def test_cayley_klein_pairs_rotate_like_rotation_vectors():
    # U = [[a, b], [-b*, a*]] turns r by |theta| about theta, and a product
    # of pairs is the rotation on the right followed by the one on the left
    rng = np.random.default_rng(11)
    theta = rng.normal(size=(3, 2, 6)) * 2.0
    a, b = pairs = np.empty((2, 2, 6), dtype=complex)
    bloch._cayley_klein(theta / 4.0, pairs, np.empty((3, 2, 6)))
    r = rng.normal(size=(6, 3))
    rot = [Rotation.from_rotvec(theta[:, k].T) for k in range(2)]
    np.testing.assert_allclose(bloch._rotate(a[0], b[0], r), rot[0].apply(r), atol=1e-12)
    both = np.empty((2, 6), dtype=complex)
    bloch._ck_mul(a[1], b[1], a[0], b[0], both, np.empty(6, dtype=complex))
    np.testing.assert_allclose(bloch._rotate(*both, r), (rot[1] * rot[0]).apply(r), atol=1e-12)


@pytest.mark.parametrize("m, steps", [(32, 2048), (1025, None)], ids=["transport-like", "cache"])
def test_one_workspace_serves_every_pass(ref_pulse, monkeypatch, m, steps):
    # every buffer of a pass is in the workspace, allocated once per call:
    # beyond it a pass allocates only the temporaries of one chunk of
    # steps, the pulse's own and the Magnus formulas' (at most ten arrays
    # of a chunk's 3 _STEPS sample times), and per-member vectors (at most
    # 512 bytes a member), however many steps it takes.  A pass that took
    # fresh buffers for its steps or blocks would add a term that grows
    # with them.  A need of `steps` half-turns forces passes of 4096 and
    # 8192 steps, as the slowest transport point takes; the cache stack
    # spans the fit's range.
    per_chunk, per_member = 10 * 3 * bloch._STEPS * 8, 512
    offs = khz_to_rad_per_s(np.linspace(-117.0, 65.0, m))
    if steps:
        need = bloch._need
        monkeypatch.setattr(bloch, "_need", lambda *args: np.maximum(need(*args), steps))
    rotation_pass = bloch._rotation_pass
    grown = []

    def traced(pulse, offsets, states, n, work, groups):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = rotation_pass(pulse, offsets, states, n, work, groups)
        grown.append((n, offsets.size, tracemalloc.get_traced_memory()[1] - before))
        return out

    monkeypatch.setattr(bloch, "_rotation_pass", traced)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        evolve_offsets(ref_pulse, offs)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    workspace = sum(a.nbytes for a in bloch._workspace(m))
    assert len(grown) >= 2
    for n, members, grow in grown:
        assert grow <= per_chunk + per_member * members
    if steps:
        assert max(n for n, _, _ in grown) == 8192 > bloch._STEPS
    assert peak <= workspace + per_chunk + per_member * m


@pytest.mark.parametrize("step", [7168, 7373], ids=["block-start", "mid-block"])
def test_chunked_pass_names_the_first_non_finite_time(step):
    # a pass of 8192 steps over 32 members samples its steps in two chunks
    # of 4096, each block of 1024 steps in bit-reversed order; a pulse that
    # turns NaN at a node of a step in the last chunk stops the pass with
    # that time, the first non-finite one in step order
    n = 8192
    h = 1.0e-3 / n
    t_bad = (step + bloch._NODES[0]) * h
    assert bloch._blocks(n, 32)[0] == 1024 and n - bloch._STEPS <= step

    class TurnsNaN:
        duration = 1.0e-3

        def rabi(self, t):
            return np.where(t < t_bad, 1.0e4, np.nan)

        def detuning(self, t):
            return np.zeros_like(t)

    offs = np.linspace(-1.0e4, 1.0e4, 32)
    with pytest.raises(IntegrationError, match=f"at t = {t_bad}$"):
        _pass(TurnsNaN(), offs, np.tile(GROUND, (32, 1)), n)


def test_each_trajectory_is_accepted_on_its_own(ref_pulse, monkeypatch):
    # on a fit-like stack the far-detuned members need more steps than the
    # rest: the first pass leaves them out, the last holds only them, and
    # every returned state is within the tolerance of a much finer pass
    offs = khz_to_rad_per_s(np.linspace(-117.0, 65.0, 3067)) - ref_pulse.delta_c
    y0 = np.tile(GROUND, (offs.size, 1))
    sizes = []
    rotation_pass = bloch._rotation_pass

    def counted(pulse, offsets, states, n, work, groups):
        sizes.append(offsets.size)
        return rotation_pass(pulse, offsets, states, n, work, groups)

    monkeypatch.setattr(bloch, "_rotation_pass", counted)
    got = evolve_offsets(ref_pulse, offs)
    assert 0 < sizes[0] < offs.size
    assert 0 < sizes[-1] < offs.size
    fine = _pass(ref_pulse, offs, y0, 2**14)
    assert np.max(np.linalg.norm(got - fine, axis=1)) <= bloch._ABS_TOL + bloch._REL_TOL
