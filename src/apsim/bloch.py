"""Two-level Bloch dynamics in the rotating frame.

State is the Bloch vector r = (u, v, w): u, v are the coherences, w the
inversion, with w = -1 the lower level |0> and w = +1 the upper level
|1>.  Under a pulse program with Rabi frequency omega(t) and detuning
delta(t) = omega_drive - omega_atom, and pure dephasing gamma_2,

    du/dt = -delta(t) v - gamma_2 u
    dv/dt =  delta(t) u - omega(t) w - gamma_2 v
    dw/dt =  omega(t) v

i.e. precession about the torque vector (omega(t), 0, delta(t)) plus
transverse damping.  Population transfer to |1> is (1 + w) / 2.

Without dephasing the motion is a pure rotation, and it is propagated
as one.  A pass of n uniform steps samples the pulse once, as an array,
at the three Gauss-Legendre nodes of every step; forms each step's
sixth-order Magnus vector, whose commutators are cross products
(Blanes, Casas & Ros, BIT 40, 434 (2000)); turns it into a unit
quaternion; composes the quaternions by pairwise reduction; and rotates
the initial vectors.  The step count starts at the total rotation angle
over pi and doubles until the n- and 2n-step answers agree: for a
sixth-order scheme the error of the 2n-step answer is about their
difference / 63.  A pass may take at most 2^20 steps; a pulse that would
need more raises IntegrationError before that pass is sampled.

``evolve_offsets`` propagates a whole family of trajectories that share
a pulse but differ by a constant detuning offset in one pass, which is
how detuning scans and transport ensembles run.

With dephasing, and for the sampled path of ``evolve_trajectory``, an
adaptive explicit Runge-Kutta scheme (DOP853) with dense output
integrates the equations above.  It is also the reference the tests hold
the rotation path to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import IntegrationError
from .pulses import PulseProgram

__all__ = [
    "BlochState",
    "DampingModel",
    "IntegratorConfig",
    "GROUND",
    "evolve",
    "evolve_trajectory",
    "evolve_offsets",
    "transfer_probability",
    "detuning_spectrum",
]

# Construction-time guard on the norm.  Long integrations accumulate
# drift of order the tolerance times the step count, so this is looser
# than the per-pulse conservation asserted in the tests.
_NORM_SLACK = 1e-6

# Gauss-Legendre nodes of the sixth-order Magnus step, as fractions of it
_NODES = np.array([0.5 - 0.1 * math.sqrt(15.0), 0.5, 0.5 + 0.1 * math.sqrt(15.0)])
# steps x trajectories composed per vectorised block; bounds the memory
_CHUNK = 2**15
# work budget of the rotation path: the most steps one pass may take
_MAX_STEPS = 2**20


@dataclass(frozen=True)
class BlochState:
    """Bloch vector components; u^2 + v^2 + w^2 <= 1 (+ roundoff slack)."""

    u: float
    v: float
    w: float

    def __post_init__(self):
        n2 = self.u * self.u + self.v * self.v + self.w * self.w
        if not np.isfinite(n2) or n2 > 1.0 + _NORM_SLACK:
            raise ValueError(f"Bloch vector norm^2 = {n2} exceeds 1")

    def as_array(self) -> np.ndarray:
        return np.array([self.u, self.v, self.w])

    @property
    def p1(self) -> float:
        return 0.5 * (1.0 + self.w)


GROUND = BlochState(0.0, 0.0, -1.0)


@dataclass(frozen=True)
class DampingModel:
    """Transverse relaxation rate gamma_2 in 1/s (population-conserving)."""

    gamma_2: float = 0.0

    def __post_init__(self):
        if self.gamma_2 < 0:
            raise ValueError("gamma_2 must be non-negative")


@dataclass(frozen=True)
class IntegratorConfig:
    """Accuracy of the Bloch propagation.

    Without dephasing, rel_tol and abs_tol bound the step-doubling
    estimate of the error of the returned states: the largest deviation
    over trajectories must not exceed abs_tol + rel_tol * max |r|.  With
    dephasing they bound DOP853's error per step.  max_step (s) caps the
    step on both paths.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_step: float = np.inf

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if not self.max_step > 0:
            raise ValueError("max_step must be positive")


def transfer_probability(state) -> float:
    """P1 = (1 + w) / 2 for a BlochState or a (..., 3) array."""
    if isinstance(state, BlochState):
        return state.p1
    arr = np.asarray(state, dtype=float)
    return 0.5 * (1.0 + arr[..., 2])


def _make_rhs(pulse: PulseProgram, offsets: np.ndarray, gamma_2: float):
    t_end = pulse.duration

    def rhs(t, y):
        # solver steps stay inside the span; clamp guards roundoff only
        tc = min(max(t, 0.0), t_end)
        om = float(pulse.rabi(tc))
        de = float(pulse.detuning(tc))
        if not (np.isfinite(om) and np.isfinite(de)):
            raise IntegrationError(f"non-finite pulse values at t = {t}")
        u = y[0::3]
        v = y[1::3]
        w = y[2::3]
        d = de + offsets
        out = np.empty_like(y)
        out[0::3] = -d * v - gamma_2 * u
        out[1::3] = d * u - om * w - gamma_2 * v
        out[2::3] = om * v
        return out

    return rhs


def _solve(pulse, offsets, y0, damping, config, dense):
    damping = damping or DampingModel()
    config = config or IntegratorConfig()
    rhs = _make_rhs(pulse, np.asarray(offsets, dtype=float), damping.gamma_2)
    sol = solve_ivp(
        rhs,
        (0.0, pulse.duration),
        np.asarray(y0, dtype=float).ravel(),
        method="DOP853",
        rtol=config.rel_tol,
        atol=config.abs_tol,
        max_step=config.max_step,
        dense_output=dense,
    )
    if not sol.success:
        raise IntegrationError(f"integration failed: {sol.message}")
    return sol


def _sample(pulse: PulseProgram, t: np.ndarray):
    """rabi and detuning at the times t, shaped like t and checked finite."""
    om = np.broadcast_to(np.asarray(pulse.rabi(t), dtype=float), t.shape)
    de = np.broadcast_to(np.asarray(pulse.detuning(t), dtype=float), t.shape)
    bad = ~(np.isfinite(om) & np.isfinite(de))
    if np.any(bad):
        raise IntegrationError(f"non-finite pulse values at t = {t[bad][0]}")
    return om, de


def _initial_steps(pulse: PulseProgram, offsets: np.ndarray, config: IntegratorConfig) -> int:
    """First step count of the rotation path, a power of two.

    At least 16, the total rotation angle of the fastest trajectory over
    pi (from the torque at 64 points) and duration / max_step.  Raises
    IntegrationError when the step-doubling pair would exceed the budget.
    """
    t = (np.arange(64) + 0.5) * (pulse.duration / 64)
    om, de = _sample(pulse, t)
    reach = np.maximum(np.abs(de + offsets.min()), np.abs(de + offsets.max()))
    angle = pulse.duration * float(np.mean(np.hypot(om, reach)))
    need = max(16.0, angle / math.pi, pulse.duration / config.max_step)
    if not 2.0 * need <= _MAX_STEPS:
        raise IntegrationError(
            f"step budget exceeded: the pulse needs about {need:.3g} rotation "
            f"steps, more than {_MAX_STEPS // 2}"
        )
    return 2 ** math.ceil(math.log2(need))


def _magnus6(ax, az, bx, bz, cx, cz):
    """Sixth-order Magnus vector of one step from the Gauss-node terms

        a1 = h T(t_2),  a2 = sqrt(15) h / 3 (T_3 - T_1),
        a3 = 10 h / 3 (T_3 - 2 T_2 + T_1),

    here (ax, 0, az), (bx, 0, bz) and (cx, 0, cz), as

        C1 = a1 x a2,  C2 = -a1 x (2 a3 + C1) / 60,
        theta = a1 + a3 / 12 + (-20 a1 - a3 + C1) x (a2 + C2) / 240.
    """
    c1y = az * bx - ax * bz
    c2x = az * c1y / 60.0
    c2y = (ax * cz - az * cx) / 30.0
    c2z = -ax * c1y / 60.0
    ex = -20.0 * ax - cx
    ez = -20.0 * az - cz
    fx = bx + c2x
    fz = bz + c2z
    return (
        ax + cx / 12.0 + (c1y * fz - ez * c2y) / 240.0,
        (ez * fx - ex * fz) / 240.0,
        az + cz / 12.0 + (ex * c2y - c1y * fx) / 240.0,
    )


def _quaternion(tx, ty, tz):
    """Unit quaternions (w, x, y, z) of rotations by |theta| about theta."""
    angle = np.sqrt(tx * tx + ty * ty + tz * tz)
    s = 0.5 * np.sinc(angle / (2.0 * np.pi))  # sin(angle / 2) / angle
    return np.stack([np.cos(0.5 * angle), s * tx, s * ty, s * tz])


def _qmul(p, q):
    """Hamilton product p q: the rotation q followed by p."""
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return np.stack([
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy - px * qz + py * qw + pz * qx,
        pw * qz + px * qy - py * qx + pz * qw,
    ])


def _compose(q):
    """Product q[:, k-1] ... q[:, 0] of a (4, k, m) stack, by pairwise reduction."""
    while q.shape[1] > 1:
        k = q.shape[1]
        paired = _qmul(q[:, 1::2], q[:, 0 : k - 1 : 2])
        q = np.concatenate([paired, q[:, k - 1 :]], axis=1) if k % 2 else paired
    return q[:, 0]


def _rotate(q, r):
    """Rotate the rows of r (m, 3) by the quaternions q (4, m)."""
    q = q / np.sqrt(np.sum(q * q, axis=0))
    w, v = q[0][:, None], q[1:].T
    t = 2.0 * np.cross(v, r)
    return r + w * t + np.cross(v, t)


def _rotation_pass(pulse: PulseProgram, offsets: np.ndarray, states: np.ndarray, n: int):
    """Final states after n uniform sixth-order Magnus steps."""
    h = pulse.duration / n
    om, de = _sample(pulse, ((np.arange(n)[:, None] + _NODES) * h).ravel())
    om = om.reshape(n, 3)
    de = de.reshape(n, 3)
    # the offset is constant, so it enters a1 alone and cancels from a2, a3
    ax = h * om[:, 1, None]
    az = h * de[:, 1, None]
    k2 = math.sqrt(15.0) * h / 3.0
    bx = k2 * (om[:, 2, None] - om[:, 0, None])
    bz = k2 * (de[:, 2, None] - de[:, 0, None])
    k3 = 10.0 * h / 3.0
    cx = k3 * (om[:, 2, None] - 2.0 * om[:, 1, None] + om[:, 0, None])
    cz = k3 * (de[:, 2, None] - 2.0 * de[:, 1, None] + de[:, 0, None])
    h_off = h * offsets
    q = np.zeros((4, offsets.size))
    q[0] = 1.0
    block = max(1, _CHUNK // offsets.size)
    for lo in range(0, n, block):
        s = slice(lo, lo + block)
        theta = _magnus6(ax[s], az[s] + h_off, bx[s], bz[s], cx[s], cz[s])
        q = _qmul(_compose(_quaternion(*theta)), q)
    return _rotate(q, states)


def _rotate_adaptive(pulse: PulseProgram, offsets: np.ndarray, states: np.ndarray,
                     config: IntegratorConfig) -> np.ndarray:
    """The rotation path: passes of n and 2n steps, doubling n until the
    2n-step states meet the tolerance."""
    n = _initial_steps(pulse, offsets, config)
    coarse = _rotation_pass(pulse, offsets, states, n)
    while True:
        n *= 2
        fine = _rotation_pass(pulse, offsets, states, n)
        err = float(np.max(np.linalg.norm(fine - coarse, axis=1))) / 63.0
        tol = config.abs_tol + config.rel_tol * float(np.max(np.linalg.norm(fine, axis=1)))
        if err <= tol:
            return fine
        if 2 * n > _MAX_STEPS:
            raise IntegrationError(
                f"step budget of {_MAX_STEPS} steps reached with error "
                f"estimate {err:.2e} > {tol:.2e}"
            )
        coarse = fine


def evolve(
    state0: BlochState,
    pulse: PulseProgram,
    damping: DampingModel | None = None,
    config: IntegratorConfig | None = None,
) -> BlochState:
    """Propagate state0 through the full pulse and return the final state.

    Parameters
    ----------
    state0 : BlochState
        Initial Bloch vector.
    pulse : PulseProgram
        Drive program; its duration sets the integration span.
    damping : DampingModel, optional
        Pure dephasing; defaults to none.
    config : IntegratorConfig, optional
        Tolerances and step bound; defaults are rel 1e-9 / abs 1e-12.
    """
    u, v, w = evolve_offsets(pulse, [0.0], state0.as_array(), damping, config)[0]
    return BlochState(u, v, w)


def evolve_trajectory(
    state0: BlochState,
    pulse: PulseProgram,
    damping: DampingModel | None = None,
    config: IntegratorConfig | None = None,
    n_samples: int = 200,
):
    """Like evolve but returns (times, states) sampled along the pulse.

    states has shape (n_samples, 3).  Uses DOP853's dense output, so the
    samples do not perturb step selection.
    """
    sol = _solve(pulse, [0.0], state0.as_array(), damping, config, dense=True)
    times = np.linspace(0.0, pulse.duration, n_samples)
    states = sol.sol(times).T
    return times, states


def evolve_offsets(
    pulse: PulseProgram,
    delta_offsets,
    initial_states=None,
    damping: DampingModel | None = None,
    config: IntegratorConfig | None = None,
) -> np.ndarray:
    """Propagate one trajectory per detuning offset, as a stacked system.

    Trajectory i sees detuning pulse.detuning(t) + delta_offsets[i].
    Without dephasing this is one rotation pass per step count (see the
    module docstring); with dephasing, one DOP853 integration.

    Parameters
    ----------
    delta_offsets : array of shape (n,)
        Constant additions to the pulse detuning, rad/s.
    initial_states : array of shape (n, 3) or (3,), optional
        Per-trajectory start vectors; defaults to the ground state.

    Returns
    -------
    ndarray of shape (n, 3), final Bloch vectors.
    """
    offsets = np.atleast_1d(np.asarray(delta_offsets, dtype=float))
    if not np.all(np.isfinite(offsets)):
        raise ValueError("detuning offsets must be finite")
    n = offsets.size
    if initial_states is None:
        states = np.tile(GROUND.as_array(), (n, 1))
    else:
        states = np.asarray(initial_states, dtype=float)
        if states.shape == (3,):
            states = np.tile(states, (n, 1))
        if states.shape != (n, 3):
            raise ValueError(f"initial_states must have shape ({n}, 3)")
    config = config or IntegratorConfig()
    if n == 0:
        return states
    if damping is not None and damping.gamma_2 > 0:
        sol = _solve(pulse, offsets, states, damping, config, dense=False)
        return sol.y[:, -1].reshape(n, 3)
    return _rotate_adaptive(pulse, offsets, states, config)


def detuning_spectrum(
    pulse,
    delta_c_values,
    damping: DampingModel | None = None,
    config: IntegratorConfig | None = None,
) -> np.ndarray:
    """Transfer probability versus central detuning (rad/s), ground start.

    The pulse must expose a delta_c attribute (the swept passage pulse
    does); each grid value replaces it.  Returns P1 with the grid's
    shape.
    """
    grid = np.asarray(delta_c_values, dtype=float)
    offsets = np.atleast_1d(grid) - pulse.delta_c
    final = evolve_offsets(pulse, offsets, None, damping, config)
    p1 = transfer_probability(final)
    return p1.reshape(grid.shape) if grid.ndim else float(p1[0])
