"""Oracles that exist only for the tests.

Four pulse programs, which follow the package's pulse contract (rabi(t)
and detuning(t) take t inside [0, duration] and return values that
broadcast to t's shape), a DOP853 integration of the Bloch equations,
the dressed ground state, the light-shift density with a sampler of it,
the Monte Carlo and quadrature references of the thermal convolution,
and a quadrature over the transport spread, the reference of the
seeded transport ensemble.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from apsim.transport import TransportPulse, transport_transfer


class _InvertedPulse:
    """Exact inverse program: time-mirrored with omega and delta negated.

    Evolving under base then under inverted(base) returns any state to
    its start; negating the detuning alone does not.
    """

    def __init__(self, base):
        self.base = base
        self.duration = base.duration

    def rabi(self, t):
        return -self.base.rabi(self.duration - t)

    def detuning(self, t):
        return -self.base.detuning(self.duration - t)


def inverted(pulse):
    return _InvertedPulse(pulse)


@dataclass(frozen=True)
class RectPulse:
    """Constant drive: omega and delta in rad/s for t_p s.

    Its rotation about the fixed axis (omega, 0, delta) is the exact
    solution the Bloch tests hold the propagators to.
    """

    omega: float
    delta: float
    t_p: float

    @property
    def duration(self) -> float:
        return self.t_p

    def rabi(self, t):
        return self.omega

    def detuning(self, t):
        return self.delta


@dataclass(frozen=True)
class LinearSweepPulse:
    """Constant drive with detuning rate * (t - duration/2).

    The idealized constant-velocity crossing behind the Landau-Zener
    oracle; choose duration large enough that the edges are far off
    resonance compared to both omega and sqrt(rate).
    """

    omega: float
    rate: float
    duration: float

    def rabi(self, t):
        return self.omega

    def detuning(self, t):
        return self.rate * (t - self.duration / 2.0)


@dataclass(frozen=True)
class RampedTransportPulse:
    """The transport pulse of plan led by a sin^2 switch-on of its drive.

    For the first ramp seconds the drive rises as omega_r sin^2(pi t /
    (2 ramp)) with the detuning held at its start; then the move runs as
    TransportPulse(plan).  Started in the bare ground state, it is the real
    switch-on that the transport model's dressed start idealizes.
    """

    plan: object
    ramp: float

    @property
    def duration(self) -> float:
        return self.ramp + self.plan.tau

    def rabi(self, t):
        rise = np.sin(np.pi * t / (2.0 * self.ramp)) ** 2
        return self.plan.omega_r * np.where(t < self.ramp, rise, 1.0)

    def detuning(self, t):
        return TransportPulse(self.plan).detuning(np.maximum(t - self.ramp, 0.0))


def dop853_final(pulse, offsets, states, rel_tol=1e-12, abs_tol=1e-14):
    """Final Bloch vectors, (n, 3), of the trajectories that start in
    states (n, 3) and see detuning pulse.detuning(t) + offsets[i]: scipy's
    DOP853 on the equations of the apsim.bloch docstring, the reference
    the rotation path is held to."""
    offsets = np.asarray(offsets, dtype=float)

    def rhs(t, y):
        om, de = float(pulse.rabi(t)), float(pulse.detuning(t))
        u, v, w = y.reshape(-1, 3).T
        d = de + offsets
        return np.stack([-d * v, d * u - om * w, om * v], axis=1).ravel()

    sol = solve_ivp(rhs, (0.0, pulse.duration), np.asarray(states, dtype=float).ravel(),
                    method="DOP853", rtol=rel_tol, atol=abs_tol)
    assert sol.success, sol.message
    return sol.y[:, -1].reshape(-1, 3)


def dressed_ground(omega, delta):
    """Bloch vector along the torque axis (omega, 0, delta): the state an
    adiabatic switch-on of the drive carries |0> into."""
    return np.array([omega, 0.0, delta]) / math.hypot(omega, delta)


def boltzmann_pdf(delta_ls, m):
    """Probability density (per rad/s) of the light shift of the thermal
    model m, the Gamma(3) density of the apsim.thermal docstring."""
    x = np.asarray(delta_ls, dtype=float) - m.delta_ls_max
    th = m.delta_th
    with np.errstate(over="ignore"):
        val = np.where(x >= 0.0, x * x / (2.0 * th**3) * np.exp(-x / th), 0.0)
    return float(val) if np.ndim(delta_ls) == 0 else val


def sample_light_shift(m, rng_seed, n=None):
    """Light shifts (rad/s) drawn from boltzmann_pdf; deterministic for a
    given seed.  A float for n=None, else an ndarray of shape (n,)."""
    rng = np.random.default_rng(rng_seed)
    draws = m.delta_ls_max + rng.gamma(3.0, m.delta_th, size=n)
    return float(draws) if n is None else draws


def gauss_legendre_transport_mean(plan, taus, nodes=8):
    """Transfer at each duration in taus (s), averaged over initial
    detunings uniform over the plan's spread by Gauss-Legendre quadrature:
    the integral that transport_transfer's seeded members estimate.  Each
    node runs as an ensemble of one."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    draws = plan.delta_0 + 0.5 * plan.spread * x
    p1 = np.array([transport_transfer(plan, np.array([d]), taus)[0] for d in draws])
    return w @ p1 / 2.0
