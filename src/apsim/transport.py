"""Transport-induced adiabatic passages.

Moving an atom a distance d along the gradient while a constant microwave
drive is on sweeps its detuning through resonance: the transport itself is
the frequency chirp.  For a smooth move with constant acceleration a =
4 d / tau^2 during the first half and the mirrored deceleration during the
second, the detuning seen by the atom is piecewise parabolic in time
(quadratic ramp up to tau/2, mirrored approach to the final value).  The
total sweep is d_x omega_at * d, independent of duration; how adiabatic the
single crossing is depends on tau.

The initial detuning delta_r is random across repetitions because the atom
starts at a random position within the loading region, uniformly spread
over it, so observed transfer probabilities are ensemble averages.  All
members share the pulse shape and differ by a constant detuning offset,
which lets one stacked integration evolve the whole ensemble.  The drive's
switch-on and switch-off are taken as ideal and adiabatic: each member
starts in its dressed ground state and is read out by its projection onto
the final dressed state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.random import SeedSequence, default_rng

from .addressing import TrapGeometry
from .bloch import evolve_offsets
from .errors import ConfigError
from .scan import TRANSPORT_UNIT, ScanResult
from .units import khz_to_rad_per_s

__all__ = [
    "TransportPlan",
    "interaction_width",
    "transport_transfer",
    "transport_curve",
    "landau_zener_oracle",
]


# work budget of a transport scan: the most ensemble members it may draw
_MAX_ENSEMBLE = 2**16


@dataclass(frozen=True)
class TransportPlan:
    """One transport move under constant drive, and the ensemble that runs it.

    d            : transport distance in um (the package's length unit)
    omega_r      : constant Rabi frequency in rad/s
    delta_0      : central initial detuning in rad/s
    spread       : full width of the initial-detuning spread in rad/s, over
                   which the members' detunings are uniform
    g            : trap geometry providing the frequency gradient
    tau          : transport duration in s; transport_curve sets it per speed
    n_ensemble   : number of members, 1..2^16 (drawing costs about 23 us each)
    """

    d: float
    omega_r: float
    delta_0: float
    spread: float
    g: TrapGeometry
    tau: float = 1e-3
    n_ensemble: int = 32

    def __post_init__(self) -> None:
        if not self.d > 0:
            raise ConfigError(f"d must be positive, got {self.d}")
        if not self.tau > 0:
            raise ConfigError(f"tau must be positive, got {self.tau}")
        with np.errstate(over="ignore", divide="ignore"):
            accel = 4.0 * self.d / np.float64(self.tau) ** 2
        if not 0.0 < accel < np.inf:
            raise ConfigError(f"tau = {self.tau} s gives no finite positive chirp 4 d / tau^2")
        if not self.omega_r > 0:
            raise ConfigError(f"omega_r must be positive, got {self.omega_r}")
        if not self.spread >= 0:
            raise ConfigError(f"spread must be >= 0, got {self.spread}")
        if not 1 <= self.n_ensemble <= _MAX_ENSEMBLE:
            raise ConfigError(f"transport.n_ensemble must lie in 1..{_MAX_ENSEMBLE}")

    def grad(self) -> float:
        """Frequency gradient in rad/s per micrometer."""
        return khz_to_rad_per_s(self.g.grad_nu)


def interaction_width(plan: TransportPlan) -> float:
    """Width 2 omega_r / (d_x omega_at) in micrometers."""
    return 2.0 * plan.omega_r / plan.grad()


def _sweep(t, plan: TransportPlan):
    """Detuning accumulated by time t in [0, tau], vectorized."""
    a = 4.0 * plan.d / plan.tau**2
    t = np.asarray(t, dtype=float)
    first = 0.5 * t * t
    second = plan.tau**2 / 4.0 - 0.5 * (plan.tau - t) ** 2
    return a * plan.grad() * np.where(t <= plan.tau / 2.0, first, second)


@dataclass(frozen=True)
class TransportPulse:
    """Constant drive plus the transport chirp, as a pulse program.

    The drive is on at omega_r for the whole move.  The detuning starts at
    0; each member's initial detuning delta_r is its trajectory's offset.
    """

    plan: TransportPlan

    @property
    def duration(self) -> float:
        return self.plan.tau

    def rabi(self, t):
        return self.plan.omega_r

    def detuning(self, t):
        return _sweep(t, self.plan)


def dressed_projection(states, omega, delta):
    """Population in the dressed upper state, (1 + r . T_hat)/2, of the
    (..., 3) array states; omega > 0 and delta broadcast against its
    leading axes.
    """
    norm = np.hypot(omega, delta)
    return 0.5 * (1.0 + (states[..., 0] * (omega / norm) + states[..., 2] * (delta / norm)))


def _draw_delta_r(plan: TransportPlan, rng_seed: int):
    """The plan's n_ensemble member detunings (rad/s), uniform over the
    spread around delta_0, from per-member seeded substreams.

    Member i always consumes the substream (rng_seed, spawn_key=(i,)), so
    draws are independent of evaluation order and identical across scan
    points sharing a seed.  Each member costs about 23 us, which is why
    the plan caps n_ensemble.
    """
    out = np.empty(plan.n_ensemble)
    for i in range(plan.n_ensemble):
        rng = default_rng(SeedSequence(entropy=rng_seed, spawn_key=(i,)))
        out[i] = plan.delta_0 + plan.spread * (rng.uniform() - 0.5)
    return out


def transport_transfer(plan: TransportPlan, draws: np.ndarray) -> tuple[float, float]:
    """Mean transfer probability over the members with initial detunings
    draws (rad/s, one per member), and its standard error; transport_curve
    draws them once for all its points.  Each member starts in its dressed
    ground state and is read out by its projection onto the final dressed
    state (ideal adiabatic switch-on and switch-off).
    """
    n_ensemble = draws.size
    # omega_r > 0, so no norm is zero; math.hypot, since np.hypot differs
    # from it in the last bit and would move the outputs
    norm = np.array([math.hypot(plan.omega_r, d) for d in draws])
    states0 = np.stack([plan.omega_r / norm, np.zeros(n_ensemble), draws / norm], axis=1)
    final = evolve_offsets(TransportPulse(plan), draws, initial_states=states0)
    p1 = dressed_projection(final, plan.omega_r, draws + _sweep(plan.tau, plan))
    stderr = 0.0 if n_ensemble == 1 else float(np.std(p1, ddof=1) / math.sqrt(n_ensemble))
    return float(np.mean(p1)), stderr


def transport_curve(plan: TransportPlan, inv_tau_per_ms, rng_seed: int = 0) -> ScanResult:
    """Transfer versus transport speed 1/tau (ms^-1).

    Points are evaluated one after another, in grid order, each with the
    plan's tau replaced by 1 / speed.  All points share the plan's
    n_ensemble member detunings, drawn once from rng_seed, so the curve
    varies only through the dynamics.
    """
    grid = np.atleast_1d(np.asarray(inv_tau_per_ms, dtype=float))
    if grid.size == 0:
        raise ConfigError("inv_tau grid must be non-empty")
    if np.any(grid <= 0):
        raise ConfigError("inv_tau values must be positive")
    draws = _draw_delta_r(plan, rng_seed)
    p1, stderr = np.array([transport_transfer(replace(plan, tau=1e-3 / v), draws) for v in grid]).T
    return ScanResult(grid, p1, stderr, TRANSPORT_UNIT)


def landau_zener_oracle(omega: float, sweep_rate: float) -> float:
    """Transfer probability 1 - exp(-pi omega^2 / (2 rate)) for an ideal
    linear crossing at constant coupling; analytic reference for the
    transport dynamics in the constant-velocity limit."""
    if not sweep_rate > 0:
        raise ValueError(f"sweep_rate must be positive, got {sweep_rate}")
    return 1.0 - math.exp(-math.pi * omega**2 / (2.0 * sweep_rate))
