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
starts at a random position within the loading region, so observed transfer
probabilities are ensemble averages.  All members share the pulse shape and
differ by a constant detuning offset, which lets one stacked integration
evolve the whole ensemble.
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


@dataclass(frozen=True)
class TransportPlan:
    """Parameters of one transport move under constant drive.

    d          : transport distance in micrometers
    tau        : transport duration in seconds
    omega_r    : constant Rabi frequency in rad/s
    delta_0_nu : central initial detuning in kHz
    spread_nu  : full width of the initial-detuning spread in kHz
    g          : trap geometry providing the frequency gradient
    """

    d: float
    tau: float
    omega_r: float
    delta_0_nu: float
    spread_nu: float
    g: TrapGeometry

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
        if not self.spread_nu >= 0:
            raise ConfigError(f"spread_nu must be >= 0, got {self.spread_nu}")

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

    The detuning starts at 0; each member's initial detuning delta_r is
    its trajectory's offset.
    """

    plan: TransportPlan

    @property
    def duration(self) -> float:
        return self.plan.tau

    def rabi(self, t):
        return self.plan.omega_r

    def detuning(self, t):
        return _sweep(t, self.plan)


@dataclass(frozen=True)
class _RampedTransportPulse:
    """Transport pulse with a sin^2 drive switch-on of length t_ramp
    prepended (detuning held at its initial value during the ramp)."""

    plan: TransportPlan
    t_ramp: float

    @property
    def duration(self) -> float:
        return self.plan.tau + self.t_ramp

    def rabi(self, t):
        env = np.where(t < self.t_ramp, np.sin(np.pi * t / (2.0 * self.t_ramp)) ** 2, 1.0)
        return self.plan.omega_r * env

    def detuning(self, t):
        return _sweep(np.maximum(t - self.t_ramp, 0.0), self.plan)


def dressed_projection(states, omega, delta):
    """Population in the dressed upper state, (1 + r . T_hat)/2, of the
    (..., 3) array states; omega > 0 and delta broadcast against its
    leading axes.
    """
    norm = np.hypot(omega, delta)
    return 0.5 * (1.0 + (states[..., 0] * (omega / norm) + states[..., 2] * (delta / norm)))


def _draw_delta_r(plan: TransportPlan, n: int, rng_seed: int, distribution: str):
    """Member detunings (rad/s) from per-member seeded substreams.

    Member i always consumes the substream (rng_seed, spawn_key=(i,)), so
    draws are independent of evaluation order and identical across scan
    points sharing a seed.  Each member costs about 23 us, which is why
    the config caps n.
    """
    if n < 1:
        raise ConfigError(f"n_ensemble must be >= 1, got {n}")
    delta_0 = khz_to_rad_per_s(plan.delta_0_nu)
    spread = khz_to_rad_per_s(plan.spread_nu)
    out = np.empty(n)
    for i in range(n):
        rng = default_rng(SeedSequence(entropy=rng_seed, spawn_key=(i,)))
        if distribution == "uniform":
            out[i] = delta_0 + spread * (rng.uniform() - 0.5)
        elif distribution == "gaussian":
            # variance-matched to the uniform option
            out[i] = delta_0 + spread / math.sqrt(12.0) * rng.standard_normal()
        else:
            raise ConfigError(f"unknown distribution: {distribution!r}")
    return out


@dataclass(frozen=True)
class TransportResult:
    """Ensemble-averaged transfer with its sampling error."""

    p1: float
    stderr: float


def transport_transfer(
    plan: TransportPlan,
    draws: np.ndarray,
    damping=None,
    *,
    switch_on: str = "dressed",
    ramp_time: float = 1e-3,
    readout: str = "dressed",
    config=None,
) -> TransportResult:
    """Mean transfer probability over the members with initial detunings
    draws (rad/s, one per member); transport_curve draws them once for
    all its points.

    switch_on "dressed" starts each member in the instantaneous dressed
    ground state, the Bloch vector along its torque axis (omega_r, 0,
    delta_r) (ideal adiabatic switch-on); "ramp" starts in the bare
    ground state and prepends a sin^2 drive ramp of length ramp_time.
    readout "dressed" projects onto the final dressed state (ideal
    adiabatic switch-off); "bare" reads (1 + w)/2 directly.
    """
    n_ensemble = draws.size

    if switch_on == "dressed":
        pulse = TransportPulse(plan)
        # omega_r > 0, so no norm is zero; math.hypot, since np.hypot
        # differs from it in the last bit and would move the outputs
        norm = np.array([math.hypot(plan.omega_r, d) for d in draws])
        states0 = np.stack([plan.omega_r / norm, np.zeros(n_ensemble), draws / norm], axis=1)
    elif switch_on == "ramp":
        if not ramp_time > 0:
            raise ConfigError(f"ramp_time must be positive, got {ramp_time}")
        pulse = _RampedTransportPulse(plan, ramp_time)
        states0 = None  # the bare ground state
    else:
        raise ConfigError(f"unknown switch_on mode: {switch_on!r}")

    final = evolve_offsets(pulse, draws, initial_states=states0,
                           damping=damping, config=config)

    delta_end = draws + _sweep(plan.tau, plan)
    if readout == "dressed":
        p1 = dressed_projection(final, plan.omega_r, delta_end)
    elif readout == "bare":
        p1 = 0.5 * (1.0 + final[:, 2])
    else:
        raise ConfigError(f"unknown readout mode: {readout!r}")

    mean = float(np.mean(p1))
    stderr = (
        0.0
        if n_ensemble == 1
        else float(np.std(p1, ddof=1) / math.sqrt(n_ensemble))
    )
    return TransportResult(mean, stderr)


def transport_curve(
    plan: TransportPlan,
    inv_tau_per_ms,
    damping=None,
    n_ensemble: int = 32,
    rng_seed: int = 0,
    *,
    distribution: str = "uniform",
    **kwargs,
) -> ScanResult:
    """Transfer versus transport speed 1/tau (ms^-1).

    Points are evaluated one after another, in grid order.  All points
    share the same n_ensemble per-member detuning draws, drawn once from
    rng_seed ("uniform" or variance-matched "gaussian" distribution), so
    the curve varies only through the dynamics.  kwargs go to
    transport_transfer.
    """
    grid = np.atleast_1d(np.asarray(inv_tau_per_ms, dtype=float))
    if grid.size == 0:
        raise ConfigError("inv_tau grid must be non-empty")
    if np.any(grid <= 0):
        raise ConfigError("inv_tau values must be positive")
    draws = _draw_delta_r(plan, n_ensemble, rng_seed, distribution)
    results = [
        transport_transfer(replace(plan, tau=1e-3 / v), draws, damping, **kwargs) for v in grid
    ]
    return ScanResult(
        grid,
        np.array([r.p1 for r in results]),
        np.array([r.stderr for r in results]),
        TRANSPORT_UNIT,
    )


def landau_zener_oracle(omega: float, sweep_rate: float) -> float:
    """Transfer probability 1 - exp(-pi omega^2 / (2 rate)) for an ideal
    linear crossing at constant coupling; analytic reference for the
    transport dynamics in the constant-velocity limit."""
    if not sweep_rate > 0:
        raise ValueError(f"sweep_rate must be positive, got {sweep_rate}")
    return 1.0 - math.exp(-math.pi * omega**2 / (2.0 * sweep_rate))
