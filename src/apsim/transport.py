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
which lets one stacked integration evolve the whole ensemble.  The speeds
of a curve stack too: in normalised time s = t / tau the chirp is
2 d grad s^2 on the first half, mirrored on the second, whatever tau, so
a move of duration tau is the plan's own move, of duration plan.tau, with
its whole torque scaled by tau / plan.tau, and ends at the same detuning
d grad.  A curve's durations are time scales of that one move, and its
speeds run in one integration, each at its time scale.  The drive's
switch-on and switch-off are taken as ideal and adiabatic: each member
starts in its dressed ground state and is read out by its projection onto
the final dressed state.

At one speed the transfer is a smooth function of the initial detuning,
so a member need not be integrated on its own.  Each speed integrates 9
Chebyshev-Lobatto (Clenshaw-Curtis) nodes spanning the members'
detunings, and evaluates every member on the barycentric interpolant of
the 9 and on that of the nested 5 (Berrut & Trefethen, SIAM Review 46,
501 (2004)).  Where the two differ by at most 1e-6 on every member, the
members take the 9-node values; the members of the other speeds are
integrated, all of them in one more integration.  The estimate follows
the members' error without bounding it: the transfer carries a small
part that oscillates across the spread, which neither interpolant
resolves, and on the preset's seeds 0-4 members missed by up to 2.8
times the estimate (1.03e-7 at most), their means by at most 0.35 times.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .bloch import evolve_offsets
from .errors import ConfigError
from .scan import TRANSPORT_UNIT, ScanResult
from .units import khz_to_rad_per_s

__all__ = [
    "TransportPlan",
    "interaction_width",
    "transport_transfer",
    "TransportScan",
    "transport_curve",
    "landau_zener_oracle",
]


# work budget of a transport scan: the most ensemble members it may draw,
# and the most (speed, member) pairs one Bloch call of a curve stacks
_MAX_ENSEMBLE = 2**16
# Chebyshev-Lobatto nodes of each speed's interpolant over the spread; the
# nested half of them estimates its error
_NODES = 9
# the largest estimate with which a speed reads its members off the
# interpolant; the package's quadrature tolerance
_TOL = 1e-6


@dataclass(frozen=True)
class TransportPlan:
    """One transport move under constant drive, and the ensemble that runs it.

    d            : transport distance in um (the package's length unit)
    omega_r      : constant Rabi frequency in rad/s
    delta_0      : central initial detuning in rad/s
    spread       : full width of the initial-detuning spread in rad/s, over
                   which the members' detunings are uniform
    grad         : transition-frequency gradient in rad/s per um
    tau          : duration in s of the plan's own move, the unit a curve's
                   durations are scaled to (transport_transfer)
    n_ensemble   : number of members, 1..2^16 (drawing all 2^16 takes about
                   12 ms)
    """

    d: float
    omega_r: float
    delta_0: float
    spread: float
    grad: float
    tau: float = 1e-3
    n_ensemble: int = 32

    def __post_init__(self) -> None:
        if not 0 < self.grad < np.inf:
            raise ConfigError(
                f"grad must be positive and finite in rad/s per um, got {self.grad}")
        # a non-finite value would reach the propagator as a NaN torque
        if not np.all(np.isfinite([self.d, self.omega_r, self.delta_0, self.spread])):
            raise ConfigError("d, omega_r, delta_0 and spread must be finite, got "
                              f"{self.d}, {self.omega_r}, {self.delta_0}, {self.spread}")
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
            raise ConfigError(f"n_ensemble must lie in 1..{_MAX_ENSEMBLE}, got {self.n_ensemble}")

    @classmethod
    def from_khz(cls, d_um, omega_r_khz, delta_0_khz, spread_khz, grad, n_ensemble=32):
        return cls(d_um, khz_to_rad_per_s(omega_r_khz), khz_to_rad_per_s(delta_0_khz),
                   khz_to_rad_per_s(spread_khz), grad, n_ensemble=n_ensemble)


def interaction_width(plan: TransportPlan) -> float:
    """Width 2 omega_r / (d_x omega_at) in micrometers."""
    return 2.0 * plan.omega_r / plan.grad


def _sweep(t, plan: TransportPlan):
    """Detuning accumulated by time t in [0, tau], vectorized."""
    a = 4.0 * plan.d / plan.tau**2
    t = np.asarray(t, dtype=float)
    first = 0.5 * t * t
    second = plan.tau**2 / 4.0 - 0.5 * (plan.tau - t) ** 2
    return a * plan.grad * np.where(t <= plan.tau / 2.0, first, second)


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


# numpy.random's SeedSequence and PCG64 constants (O'Neill, "PCG: A Family of
# Simple Fast Space-Efficient Statistically Good Algorithms for Random Number
# Generation", HMC-CS-2014-0905), so that the draws below equal
# default_rng(SeedSequence(entropy=seed, spawn_key=(i,))).uniform() bit for bit
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 2549297995355413924, 4865540595714422341


def _hashmix(value, const, mult):
    """SeedSequence's hash of a 32-bit word (Python int or uint32 array) under
    the running constant; returns the hash and the next constant."""
    nxt = const * mult & _M32
    value = (value ^ const) * nxt & _M32
    return value ^ value >> 16, nxt


def _mix(x, y):
    """SeedSequence's mix of a pool word with a hashed word."""
    r = ((_MIX_L * x & _M32) - (_MIX_R * y & _M32)) & _M32
    return r ^ r >> 16


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 LCG step, state * multiplier + inc mod 2^128, on (hi, lo)
    uint64 arrays."""
    # high word of lo * _PCG_MULT_LO, from 32-bit halves; no sum overflows
    a0, a1 = lo & _M32, lo >> 32
    b0, b1 = _PCG_MULT_LO & _M32, _PCG_MULT_LO >> 32
    p00, p10 = a0 * b0, a1 * b0
    cross = (p00 >> 32) + (p10 & _M32) + a0 * b1
    hi = a1 * b1 + (p10 >> 32) + (cross >> 32) + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO
    lo = lo * _PCG_MULT_LO + inc_lo
    return hi + inc_hi + (lo < inc_lo), lo


def _substream_uniforms(seed: int, n: int) -> np.ndarray:
    """The first uniform() of default_rng(SeedSequence(entropy=seed,
    spawn_key=(i,))) for i = 0..n-1 (n <= 2^32), vectorized over i.

    The run entropy, seed's 32-bit words padded to four, is mixed into the
    four-word pool in Python ints; the spawn key, the last entropy word,
    and everything after it run as arrays over the members.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    words = [seed >> s & _M32 for s in range(0, seed.bit_length(), 32)] or [0]
    words += [0] * (4 - len(words)) + [np.arange(n, dtype=np.uint32)]
    const, pool = _INIT_A, []
    for w in words[:4]:
        h, const = _hashmix(w, const, _MULT_A)
        pool.append(h)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                h, const = _hashmix(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], h)
    for w in words[4:]:
        for dst in range(4):
            h, const = _hashmix(w, const, _MULT_A)
            pool[dst] = _mix(pool[dst], h)
    # generate_state(4, uint64): eight words cycled from the pool, paired
    # little end first
    const, state = _INIT_B, []
    for k in range(8):
        h, const = _hashmix(pool[k % 4], const, _MULT_B)
        state.append(h.astype(np.uint64))
    s0, s1, s2, s3 = (state[j] | state[j + 1] << 32 for j in range(0, 8, 2))
    # PCG64 seeding: inc = 2 (s2, s3) + 1, state = inc + (s0, s1), one step;
    # then next64's step and its XSL-RR output
    inc_hi, inc_lo = s2 << 1 | s3 >> 63, s3 << 1 | 1
    lo = inc_lo + s1
    hi, lo = _pcg_step(inc_hi + s0 + (lo < s1), lo, inc_hi, inc_lo)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    x, rot = hi ^ lo, hi >> 58
    x = x >> rot | x << (-rot & 63)
    return (x >> 11) * 2.0**-53


def _draw_delta_r(plan: TransportPlan, rng_seed: int):
    """The plan's n_ensemble member detunings (rad/s), uniform over the
    spread around delta_0, from per-member seeded substreams.

    Member i's draw is the first uniform() of numpy's PCG64 under
    SeedSequence(entropy=rng_seed, spawn_key=(i,)), so it depends only on
    (rng_seed, i): draws are independent of evaluation order and identical
    across scan points sharing a seed.  All members are drawn at once, 32
    in about 0.15 ms and the cap of 2^16 in about 12 ms.
    """
    u = _substream_uniforms(rng_seed, plan.n_ensemble)
    return plan.delta_0 + plan.spread * (u - 0.5)


def _transfer(plan: TransportPlan, offsets: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Transfer of the members with initial detunings offsets (rad/s) at
    each of the durations taus (s), (taus.size, offsets.size).

    Duration tau runs as the time scale tau / plan.tau of the plan's own
    move (evolve_offsets's time scales), and every member ends at its
    total sweep d grad.  Each distinct scale runs once.  All (scale,
    member) pairs run in one evolve_offsets call, or, past _MAX_ENSEMBLE
    pairs, in calls of whole scales of at most that many pairs each (or
    one scale), so that a call's memory stays that of one full ensemble.
    """
    n = offsets.size
    # omega_r > 0, so no norm is zero
    norm = np.hypot(plan.omega_r, offsets)
    states0 = np.stack([plan.omega_r / norm, np.zeros(n), offsets / norm], axis=1)
    levels, inverse = np.unique(taus / plan.tau, return_inverse=True)
    ends = offsets + _sweep(plan.tau, plan)
    per_call = max(1, _MAX_ENSEMBLE // n)
    p1 = []
    for i in range(0, levels.size, per_call):
        batch = levels[i : i + per_call]
        final = evolve_offsets(TransportPulse(plan), np.tile(offsets, batch.size),
                               np.tile(states0, (batch.size, 1)), scales=np.repeat(batch, n))
        # read out now, so that no call's final states outlive it
        p1.append(dressed_projection(final.reshape(batch.size, n, 3), plan.omega_r, ends))
        del final
    return np.concatenate(p1)[inverse]


def _interpolate(nodes: np.ndarray, values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The polynomials through values (k, n) at the Chebyshev-Lobatto
    points nodes (n,), in order along the interval, evaluated at x:
    (k, x.size).  Barycentric form (Berrut & Trefethen, SIAM Review 46,
    501 (2004)): the weights are (-1)^j, halved at the ends; a point of x
    on a node takes that node's value."""
    weights = (-1.0) ** np.arange(nodes.size)
    weights[[0, -1]] *= 0.5
    diff = x[:, None] - nodes
    hit = diff == 0.0
    with np.errstate(divide="ignore"):
        c = weights / diff
    on_node = hit.any(axis=1)
    c[on_node] = hit[on_node]
    return values @ c.T / c.sum(axis=1)


def _read_off(plan: TransportPlan, draws: np.ndarray,
              taus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each member's transfer at each of the durations taus (s), read off
    the interpolant of _NODES Chebyshev-Lobatto nodes over [min(draws),
    max(draws)], (taus.size, draws.size), and each duration's estimate:
    the largest difference over the members between that interpolant and
    the one of the nested half of the nodes.  All nodes run in one
    _transfer."""
    lo, hi = draws.min(), draws.max()
    nodes = 0.5 * (lo + hi) - 0.5 * (hi - lo) * np.cos(np.linspace(0.0, np.pi, _NODES))
    nodes[[0, -1]] = lo, hi
    at_nodes = _transfer(plan, nodes, taus)
    fine = _interpolate(nodes, at_nodes, draws)
    coarse = _interpolate(nodes[::2], at_nodes[:, ::2], draws)
    return fine, np.max(np.abs(fine - coarse), axis=1)


def transport_transfer(plan: TransportPlan, draws: np.ndarray,
                       taus) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean transfer probability over the members with initial detunings
    draws (rad/s, one per member), its standard error, and the
    interpolation error estimate, at each transport duration in taus (s);
    transport_curve draws the members once for all its durations.  Each
    duration runs as a time scale of the plan's own move, so plan.tau is
    only the unit the durations are scaled to.  Each member starts in its
    dressed ground state and is read out by its projection onto the final
    dressed state (ideal adiabatic switch-on and switch-off).

    Every duration passes TransportPlan's checks before any member runs.
    A duration whose estimate (_read_off) is at most _TOL takes its
    members' values off the interpolant and returns the estimate; the
    others integrate their members, all of them in one _transfer, and
    return NaN.  With at most _NODES members, or draws that span no
    interval, every duration integrates its members.
    """
    draws = np.asarray(draws, dtype=float)
    if draws.size == 0:
        raise ValueError("draws must hold at least one member detuning")
    if not np.all(np.isfinite(draws)):
        raise ValueError("draws must be finite member detunings in rad/s")
    taus = np.asarray(taus, dtype=float)
    if taus.size == 0:
        raise ValueError("taus must hold at least one duration")
    for tau in taus:
        replace(plan, tau=tau)  # each duration passes the plan's checks
    n_ensemble = draws.size
    p1 = np.empty((taus.size, n_ensemble))
    estimate = np.full(taus.size, np.nan)
    direct = np.arange(taus.size)
    if n_ensemble > _NODES and draws.min() < draws.max():
        fine, err = _read_off(plan, draws, taus)
        accept = err <= _TOL
        p1[accept], estimate[accept] = fine[accept], err[accept]
        direct = np.flatnonzero(~accept)
    if direct.size:
        p1[direct] = _transfer(plan, draws, taus[direct])
    if n_ensemble == 1:
        return p1[:, 0], np.zeros(taus.size), estimate
    return (np.mean(p1, axis=1), np.std(p1, axis=1, ddof=1) / math.sqrt(n_ensemble),
            estimate)


@dataclass(frozen=True)
class TransportScan(ScanResult):
    """A transport curve, and at each speed the estimate of the
    interpolant its members were read off, NaN where they were integrated
    (transport_transfer)."""

    estimate: np.ndarray | None = None

    def interpolant_summary(self) -> str:
        """One line: the speeds read off the interpolant, its node count
        and the largest accepted estimate."""
        read = np.isfinite(self.estimate)
        line = (f"{np.count_nonzero(read)} of {len(self)} speeds read their members off a "
                f"{_NODES}-node interpolant")
        if not read.any():
            return line
        speeds = ", ".join(f"{v:.4g}" for v in self.abscissa[read])
        return f"{line} ({speeds} /ms), largest accepted estimate {np.max(self.estimate[read]):.2e}"


def transport_curve(plan: TransportPlan, inv_tau_per_ms, rng_seed: int = 0) -> TransportScan:
    """Transfer versus transport speed 1/tau (ms^-1).

    Each point is the plan's move run at duration 1 / speed.  All points
    share the plan's n_ensemble member detunings, drawn once from
    rng_seed, so the curve varies only through the dynamics, and all run
    together in one transport_transfer call.
    """
    grid = np.atleast_1d(np.asarray(inv_tau_per_ms, dtype=float))
    if grid.size == 0:
        raise ConfigError("inv_tau grid must be non-empty")
    if np.any(grid <= 0):
        raise ConfigError("inv_tau values must be positive")
    p1, stderr, estimate = transport_transfer(plan, _draw_delta_r(plan, rng_seed), 1e-3 / grid)
    return TransportScan(grid, p1, stderr, TRANSPORT_UNIT, estimate)


def landau_zener_oracle(omega: float, sweep_rate: float) -> float:
    """Transfer probability 1 - exp(-pi omega^2 / (2 rate)) for an ideal
    linear crossing at constant coupling; analytic reference for the
    transport dynamics in the constant-velocity limit."""
    if not sweep_rate > 0:
        raise ValueError(f"sweep_rate must be positive, got {sweep_rate}")
    return 1.0 - math.exp(-math.pi * omega**2 / (2.0 * sweep_rate))
