"""Pulse programs: time-dependent Rabi frequency and detuning.

A pulse program is anything with a ``duration`` (s) and two methods
``rabi(t)`` and ``detuning(t)`` returning rad/s.  Both take t, a float or
an ndarray inside [0, duration], and return values that broadcast to t's
shape: a constant drive may return its constant.  Nothing clamps or
checks t; the callers sample inside the pulse.  The one kind a config
can build, ``APPulse``, also has ``rabi_dot(t)`` and ``detuning_dot(t)``
(rad/s^2) under the same contract, for ``adiabaticity``, which checks
the range of t.  The transport drive (``transport.TransportPulse``) is
the other program the package runs.

``APPulse`` is the swept passage pulse

    rabi(t)     = omega_max * sin^2(pi t / t_p)
    detuning(t) = delta_c + sign(t - t_p/2) * delta_max * sqrt(1 - sin^4(pi t / t_p))

with sign(0) taken as +1 at the midpoint.  The envelope vanishes at both
ends while the detuning sweeps monotonically from delta_c - delta_max to
delta_c + delta_max.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from .units import khz_to_rad_per_s, ms_to_s

__all__ = [
    "PulseProgram",
    "APPulse",
    "adiabaticity",
    "max_adiabaticity",
]


@runtime_checkable
class PulseProgram(Protocol):
    duration: float

    def rabi(self, t): ...

    def detuning(self, t): ...


@dataclass(frozen=True)
class APPulse:
    """Swept passage pulse. All fields in rad/s except t_p in s.

    delta_max >= 0 fixes the sweep direction: upward through resonance.
    """

    omega_max: float
    delta_max: float
    delta_c: float
    t_p: float

    def __post_init__(self):
        if not np.all(np.isfinite([self.omega_max, self.delta_max, self.delta_c, self.t_p])):
            raise ValueError("pulse parameters must be finite")
        if self.omega_max <= 0:
            raise ValueError("omega_max must be positive")
        if self.delta_max < 0:
            raise ValueError("delta_max must be non-negative")
        if self.t_p <= 0:
            raise ValueError("t_p must be positive")
        # the derivatives scale with these rates; an infinite one would
        # turn sin(0) * inf into NaN
        if not np.isfinite(max(self.omega_max, self.delta_max) * np.pi / self.t_p):
            raise ValueError("omega_max pi / t_p and delta_max pi / t_p must be finite")

    @classmethod
    def from_khz(cls, omega_max_khz, delta_max_khz, delta_c_khz, t_p_ms):
        return cls(
            omega_max=khz_to_rad_per_s(omega_max_khz),
            delta_max=khz_to_rad_per_s(delta_max_khz),
            delta_c=khz_to_rad_per_s(delta_c_khz),
            t_p=ms_to_s(t_p_ms),
        )

    @property
    def duration(self) -> float:
        return self.t_p

    def _phase(self, t):
        return np.pi * t / self.t_p

    def rabi(self, t):
        return self.omega_max * np.sin(self._phase(t)) ** 2

    def detuning(self, t):
        phi = self._phase(t)
        s2 = np.sin(phi) ** 2
        # roundoff can push sin^4 past 1 at the midpoint
        radicand = np.maximum(1.0 - s2 * s2, 0.0)
        sign = np.where(t >= 0.5 * self.t_p, 1.0, -1.0)
        return self.delta_c + sign * self.delta_max * np.sqrt(radicand)

    def rabi_dot(self, t):
        phi = self._phase(t)
        return self.omega_max * (np.pi / self.t_p) * np.sin(2.0 * phi)

    def detuning_dot(self, t):
        # d/dt of the sweep simplifies to the same expression on both
        # halves: 2 delta_max (pi/t_p) sin^3(phi) / sqrt(1 + sin^2(phi)).
        phi = self._phase(t)
        s = np.sin(phi)
        return 2.0 * self.delta_max * (np.pi / self.t_p) * s**3 / np.sqrt(1.0 + s * s)


def adiabaticity(t, pulse: APPulse):
    """Local adiabaticity parameter, dimensionless.

        |detuning_dot * rabi - detuning * rabi_dot| / (2 (rabi^2 + detuning^2)^(3/2))

    Small values mean adiabatic following.  Where rabi and detuning
    vanish simultaneously the parameter is undefined and +inf is
    returned.  t must lie in [0, duration]; the result has t's shape.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0) or np.any(t > pulse.duration):
        raise ValueError(f"t outside [0, {pulse.duration}]")
    om = pulse.rabi(t)
    de = pulse.detuning(t)
    om_d = pulse.rabi_dot(t)
    de_d = pulse.detuning_dot(t)
    gap2 = om * om + de * de
    num = np.abs(de_d * om - de * om_d)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = num / (2.0 * gap2**1.5)
    return np.where(gap2 == 0.0, np.inf, val)


def max_adiabaticity(pulse: APPulse, grid_points: int = 4096) -> float:
    """Max adiabaticity over a uniform interior grid (endpoints excluded;
    the passage pulse has rabi = 0 there)."""
    if grid_points < 1:
        raise ValueError("grid_points must be >= 1")
    grid = np.linspace(0.0, pulse.duration, grid_points + 2)[1:-1]
    return float(np.max(adiabaticity(grid, pulse)))
