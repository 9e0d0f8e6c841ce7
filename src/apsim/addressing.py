"""Position-selective addressing in a magnetic field gradient.

A gradient along the trap axis makes the qubit transition frequency a
linear function of position, omega_at(x) = omega_0 + d_x omega_at * x.
Detunings are measured from the transition at the gradient's zero, so
the homogeneous guiding-field offset never enters.  A microwave pulse at
fixed carrier is therefore resonant only inside a slice of the register:
central detuning and position offset are the same axis up to the factor
d_x omega_at, which the library takes in rad/s per um.  This module
provides that unit map, a crosstalk figure for neighbor sites, and
plateau/edge metrology used to quantify addressing resolution; a spatial
spectrum is a spectrum scan over that axis (config.RunConfig.detunings).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .thermal import ThermalModel, broadened_spectrum

__all__ = ["crosstalk", "plateau_metrics"]


def offset_to_detuning(dx, grad: float):
    """Central detuning (rad/s) of an atom offset dx (um) from resonance in
    a gradient of grad rad/s per um."""
    return grad * np.asarray(dx, dtype=float)


def crosstalk(pulse, target_x, neighbor_x, grad: float, m: ThermalModel) -> float:
    """Transfer probability of a neighbor while the pulse addresses a target.

    The carrier is centered on the target site, so the neighbor sees
    delta_c = offset_to_detuning(target_x - neighbor_x) in a gradient of
    grad rad/s per um.  Positions are absolute, in micrometers from the
    gradient's reference zero.
    """
    dx = float(target_x) - float(neighbor_x)
    return float(broadened_spectrum(pulse, m, offset_to_detuning(dx, grad)))


@dataclass(frozen=True)
class PlateauMetrics:
    """Crossings of two probability levels around a single plateau.

    All positions are in the abscissa's unit.  hi_left/hi_right bracket the
    region above level_hi; lo_left/lo_right the (wider) region above
    level_lo.  Edge widths measure how fast the curve falls from level_hi
    to level_lo on each side.
    """

    level_hi: float
    level_lo: float
    hi_left: float
    hi_right: float
    lo_left: float
    lo_right: float

    @property
    def plateau_width(self) -> float:
        return self.hi_right - self.hi_left

    @property
    def left_edge_width(self) -> float:
        return self.hi_left - self.lo_left

    @property
    def right_edge_width(self) -> float:
        return self.lo_right - self.hi_right


def _cross_out(x, y, i_from: int, level: float, step: int) -> float:
    """First crossing of `level` walking outward from index i_from.

    Linear interpolation between the bracketing samples; the curve is
    assumed to stay below `level` once it has crossed.
    """
    i = i_from
    while 0 <= i + step < len(y):
        j = i + step
        if y[j] < level <= y[i]:
            t = (level - y[i]) / (y[j] - y[i])
            return float(x[i] + t * (x[j] - x[i]))
        i = j
    raise ValueError(
        f"curve never falls below {level} within the sampled range"
    )


def plateau_metrics(x, y, level_hi: float, level_lo: float) -> PlateauMetrics:
    """Locate the level_hi and level_lo crossings around the global peak.

    x must be strictly increasing and y single-plateaued (one contiguous
    region above each level); raises ValueError when the peak never reaches
    level_hi or the grid does not extend past a crossing.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or len(x) < 3:
        raise ValueError("need matching 1-d arrays with >= 3 samples")
    if np.any(np.diff(x) <= 0):
        raise ValueError("abscissa must increase strictly")
    if not level_lo < level_hi:
        raise ValueError("need level_lo < level_hi")
    peak = int(np.argmax(y))
    if y[peak] < level_hi:
        raise ValueError(
            f"peak value {y[peak]:.4f} never reaches level {level_hi:.4f}"
        )
    return PlateauMetrics(
        level_hi=level_hi,
        level_lo=level_lo,
        hi_left=_cross_out(x, y, peak, level_hi, -1),
        hi_right=_cross_out(x, y, peak, level_hi, +1),
        lo_left=_cross_out(x, y, peak, level_lo, -1),
        lo_right=_cross_out(x, y, peak, level_lo, +1),
    )
