"""Position-selective addressing in a magnetic field gradient.

A gradient along the trap axis makes the qubit transition frequency a
linear function of position, omega_at(x) = omega_0 + d_x omega_at * x, on
top of the homogeneous guiding-field offset.  A microwave pulse at fixed
carrier is therefore resonant only inside a slice of the register: central
detuning and position offset are the same axis up to the factor
d_x omega_at.  This module provides that unit map, position-domain transfer
spectra, a crosstalk figure for neighbor sites, and plateau/edge metrology
used to quantify addressing resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .scan import ScanResult
from .thermal import ThermalModel, broadened_spectrum
from .units import khz_to_rad_per_s, rad_per_s_to_khz

__all__ = [
    "TrapGeometry",
    "AtomPosition",
    "offset_to_detuning",
    "detuning_to_offset",
    "spatial_spectrum",
    "crosstalk",
    "PlateauMetrics",
    "plateau_metrics",
]


@dataclass(frozen=True)
class TrapGeometry:
    """Gradient and bias-field geometry of the register.

    grad_nu        : transition-frequency gradient in kHz per micrometer
    guide_shift_nu : guiding-field offset of the transition in MHz
                     (bookkeeping only; detunings are measured from the
                     guided transition, so it never enters the dynamics)
    span           : modeled region along the trap axis in micrometers
    """

    grad_nu: float
    guide_shift_nu: float
    span: float

    def __post_init__(self) -> None:
        if not 0 < self.grad_nu < np.inf:
            raise ConfigError(f"grad_nu must be positive and finite, got {self.grad_nu}")
        if not 0 < self.span < np.inf:
            raise ConfigError(f"span must be positive and finite, got {self.span}")
        if not np.isfinite(self.guide_shift_nu):
            raise ConfigError("guide_shift_nu must be finite")

    def to_json_dict(self) -> dict:
        return {
            "grad_nu_khz_per_um": self.grad_nu,
            "guide_shift_nu_mhz": self.guide_shift_nu,
            "span_um": self.span,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "TrapGeometry":
        keys = {"grad_nu_khz_per_um", "guide_shift_nu_mhz", "span_um"}
        if set(d) != keys:
            raise ConfigError(
                f"geometry keys must be exactly {sorted(keys)}, got {sorted(d)}"
            )
        return cls(
            float(d["grad_nu_khz_per_um"]),
            float(d["guide_shift_nu_mhz"]),
            float(d["span_um"]),
        )


@dataclass(frozen=True)
class AtomPosition:
    """Position along the trap axis in micrometers, relative to the
    gradient's reference zero.  Must lie within the modeled span; use sites
    validate against the geometry at hand."""

    x: float


def _as_x(pos) -> float:
    return float(pos.x) if isinstance(pos, AtomPosition) else float(pos)


def _check_in_span(x: float, g: TrapGeometry, name: str) -> None:
    if abs(x) > g.span / 2:
        raise ConfigError(
            f"{name} = {x} um outside modeled span +-{g.span / 2} um"
        )


def offset_to_detuning(dx, g: TrapGeometry):
    """Central detuning (rad/s) of an atom offset dx (um) from resonance."""
    return khz_to_rad_per_s(g.grad_nu * np.asarray(dx, dtype=float))


def detuning_to_offset(delta_c, g: TrapGeometry):
    """Inverse of offset_to_detuning: position offset in micrometers."""
    return rad_per_s_to_khz(np.asarray(delta_c, dtype=float)) / g.grad_nu


def spatial_spectrum(
    pulse,
    g: TrapGeometry,
    m: ThermalModel,
    dx_grid,
    *,
    damping=None,
    config=None,
    renormalize: bool = False,
) -> ScanResult:
    """Broadened transfer probability versus position offset (um).

    Each grid point is the full convolved spectrum evaluated at
    delta_c = offset_to_detuning(dx); the bare spectrum is batch-integrated
    once for the whole grid.
    """
    dx = np.atleast_1d(np.asarray(dx_grid, dtype=float))
    if dx.size == 0:
        raise ConfigError("dx_grid must be non-empty")
    vals = broadened_spectrum(pulse, m, offset_to_detuning(dx, g), renormalize=renormalize,
                              damping=damping, config=config)
    return ScanResult(dx, np.asarray(vals, dtype=float), None, "um")


def crosstalk(
    pulse,
    target_x,
    neighbor_x,
    g: TrapGeometry,
    m: ThermalModel,
    *,
    damping=None,
    config=None,
    renormalize: bool = False,
) -> float:
    """Transfer probability of a neighbor while the pulse addresses a target.

    The carrier is centered on the target site, so the neighbor sees
    delta_c = offset_to_detuning(target_x - neighbor_x).  Positions are
    absolute and must lie within the modeled span.
    """
    tx, nx = _as_x(target_x), _as_x(neighbor_x)
    _check_in_span(tx, g, "target_x")
    _check_in_span(nx, g, "neighbor_x")
    return float(broadened_spectrum(pulse, m, offset_to_detuning(tx - nx, g),
                                    renormalize=renormalize, damping=damping, config=config))


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
