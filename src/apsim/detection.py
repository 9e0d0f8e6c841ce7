"""State detection by push-out: mapping true transfer to measured survival.

Detection removes atoms left in the lower qubit state and counts the
survivors, so the measured quantity is a survival probability, compressed
and offset relative to the true transfer probability by three device
numbers: the push-out removal efficiency for lower-state atoms, the
retention probability for upper-state atoms, and the preparation fidelity
of the initial state.  An atom that failed preparation is taken to sit in
a level untouched by the drive but retained like an upper-state atom; this
composition rule (a modeling choice, not a measured fact) is what caps
measured plateaus below unity:

    measured = p_init * (p1 * eps_keep + (1 - p1) * (1 - eps_pushout))
               + (1 - p_init) * eps_keep
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = ["DetectionModel", "apply_detection"]


@dataclass(frozen=True)
class DetectionModel:
    """Push-out detection efficiencies and preparation fidelity.

    eps_pushout : probability a lower-state atom is removed
    eps_keep    : probability an upper-state atom survives detection
    p_init      : probability the atom starts in the intended state
    """

    eps_pushout: float = 0.99
    eps_keep: float = 0.99
    p_init: float = 0.95

    def __post_init__(self) -> None:
        for name in ("eps_pushout", "eps_keep", "p_init"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {val}")

    @property
    def slope(self) -> float:
        """d measured / d p1: scales sampling errors through the map."""
        return self.p_init * (self.eps_keep + self.eps_pushout - 1.0)


def apply_detection(p1_true, det: DetectionModel):
    """Measured survival probability for a true transfer probability.

    Accepts scalars or arrays; values outside [0, 1] are rejected.
    """
    p1 = np.asarray(p1_true, dtype=float)
    if np.any(p1 < 0.0) or np.any(p1 > 1.0) or not np.all(np.isfinite(p1)):
        raise ValueError("p1_true must lie in [0, 1]")
    out = (
        det.p_init * (p1 * det.eps_keep + (1.0 - p1) * (1.0 - det.eps_pushout))
        + (1.0 - det.p_init) * det.eps_keep
    )
    return float(out) if out.ndim == 0 else out
