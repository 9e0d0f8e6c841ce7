"""Exception types shared across the package."""

from __future__ import annotations


class ConfigError(ValueError):
    """Invalid configuration: unknown keys, wrong types, bad grids."""


class IntegrationError(RuntimeError):
    """The Bloch integrator failed, was fed non-finite pulse values, or
    would exceed its step budget; or a spectrum cache would exceed its
    point budget before its spline error estimate met the tolerance."""


class QuadratureError(RuntimeError):
    """The thermal convolution reached its interval budget before its
    error estimate met the tolerance.

    Carries the best estimate so callers can decide whether to accept it.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class FitDataError(ValueError):
    """Fit input data is degenerate (constant or too short)."""
