"""Exception types shared across the package."""

from __future__ import annotations

__all__ = ["ConfigError", "IntegrationError", "QuadratureError", "FitDataError"]


class ConfigError(ValueError):
    """Invalid configuration: unknown keys, wrong types, bad grids."""


class IntegrationError(RuntimeError):
    """The Bloch integrator failed, was fed non-finite pulse values, or
    would exceed its step budget; or a spectrum cache would exceed its
    point budget before its spline error estimate met the tolerance."""


class QuadratureError(RuntimeError):
    """The thermal convolution reached its interval budget before its
    error estimate met the tolerance; the message names both."""


class FitDataError(ValueError):
    """Fit input data is degenerate (constant or too short)."""
