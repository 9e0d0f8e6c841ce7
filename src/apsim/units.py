"""Unit conventions and conversions.

Configuration files, presets and CSV output use ordinary-frequency kHz,
time in ms and position in um.  All internal state is SI: angular
frequency in rad/s, time in s, position in um (positions never mix with
SI lengths here, so um is kept throughout).

Every kHz <-> rad/s conversion in the package goes through the two
functions below so the 2*pi*1e3 factor exists in exactly one place.
"""

from __future__ import annotations

import math

__all__ = ["khz_to_rad_per_s", "rad_per_s_to_khz", "ms_to_s"]

_TWO_PI_KHZ = 2.0 * math.pi * 1.0e3


def khz_to_rad_per_s(nu_khz):
    """Ordinary frequency in kHz -> angular frequency in rad/s."""
    return nu_khz * _TWO_PI_KHZ


def rad_per_s_to_khz(omega):
    """Angular frequency in rad/s -> ordinary frequency in kHz."""
    return omega / _TWO_PI_KHZ


def ms_to_s(t_ms):
    return t_ms * 1.0e-3
