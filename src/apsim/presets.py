"""Built-in run configurations for the three demonstration measurements.

Each preset is a plain config dict (see config.load_config), so the CLI
and scripts go through exactly the same validation path as user files.

thermal_spectrum   detuning spectrum of the swept passage on a trapped
                   thermal atom: sin^2 drive envelope, omega_max/2pi =
                   28 kHz, sweep +-40 kHz in 2 ms, scanned from -65 to
                   +65 kHz in 1 kHz steps, with the fitted thermal
                   parameters (delta_ls_max/2pi = -11 kHz, delta_th/2pi =
                   1.7 kHz, p_max = 0.95).
site_addressing    position-resolved transfer in the 3.2 kHz/um gradient.
                   The demonstration quotes a ~19 um addressing plateau but
                   not the sweep span behind it; this preset keeps the
                   spectrum drive and narrows the sweep to +-35 kHz, which
                   reproduces that plateau (the 40 kHz span would give
                   ~22 um).  ASSUMED, not measured - treat the plateau
                   width as the target, the pulse as one way to hit it.
transport_speed    transport-induced passage: 132 um move under a constant
                   26 kHz drive, initial detuning -72 kHz spread over
                   32 kHz, transfer versus transport speed.
"""

from __future__ import annotations

from .config import RunConfig, load_config

__all__ = ["PRESETS", "preset_config", "preset_names"]

_GEOMETRY = {"grad_nu_khz_per_um": 3.2}
_THERMAL = {"delta_ls_max_khz": -11.0, "delta_th_khz": 1.7, "p_max": 0.95}
_AP_PULSE = {
    "kind": "ap",
    "omega_max_khz": 28.0,
    "delta_max_khz": 40.0,
    "delta_c_khz": 0.0,
    "t_p_ms": 2.0,
}


def _thermal_spectrum() -> dict:
    return {
        "scan": {"kind": "spectrum", "start_khz": -65.0, "stop_khz": 65.0, "step_khz": 1.0},
        "pulse": dict(_AP_PULSE),
        "thermal": dict(_THERMAL),
        "seed": 0,
    }


def _site_addressing() -> dict:
    pulse = dict(_AP_PULSE)
    pulse["delta_max_khz"] = 35.0  # assumed span, see module docstring
    return {
        "scan": {"kind": "spatial", "start_um": -25.0, "stop_um": 25.0, "step_um": 0.25},
        "pulse": pulse,
        "thermal": dict(_THERMAL),
        "geometry": dict(_GEOMETRY),
        "seed": 0,
    }


def _transport_speed() -> dict:
    return {
        "scan": {
            "kind": "transport",
            "inv_tau_per_ms": [0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0],
        },
        "transport": {
            "d_um": 132.0,
            "omega_r_khz": 26.0,
            "delta_0_khz": -72.0,
            "spread_khz": 32.0,
            "n_ensemble": 32,
        },
        "geometry": dict(_GEOMETRY),
        "seed": 0,
    }


PRESETS = {
    "thermal_spectrum": _thermal_spectrum,
    "site_addressing": _site_addressing,
    "transport_speed": _transport_speed,
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def preset_config(name: str) -> RunConfig:
    """Validated RunConfig for a named preset."""
    try:
        raw = PRESETS[name]()
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; have {preset_names()}") from None
    return load_config(raw)
