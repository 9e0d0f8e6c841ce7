"""Strict JSON run configuration for the command-line front end.

A run configuration names one scan (detuning spectrum, spatial spectrum,
transport curve, or adiabaticity profile) plus the physical objects it
needs.  The schema is strict: unknown keys anywhere are rejected, so typos
fail loudly instead of silently running defaults, and every number must be
a JSON number (not a string, not true/false).  All frequencies are in kHz,
times in ms, lengths in um; the library's rad/s and seconds never leak
into files.  This module is the only reader of the format: the domain
classes take plain values and know no keys.

Top-level keys
--------------
scan        (required) {"kind": "spectrum"|"spatial"|"transport"|"adiabaticity",
             plus the grid: spectrum {"start_khz","stop_khz","step_khz"} or
             {"values_khz":[...]}; spatial the same with _um; transport
             {"inv_tau_per_ms":[...]}; adiabaticity {"n_points": int}}
pulse       {"kind": "ap", "omega_max_khz", "delta_max_khz", "delta_c_khz", "t_p_ms"},
            the swept passage pulse; required for spectrum, spatial and
            adiabaticity scans.  Spectrum and spatial scans (and fits)
            replace its delta_c by their grid
thermal     {"delta_ls_max_khz","delta_th_khz","p_max"}; required for
            spectrum and spatial
geometry    {"grad_nu_khz_per_um","span_um"}; required for spatial and
            transport
transport   {"d_um","omega_r_khz","delta_0_khz","spread_khz"} plus optional
            "n_ensemble" (1..2^16, default 32; member i's draw depends
            only on (seed, i), and drawing all 2^16 takes about 12 ms);
            required for transport scans, and needs a
            geometry section.  It loads as a transport.TransportPlan, which
            checks every value before anything runs
detection   optional {"eps_pushout","eps_keep","p_init"}, all three;
            defaults built in
apply_detection  optional bool, map scan output through the detection
            model; refused on adiabaticity scans, whose output is no
            probability
convolution optional {"renormalize"}
seed        optional non-negative integer, default 0
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .addressing import TrapGeometry
from .detection import DetectionModel
from .errors import ConfigError
from .pulses import APPulse
from .thermal import ThermalModel
from .transport import TransportPlan
from .units import khz_to_rad_per_s, ms_to_s

__all__ = ["RunConfig", "load_config"]

SCAN_KINDS = ("spectrum", "spatial", "transport", "adiabaticity")

# work budget of a scan: the most grid points a range or n_points may ask
# for, checked before the grid is allocated
_MAX_GRID_POINTS = 2**16 + 1

_EPS = float(np.finfo(float).eps)


def _check_keys(d: dict, section: str, required: set, optional: set = frozenset()):
    if not isinstance(d, dict):
        raise ConfigError(f"{section} must be an object")
    unknown = set(d) - required - set(optional)
    if unknown:
        raise ConfigError(f"unknown {section} keys: {sorted(unknown)}")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"missing {section} keys: {sorted(missing)}")


def _num(d: dict, section: str, key: str, default=None) -> float:
    if key not in d:
        return default
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{section}.{key} must be a number, got {v!r}")
    try:
        return float(v)
    except OverflowError as exc:  # a JSON integer beyond the float range
        raise ConfigError(f"{section}.{key} is too large for a float") from exc


def _int(d: dict, section: str, key: str, default=None) -> int:
    if key not in d:
        return default
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{section}.{key} must be an integer, got {v!r}")
    return v


def _bool(d: dict, section: str, key: str, default=False) -> bool:
    v = d.get(key, default)
    if not isinstance(v, bool):
        raise ConfigError(f"{section}.{key} must be a boolean, got {v!r}")
    return v


def _num_list(d: dict, section: str, key: str) -> np.ndarray:
    vals = d[key]
    if not isinstance(vals, list) or not vals:
        raise ConfigError(f"{section}.{key} must be a non-empty list")
    if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in vals):
        raise ConfigError(f"{section}.{key} must hold numbers only")
    try:
        grid = np.asarray(vals, dtype=float)
    except OverflowError as exc:
        raise ConfigError(f"{section}.{key} holds a number too large for a float") from exc
    if not np.all(np.isfinite(grid)):
        raise ConfigError(f"{section}.{key} contains non-finite values")
    return grid


# the sections whose keys are all required numbers: the constructor that
# takes them, in order
_FIELDS = {
    "geometry": (TrapGeometry, ("grad_nu_khz_per_um", "span_um")),
    "thermal": (ThermalModel.from_khz, ("delta_ls_max_khz", "delta_th_khz", "p_max")),
    "detection": (DetectionModel, ("eps_pushout", "eps_keep", "p_init")),
    "pulse": (APPulse.from_khz, ("omega_max_khz", "delta_max_khz", "delta_c_khz", "t_p_ms")),
}


def _build(d: dict, section: str, fixed: frozenset = frozenset()):
    """The object the section d describes by its _FIELDS entry; `fixed`
    names keys read elsewhere.  Domain constructors raise ValueError on
    bad values, surfaced as ConfigError (exit code 2)."""
    build, keys = _FIELDS[section]
    _check_keys(d, section, set(keys) | fixed)
    try:
        return build(*(_num(d, section, k) for k in keys))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _pulse(d: dict) -> APPulse:
    if d.get("kind") != "ap":
        raise ConfigError(f"pulse.kind must be 'ap', got {d.get('kind')!r}")
    return _build(d, "pulse", frozenset({"kind"}))


def _grid_from_range(d: dict, section: str, suffix: str, khz_per_unit: float) -> np.ndarray:
    values_key = f"values{suffix}"
    range_keys = {f"start{suffix}", f"stop{suffix}", f"step{suffix}"}
    if values_key in d:
        if set(d) & range_keys:
            raise ConfigError(f"{section}: give either {values_key} or a range, not both")
        grid = _num_list(d, section, values_key)
    else:
        if set(d) != range_keys:
            raise ConfigError(
                f"{section} grid needs {sorted(range_keys)} or {values_key}"
            )
        start = _num(d, section, f"start{suffix}")
        stop = _num(d, section, f"stop{suffix}")
        step = _num(d, section, f"step{suffix}")
        # an infinite step would make inf * 0 a NaN grid point
        if not np.all(np.isfinite([start, stop, step])):
            raise ConfigError(f"{section}: start{suffix}, stop{suffix} and step{suffix} "
                              "must be finite")
        if not step > 0:
            raise ConfigError(f"{section}.step{suffix} must be positive")
        if not stop >= start:
            raise ConfigError(f"{section}: stop{suffix} must be >= start{suffix}")
        n = (stop - start) / step
        if not n + 1 <= _MAX_GRID_POINTS:
            raise ConfigError(f"{section} grid has more than {_MAX_GRID_POINTS} points")
        # the most steps whose last point is not past stop, but for the
        # rounding of decimal inputs such as 0.1
        k = round(n)
        if start + step * k > stop + 4.0 * _EPS * max(abs(start), abs(stop)):
            k -= 1
        grid = start + step * np.arange(k + 1)
    # the scans work in rad/s, where a large finite value may overflow
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite(khz_to_rad_per_s(khz_per_unit * grid))):
            raise ConfigError(f"{section} grid is not finite in rad/s")
    if np.any(np.diff(grid) <= 0):
        raise ConfigError(f"{section} grid must increase strictly")
    return grid


@dataclass(frozen=True)
class RunConfig:
    """Validated scan request; everything run_scan needs."""

    kind: str
    grid: np.ndarray
    pulse: APPulse | None = None
    geometry: TrapGeometry | None = None
    thermal: ThermalModel | None = None
    transport: TransportPlan | None = None
    detection: DetectionModel = field(default_factory=DetectionModel)
    apply_detection: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        # the seed is the SeedSequence entropy of the transport draw, a
        # non-negative integer; checked here so that a --seed override is
        # held to it as well
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")


_TOP_KEYS = {
    "scan", "pulse", "geometry", "thermal", "transport", "detection",
    "apply_detection", "convolution", "seed",
}

# the top-level keys that are not sections
_SCALAR_KEYS = {"apply_detection", "seed"}

_REQUIRED_SECTIONS = {
    "spectrum": ("pulse", "thermal"),
    "spatial": ("pulse", "thermal", "geometry"),
    "transport": ("geometry", "transport"),
    "adiabaticity": ("pulse",),
}


def load_config(source) -> RunConfig:
    """Parse and validate a configuration (dict, JSON text path, or Path).

    Raises ConfigError on any schema or invariant violation.
    """
    if isinstance(source, (str, Path)):
        try:
            raw = json.loads(Path(source).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config is not UTF-8 text: {exc}") from exc
        except (ValueError, RecursionError) as exc:
            # an integer literal past Python's int-string limit, or arrays
            # and objects nested past the recursion limit
            raise ConfigError(f"config cannot be parsed: {exc}") from exc
    elif isinstance(source, dict):
        raw = source
    else:
        raise ConfigError(f"cannot load config from {type(source).__name__}")

    _check_keys(raw, "config", {"scan"}, _TOP_KEYS)
    for name in sorted(_TOP_KEYS & set(raw) - _SCALAR_KEYS):
        if not isinstance(raw[name], dict):
            raise ConfigError(f"{name} must be an object, got {raw[name]!r}")
    scan = dict(raw["scan"])
    if "kind" not in scan:
        raise ConfigError("scan.kind is required")
    kind = scan.pop("kind")
    if kind not in SCAN_KINDS:
        raise ConfigError(f"scan.kind must be one of {SCAN_KINDS}, got {kind!r}")

    for section in _REQUIRED_SECTIONS[kind]:
        if section not in raw:
            raise ConfigError(f"{kind} scan requires a {section!r} section")
    apply_detection = _bool(raw, "config", "apply_detection", False)
    if apply_detection and kind == "adiabaticity":
        raise ConfigError("apply_detection maps probabilities; an adiabaticity "
                          "scan has none")

    pulse = _pulse(raw["pulse"]) if "pulse" in raw else None
    geometry, thermal, detection = (
        _build(raw[name], name) if name in raw else None
        for name in ("geometry", "thermal", "detection")
    )

    if kind == "spectrum":
        grid = _grid_from_range(scan, "scan", "_khz", 1.0)
    elif kind == "spatial":
        grid = _grid_from_range(scan, "scan", "_um", geometry.grad_nu)
    elif kind == "transport":
        _check_keys(scan, "scan", {"inv_tau_per_ms"})
        grid = _num_list(scan, "scan", "inv_tau_per_ms")
        if np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
            raise ConfigError("inv_tau_per_ms must be positive and increasing")
    else:  # adiabaticity
        _check_keys(scan, "scan", {"n_points"})
        n = _int(scan, "scan", "n_points")
        if not 2 <= n <= _MAX_GRID_POINTS:
            raise ConfigError(f"scan.n_points must lie in 2..{_MAX_GRID_POINTS}")
        # native abscissa is time in ms across the pulse
        grid = np.linspace(0.0, pulse.duration / ms_to_s(1.0), n)

    transport = None
    if "transport" in raw:
        t = raw["transport"]
        _check_keys(
            t,
            "transport",
            {"d_um", "omega_r_khz", "delta_0_khz", "spread_khz"},
            {"n_ensemble"},
        )
        if geometry is None:
            raise ConfigError("a 'transport' section requires a 'geometry' section")
        for key in ("omega_r_khz", "delta_0_khz", "spread_khz"):
            # the transport plan works in rad/s; a value that overflows
            # there would turn the dressed state into NaN
            if not np.isfinite(khz_to_rad_per_s(_num(t, "transport", key))):
                raise ConfigError(f"transport.{key} is not finite in rad/s: {t[key]!r}")
        transport = TransportPlan(
            d=_num(t, "transport", "d_um"),
            omega_r=khz_to_rad_per_s(_num(t, "transport", "omega_r_khz")),
            delta_0=khz_to_rad_per_s(_num(t, "transport", "delta_0_khz")),
            spread=khz_to_rad_per_s(_num(t, "transport", "spread_khz")),
            g=geometry,
            n_ensemble=_int(t, "transport", "n_ensemble", 32),
        )

    if "convolution" in raw:
        c = raw["convolution"]
        _check_keys(c, "convolution", set(), {"renormalize"})
        if _bool(c, "convolution", "renormalize", False) and thermal is not None:
            try:
                thermal = replace(thermal, renormalize=True)
            except ValueError as exc:
                raise ConfigError(f"convolution.renormalize: {exc}") from exc

    return RunConfig(
        kind=kind,
        grid=grid,
        pulse=pulse,
        geometry=geometry,
        thermal=thermal,
        transport=transport,
        detection=detection or DetectionModel(),
        apply_detection=apply_detection,
        seed=_int(raw, "config", "seed", 0),
    )
