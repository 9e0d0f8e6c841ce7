"""Strict JSON run configuration for the command-line front end.

A run configuration names one scan (detuning spectrum, spatial spectrum,
transport curve, or adiabaticity profile) plus the physical objects it
needs.  The schema is strict: unknown keys anywhere are rejected, so typos
fail loudly instead of silently running defaults.  All frequencies are in
kHz, times in ms, lengths in um; the library's rad/s and seconds never leak
into files.

Top-level keys
--------------
scan        (required) {"kind": "spectrum"|"spatial"|"transport"|"adiabaticity",
             plus the grid: spectrum {"start_khz","stop_khz","step_khz"} or
             {"values_khz":[...]}; spatial the same with _um; transport
             {"inv_tau_per_ms":[...]}; adiabaticity {"n_points": int}}
pulse       swept-passage pulse (see pulses.pulse_from_json); required for
            spectrum, spatial and adiabaticity scans
thermal     light-shift model in kHz; required for spectrum and spatial
geometry    gradient geometry; required for spatial and transport
transport   {"d_um","omega_r_khz","delta_0_khz","spread_khz"} plus optional
            "n_ensemble","distribution","switch_on","readout","ramp_time_ms";
            required for transport scans
detection   optional push-out model (exact keys); defaults built in
apply_detection  optional bool, map scan output through the detection model
integrator  optional {"rel_tol","abs_tol","max_step_ms"} subset
damping     optional {"gamma_2_khz"}
convolution optional {"renormalize"}
seed        optional non-negative integer, default 0
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .addressing import TrapGeometry
from .bloch import DampingModel, IntegratorConfig
from .detection import DetectionModel
from .errors import ConfigError
from .pulses import PulseProgram, pulse_from_json
from .thermal import ThermalModel, truncated_mass
from .units import khz_to_rad_per_s, ms_to_s

__all__ = ["TransportSettings", "RunConfig", "load_config"]

SCAN_KINDS = ("spectrum", "spatial", "transport", "adiabaticity")

# work budget of a scan: the most grid points a range or n_points may ask
# for, checked before the grid is allocated
_MAX_GRID_POINTS = 2**16 + 1


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
    return float(v)


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
    grid = np.asarray(vals, dtype=float)
    if not np.all(np.isfinite(grid)):
        raise ConfigError(f"{section}.{key} contains non-finite values")
    return grid


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
        if not step > 0:
            raise ConfigError(f"{section}.step{suffix} must be positive")
        if not stop >= start:
            raise ConfigError(f"{section}: stop{suffix} must be >= start{suffix}")
        n = (stop - start) / step
        if not n + 1 <= _MAX_GRID_POINTS:
            raise ConfigError(f"{section} grid has more than {_MAX_GRID_POINTS} points")
        grid = start + step * np.arange(int(round(n)) + 1)
    # the scans work in rad/s, where a large finite value may overflow
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite(khz_to_rad_per_s(khz_per_unit * grid))):
            raise ConfigError(f"{section} grid is not finite in rad/s")
    if np.any(np.diff(grid) <= 0):
        raise ConfigError(f"{section} grid must increase strictly")
    return grid


@dataclass(frozen=True)
class TransportSettings:
    """Transport-scan physics in file units (tau comes from the grid)."""

    d_um: float
    omega_r_khz: float
    delta_0_khz: float
    spread_khz: float
    n_ensemble: int = 32
    distribution: str = "uniform"
    switch_on: str = "dressed"
    readout: str = "dressed"
    ramp_time_ms: float = 1.0

    def __post_init__(self) -> None:
        if self.n_ensemble < 1:
            raise ConfigError("transport.n_ensemble must be >= 1")


@dataclass(frozen=True)
class RunConfig:
    """Validated scan request; everything run_scan needs."""

    kind: str
    grid: np.ndarray
    pulse: PulseProgram | None = None
    geometry: TrapGeometry | None = None
    thermal: ThermalModel | None = None
    transport: TransportSettings | None = None
    detection: DetectionModel = field(default_factory=DetectionModel)
    apply_detection: bool = False
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)
    damping: DampingModel | None = None
    renormalize: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        # numpy's SeedSequence takes non-negative integers only; checked
        # here so that a --seed override is held to it as well
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")


_TOP_KEYS = {
    "scan", "pulse", "geometry", "thermal", "transport", "detection",
    "apply_detection", "integrator", "damping", "convolution", "seed",
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

    # domain constructors raise ValueError on bad values; surface every
    # file problem as ConfigError so the CLI maps it to exit code 2
    def _section(name, build):
        if name not in raw:
            return None
        sec = raw[name]
        # none of the domain objects has boolean fields; JSON true/false
        # in a numeric slot is a typo, not a 1.0/0.0
        for k, v in sec.items():
            if isinstance(v, bool):
                raise ConfigError(f"{name}.{k} must be a number, got {v!r}")
        try:
            return build(sec)
        except ConfigError:
            raise
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{name}: {exc}") from exc

    pulse = _section("pulse", pulse_from_json)
    geometry = _section("geometry", TrapGeometry.from_json_dict)
    thermal = _section("thermal", ThermalModel.from_json_dict)
    detection = _section("detection", DetectionModel.from_json_dict)
    if detection is None:
        detection = DetectionModel()

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
            {"n_ensemble", "distribution", "switch_on", "readout", "ramp_time_ms"},
        )
        for key in ("omega_r_khz", "delta_0_khz", "spread_khz"):
            # the transport plan works in rad/s; a value that overflows
            # there would turn the dressed state into NaN
            if not np.isfinite(khz_to_rad_per_s(_num(t, "transport", key))):
                raise ConfigError(f"transport.{key} is not finite in rad/s: {t[key]!r}")
        transport = TransportSettings(
            d_um=_num(t, "transport", "d_um"),
            omega_r_khz=_num(t, "transport", "omega_r_khz"),
            delta_0_khz=_num(t, "transport", "delta_0_khz"),
            spread_khz=_num(t, "transport", "spread_khz"),
            n_ensemble=_int(t, "transport", "n_ensemble", 32),
            distribution=t.get("distribution", "uniform"),
            switch_on=t.get("switch_on", "dressed"),
            readout=t.get("readout", "dressed"),
            ramp_time_ms=_num(t, "transport", "ramp_time_ms", 1.0),
        )

    integrator = IntegratorConfig()
    if "integrator" in raw:
        i = raw["integrator"]
        _check_keys(i, "integrator", set(), {"rel_tol", "abs_tol", "max_step_ms"})
        max_step_ms = _num(i, "integrator", "max_step_ms")
        try:
            integrator = IntegratorConfig(
                rel_tol=_num(i, "integrator", "rel_tol", 1e-9),
                abs_tol=_num(i, "integrator", "abs_tol", 1e-12),
                max_step=np.inf if max_step_ms is None else ms_to_s(max_step_ms),
            )
        except ValueError as exc:
            raise ConfigError(f"integrator: {exc}") from exc

    damping = None
    if "damping" in raw:
        dmp = raw["damping"]
        _check_keys(dmp, "damping", {"gamma_2_khz"})
        # rate quoted as gamma_2 / 2pi in kHz, same convention as every
        # other frequency in the file
        try:
            damping = DampingModel(khz_to_rad_per_s(_num(dmp, "damping", "gamma_2_khz")))
        except ValueError as exc:
            raise ConfigError(f"damping: {exc}") from exc

    renormalize = False
    if "convolution" in raw:
        c = raw["convolution"]
        _check_keys(c, "convolution", set(), {"renormalize"})
        renormalize = _bool(c, "convolution", "renormalize", False)
        if renormalize and thermal is not None and truncated_mass(thermal) == 0.0:
            raise ConfigError(
                "convolution.renormalize: the light-shift window carries no mass"
            )

    return RunConfig(
        kind=kind,
        grid=grid,
        pulse=pulse,
        geometry=geometry,
        thermal=thermal,
        transport=transport,
        detection=detection,
        apply_detection=_bool(raw, "config", "apply_detection", False),
        integrator=integrator,
        damping=damping,
        renormalize=renormalize,
        seed=_int(raw, "config", "seed", 0),
    )
