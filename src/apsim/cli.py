"""Command-line front end.

Five subcommands: ``spectrum``, ``spatial``, ``transport``, ``adiabaticity``
run the four scan kinds; ``fit`` extracts thermal parameters from a measured
spectrum CSV.  Every subcommand takes ``--config <json>`` or ``--preset
<name>``, an optional ``--out`` (written as CSV or JSON by extension,
default CSV on stdout) and ``--seed`` to override the config seed.
Diagnostics go to standard error only, one ``INFO`` or ``ERROR`` line
each, so stdout stays pipeable.

Exit codes: 0 success, 2 configuration, input or file failure, 3 numeric
failure (integration or quadrature did not meet its tolerance).
"""

from __future__ import annotations

import dataclasses
import gc
import json
import sys
import time
from pathlib import Path

import numpy as np

from .config import RunConfig, adiabaticity_grid, load_config
from .detection import apply_detection
from .errors import ConfigError, FitDataError, IntegrationError, QuadratureError
from .fit import fit_spectrum
from .presets import preset_config, preset_names
from .pulses import adiabaticity
from .scan import ScanResult
from .thermal import broadened_spectrum
from .transport import TransportScan, transport_curve
from .units import rad_per_s_to_khz

__all__ = ["main", "run_scan"]

# A computed probability may leave [0, 1] by the convolution's accuracy:
# its error estimate is held to 1e-6, and with renormalize=True a flat
# plateau at p_max = 1 may read just above 1.
# Detection accepts only [0, 1], so excursions up to this size are clipped
# first; larger ones are errors and still fail.
_P1_ROUNDOFF = 1e-6


def _say(level: str, message: str) -> None:
    """One diagnostic line on the standard error of the moment."""
    sys.stderr.write(f"{level} {message}\n")


def run_scan(cfg: RunConfig) -> ScanResult:
    """Execute the scan a config describes; deterministic given cfg.seed."""
    if cfg.kind in ("spectrum", "spatial"):
        vals = broadened_spectrum(cfg.pulse, cfg.thermal, cfg.detunings)
        unit = "khz" if cfg.kind == "spectrum" else "um"
        result = ScanResult(cfg.grid, np.asarray(vals, dtype=float), None, unit)
    elif cfg.kind == "transport":
        result = transport_curve(cfg.transport, cfg.grid, cfg.seed)
    else:  # adiabaticity profile over the pulse
        # sampled in seconds: the ms grid need not survive the round trip
        # back, and its last point could land past the pulse's end
        t = np.linspace(0.0, cfg.pulse.duration, len(cfg.grid))
        result = ScanResult(cfg.grid, adiabaticity(t, cfg.pulse), None, "ms")

    if cfg.detection is not None:
        p1 = result.p1
        roundoff = (p1 >= -_P1_ROUNDOFF) & (p1 <= 1.0 + _P1_ROUNDOFF)
        p1 = apply_detection(np.where(roundoff, np.clip(p1, 0.0, 1.0), p1), cfg.detection)
        stderr = (
            None
            if result.stderr is None
            else result.stderr * abs(cfg.detection.slope)
        )
        result = dataclasses.replace(result, p1=p1, stderr=stderr)
    return result


def _load_run_config(opts: dict) -> RunConfig:
    if "preset" in opts:
        cfg = preset_config(opts["preset"])
    else:
        cfg = load_config(Path(opts["config"]))
    if "seed" in opts:
        cfg = dataclasses.replace(cfg, seed=opts["seed"])
    return cfg


def _out_path(out: str | None, suffixes: tuple[str, ...], flag: str) -> Path | None:
    """The --out path, checked before any work is done; None for stdout."""
    if out is None:
        return None
    path = Path(out)
    if path.suffix not in suffixes:
        raise ConfigError(f"{flag} must end in {' or '.join(suffixes)}, got {out!r}")
    if path.is_dir():
        raise ConfigError(f"{flag} names a directory: {out!r}")
    if not path.parent.is_dir():
        raise ConfigError(f"{flag} must be in an existing directory, got {out!r}")
    return path


def _emit_scan(result: ScanResult, path: Path | None) -> None:
    if path is None:
        sys.stdout.write(result.to_csv_text())
        return
    if path.suffix == ".csv":
        result.to_csv(path)
    else:
        result.to_json(path)
    _say("INFO", f"wrote {path} ({len(result)} rows)")


def _cmd_scan(opts: dict, kind: str) -> int:
    out = _out_path(opts.get("out"), (".csv", ".json"), "--out")
    cfg = _load_run_config(opts)
    if cfg.kind != kind:
        # profiling the pulse of a spectrum/spatial config is well defined,
        # so the adiabaticity command accepts those and swaps the grid; the
        # detection map, which takes probabilities, goes with it
        if kind == "adiabaticity" and cfg.pulse is not None:
            grid = adiabaticity_grid(cfg.pulse, 2001)
            cfg = dataclasses.replace(cfg, kind=kind, grid=grid, detection=None)
        else:
            raise ConfigError(
                f"config describes a {cfg.kind!r} scan but the {kind!r} command was invoked"
            )
    _say("INFO", f"{kind} scan: {len(cfg.grid)} grid points, seed {cfg.seed}")
    t0 = time.perf_counter()
    result = run_scan(cfg)
    _say("INFO", f"scan finished in {time.perf_counter() - t0:.1f} s")
    if isinstance(result, TransportScan):
        _say("INFO", result.interpolant_summary())
    _emit_scan(result, out)
    return 0


def _cmd_fit(opts: dict) -> int:
    out = _out_path(opts.get("out"), (".json",), "fit --out")
    cfg = _load_run_config(opts)
    # the fit's spectrum replaces the pulse's delta_c, as a spectrum scan does
    if cfg.pulse is None or cfg.thermal is None:
        raise ConfigError("fit needs a config with a pulse and a thermal section")
    data = ScanResult.from_csv(Path(opts["data"]))
    _say("INFO", f"fitting {len(data)} samples from {opts['data']}")
    t0 = time.perf_counter()
    result = fit_spectrum(data, cfg.pulse, cfg.thermal)
    _say("INFO", f"bare-spectrum cache: {result.cache_points} grid points, "
                 f"{result.cache_integrated} integrated, reach "
                 f"{rad_per_s_to_khz(result.cache_reach):.4g} kHz below the data, widest trial "
                 f"{rad_per_s_to_khz(result.widest_reach):.4g} kHz")
    _say("INFO", f"fit {'converged' if result.converged else 'did NOT converge'} in "
                 f"{time.perf_counter() - t0:.1f} s ({result.n_iterations} evaluations, "
                 f"rms {result.residual_rms:.2e})")
    if out is None:
        sys.stdout.write(json.dumps(result.to_json_dict(), indent=2) + "\n")
    else:
        result.to_json(out)
        _say("INFO", f"wrote {out}")
    return 0


_COMMANDS = ("spectrum", "spatial", "transport", "adiabaticity", "fit")
_FLAGS = ("--config", "--preset", "--out", "--seed", "--data")
_USAGE = (f"usage: apsim {{{','.join(_COMMANDS)}}} "
          "(--config FILE | --preset NAME) [--out PATH] [--seed N] [--data CSV]\n")
_HELP = """
Adiabatic-passage simulator for optically trapped atoms.

commands:
  spectrum       broadened transfer probability vs central detuning
  spatial        broadened transfer probability vs position offset
  transport      ensemble transfer vs transport speed 1/tau
  adiabaticity   adiabaticity parameter profile over the pulse
  fit            fit thermal parameters to a spectrum CSV

options (full names only, each at most once; --flag VALUE or --flag=VALUE):
  --config FILE  JSON run configuration
  --preset NAME  built-in parameter set: {presets}
  --out PATH     output path (.csv or .json; .json for fit); default stdout
  --seed N       override the config seed
  --data CSV     spectrum CSV to fit; fit only, and required there
"""


class _UsageError(Exception):
    """A command line outside the grammar of the usage line."""


def _parse(argv: list[str]) -> tuple[str, dict]:
    """The command and its options, keyed by flag name without dashes."""
    if not argv:
        raise _UsageError("no command given")
    command, *rest = argv
    if command not in _COMMANDS:
        raise _UsageError(f"the first argument must be a command "
                          f"({', '.join(_COMMANDS)}), got {command!r}")
    opts: dict = {}
    args = iter(rest)
    for arg in args:
        flag, eq, value = arg.partition("=")
        if flag not in _FLAGS:  # full names only: --pre is no --preset
            raise _UsageError(f"unrecognized argument {arg!r}")
        if not eq:
            value = next(args, None)
            # a next flag is no value: --out=--name takes such a path
            if value is None or value.startswith("--"):
                raise _UsageError(f"{flag} needs a value")
        if flag[2:] in opts:
            raise _UsageError(f"{flag} given more than once")
        opts[flag[2:]] = value
    if ("config" in opts) == ("preset" in opts):
        raise _UsageError("give exactly one of --config and --preset")
    if "preset" in opts and opts["preset"] not in preset_names():
        raise _UsageError(f"unknown preset {opts['preset']!r} "
                          f"(choose from {', '.join(preset_names())})")
    if "seed" in opts:
        try:
            opts["seed"] = int(opts["seed"])
        except ValueError:
            raise _UsageError(f"--seed needs an integer, got {opts['seed']!r}") from None
    if ("data" in opts) != (command == "fit"):
        raise _UsageError("fit needs --data" if command == "fit"
                          else f"--data is for fit only, not {command}")
    return command, opts


def main(argv=None) -> int:
    # the objects alive when a command starts outlive it.  Frozen, the
    # command's garbage collections skip them: otherwise a young
    # collection may traverse the ~4000 import-time objects not yet
    # promoted, about 1.5 ms.  Unfreezing hands them all to the oldest
    # generation.
    gc.freeze()
    try:
        return _main(argv)
    finally:
        gc.unfreeze()


def _main(argv) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(_USAGE + _HELP.format(presets=", ".join(preset_names())))
        return 0
    try:
        command, opts = _parse(argv)
    except _UsageError as exc:
        sys.stderr.write(f"{_USAGE}apsim: error: {exc}\n")
        return 2
    try:
        if command == "fit":
            return _cmd_fit(opts)
        return _cmd_scan(opts, command)
    # OSError: a file that cannot be read or written, such as a directory
    except (ConfigError, FitDataError, OSError) as exc:
        _say("ERROR", str(exc))
        return 2
    except (IntegrationError, QuadratureError) as exc:
        _say("ERROR", f"numeric failure: {exc}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
