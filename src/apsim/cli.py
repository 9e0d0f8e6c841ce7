"""Command-line front end.

Five subcommands: ``spectrum``, ``spatial``, ``transport``, ``adiabaticity``
run the four scan kinds; ``fit`` extracts thermal parameters from a measured
spectrum CSV.  Every subcommand takes ``--config <json>`` or ``--preset
<name>``, an optional ``--out`` (written as CSV or JSON by extension,
default CSV on stdout) and ``--seed`` to override the config seed.  Logs
go to standard error only, so stdout stays pipeable.

Exit codes: 0 success, 2 configuration, input or file failure, 3 numeric
failure (integration or quadrature did not meet its tolerance).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import logging
import sys
import time
from pathlib import Path

import numpy as np

from .addressing import spatial_spectrum
from .config import RunConfig, load_config
from .detection import apply_detection
from .errors import ConfigError, FitDataError, IntegrationError, QuadratureError
from .fit import fit_spectrum
from .presets import preset_config, preset_names
from .pulses import adiabaticity
from .scan import ScanResult
from .thermal import broadened_spectrum
from .transport import transport_curve
from .units import khz_to_rad_per_s, s_to_ms

__all__ = ["main", "run_scan"]

log = logging.getLogger("apsim")

# A computed probability may leave [0, 1] by the convolution's accuracy:
# its error estimate is held to 1e-6, and with renormalize=True a flat
# plateau at p_max = 1 may read just above 1.
# Detection accepts only [0, 1], so excursions up to this size are clipped
# first; larger ones are errors and still fail.
_P1_ROUNDOFF = 1e-6


def run_scan(cfg: RunConfig) -> ScanResult:
    """Execute the scan a config describes; deterministic given cfg.seed."""
    if cfg.kind == "spectrum":
        vals = broadened_spectrum(cfg.pulse, cfg.thermal, khz_to_rad_per_s(cfg.grid))
        result = ScanResult(cfg.grid, np.asarray(vals, dtype=float), None, "khz")
    elif cfg.kind == "spatial":
        result = spatial_spectrum(cfg.pulse, cfg.geometry, cfg.thermal, cfg.grid)
    elif cfg.kind == "transport":
        result = transport_curve(cfg.transport, cfg.grid, cfg.seed)
    else:  # adiabaticity profile over the pulse
        # sampled in seconds: the ms grid need not survive the round trip
        # back, and its last point could land past the pulse's end
        t = np.linspace(0.0, cfg.pulse.duration, len(cfg.grid))
        result = ScanResult(cfg.grid, adiabaticity(t, cfg.pulse), None, "ms")

    if cfg.apply_detection:
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


def _load_run_config(args) -> RunConfig:
    if args.preset is not None:
        return preset_config(args.preset, seed=args.seed)
    cfg = load_config(Path(args.config))
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
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
    log.info("wrote %s (%d rows)", path, len(result))


def _cmd_scan(args, kind: str) -> int:
    out = _out_path(args.out, (".csv", ".json"), "--out")
    cfg = _load_run_config(args)
    if cfg.kind != kind:
        # profiling the pulse of a spectrum/spatial config is well defined,
        # so the adiabaticity command accepts those and swaps the grid; the
        # detection map, which takes probabilities, goes with it
        if kind == "adiabaticity" and cfg.pulse is not None:
            grid = np.linspace(0.0, s_to_ms(cfg.pulse.duration), 2001)
            cfg = dataclasses.replace(cfg, kind=kind, grid=grid, apply_detection=False)
        else:
            raise ConfigError(
                f"config describes a {cfg.kind!r} scan but the {kind!r} command was invoked"
            )
    log.info("%s scan: %d grid points, seed %d", kind, len(cfg.grid), cfg.seed)
    t0 = time.perf_counter()
    result = run_scan(cfg)
    log.info("scan finished in %.1f s", time.perf_counter() - t0)
    _emit_scan(result, out)
    return 0


def _cmd_fit(args) -> int:
    out = _out_path(args.out, (".json",), "fit --out")
    cfg = _load_run_config(args)
    # the fit's spectrum replaces the pulse's delta_c, as a spectrum scan does
    if cfg.pulse is None or cfg.thermal is None:
        raise ConfigError("fit needs a config with a pulse and a thermal section")
    data = ScanResult.from_csv(Path(args.data))
    log.info("fitting %d samples from %s", len(data), args.data)
    t0 = time.perf_counter()
    result = fit_spectrum(data, cfg.pulse, cfg.thermal)
    log.info(
        "fit %s in %.1f s (%d evaluations, rms %.2e)",
        "converged" if result.converged else "did NOT converge",
        time.perf_counter() - t0,
        result.n_iterations,
        result.residual_rms,
    )
    if out is None:
        import json as _json

        sys.stdout.write(_json.dumps(result.to_json_dict(), indent=2) + "\n")
    else:
        result.to_json(out)
        log.info("wrote %s", out)
    return 0


def _add_common(sp: argparse.ArgumentParser, with_data: bool = False) -> None:
    src = sp.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="JSON run configuration")
    src.add_argument(
        "--preset", choices=preset_names(), help="built-in parameter set"
    )
    sp.add_argument("--out", help="output path (.csv or .json); default stdout")
    sp.add_argument("--seed", type=int, default=None, help="override the config seed")
    if with_data:
        sp.add_argument("--data", required=True, help="spectrum CSV to fit")


# built once: argparse takes milliseconds to build it, and main may be
# called many times in one process
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apsim",
        description="Adiabatic-passage simulator for optically trapped atoms",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind, help_ in (
        ("spectrum", "broadened transfer probability vs central detuning"),
        ("spatial", "broadened transfer probability vs position offset"),
        ("transport", "ensemble transfer vs transport speed 1/tau"),
        ("adiabaticity", "adiabaticity parameter profile over the pulse"),
    ):
        _add_common(sub.add_parser(kind, help=help_))
    _add_common(
        sub.add_parser("fit", help="fit thermal parameters to a spectrum CSV"),
        with_data=True,
    )
    return parser


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
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
    )
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        code = exc.code if exc.code is not None else 0
        return int(code) if isinstance(code, int) else 2
    try:
        if args.command == "fit":
            return _cmd_fit(args)
        return _cmd_scan(args, args.command)
    # OSError: a file that cannot be read or written, such as a directory
    except (ConfigError, FitDataError, OSError) as exc:
        log.error("%s", exc)
        return 2
    except (IntegrationError, QuadratureError) as exc:
        log.error("numeric failure: %s", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
