"""Command-line front end.

Five subcommands: ``spectrum``, ``spatial``, ``transport``, ``adiabaticity``
run the four scan kinds; ``fit`` extracts thermal parameters from a measured
spectrum CSV.  Every subcommand takes ``--config <json>`` or ``--preset
<name>``, an optional ``--out`` (written as CSV or JSON by extension,
default CSV on stdout) and ``--seed`` to override the config seed.  Logs
go to standard error only, so stdout stays pipeable.

Exit codes: 0 success, 2 configuration or validation failure, 3 numeric
failure (integration or quadrature did not meet its tolerance).
"""

from __future__ import annotations

import argparse
import dataclasses
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
from .transport import TransportPlan, transport_curve
from .units import khz_to_rad_per_s, ms_to_s, s_to_ms

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
        vals = broadened_spectrum(cfg.pulse, cfg.thermal, khz_to_rad_per_s(cfg.grid),
                                  renormalize=cfg.renormalize, damping=cfg.damping,
                                  config=cfg.integrator)
        result = ScanResult(cfg.grid, np.asarray(vals, dtype=float), None, "khz")
    elif cfg.kind == "spatial":
        result = spatial_spectrum(
            cfg.pulse,
            cfg.geometry,
            cfg.thermal,
            cfg.grid,
            damping=cfg.damping,
            config=cfg.integrator,
            renormalize=cfg.renormalize,
        )
    elif cfg.kind == "transport":
        t = cfg.transport
        # tau is a placeholder here; the curve sets it per grid point
        plan = TransportPlan(
            d=t.d_um,
            tau=1e-3,
            omega_r=khz_to_rad_per_s(t.omega_r_khz),
            delta_0_nu=t.delta_0_khz,
            spread_nu=t.spread_khz,
            g=cfg.geometry,
        )
        result = transport_curve(
            plan,
            cfg.grid,
            cfg.damping,
            t.n_ensemble,
            cfg.seed,
            distribution=t.distribution,
            switch_on=t.switch_on,
            ramp_time=ms_to_s(t.ramp_time_ms),
            readout=t.readout,
            config=cfg.integrator,
        )
    else:  # adiabaticity profile over the pulse
        vals = adiabaticity(ms_to_s(cfg.grid), cfg.pulse)
        result = ScanResult(cfg.grid, np.asarray(vals, dtype=float), None, "ms")

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


def _emit_scan(result: ScanResult, out: str | None) -> None:
    if out is None:
        sys.stdout.write(result.to_csv_text())
        return
    path = Path(out)
    if path.suffix == ".csv":
        result.to_csv(path)
    elif path.suffix == ".json":
        result.to_json(path)
    else:
        raise ConfigError(f"--out must end in .csv or .json, got {out!r}")
    log.info("wrote %s (%d rows)", path, len(result))


def _cmd_scan(args, kind: str) -> int:
    cfg = _load_run_config(args)
    if cfg.kind != kind:
        # profiling the pulse of a spectrum/spatial config is well defined,
        # so the adiabaticity command accepts those and swaps the grid
        if kind == "adiabaticity" and cfg.pulse is not None:
            grid = np.linspace(0.0, s_to_ms(cfg.pulse.duration), 2001)
            cfg = dataclasses.replace(cfg, kind=kind, grid=grid)
        else:
            raise ConfigError(
                f"config describes a {cfg.kind!r} scan but the {kind!r} command was invoked"
            )
    log.info("%s scan: %d grid points, seed %d", kind, len(cfg.grid), cfg.seed)
    t0 = time.perf_counter()
    result = run_scan(cfg)
    log.info("scan finished in %.1f s", time.perf_counter() - t0)
    _emit_scan(result, args.out)
    return 0


def _cmd_fit(args) -> int:
    cfg = _load_run_config(args)
    if cfg.pulse is None or cfg.thermal is None:
        raise ConfigError("fit needs a config with pulse and thermal sections")
    data = ScanResult.from_csv(Path(args.data))
    log.info("fitting %d samples from %s", len(data), args.data)
    t0 = time.perf_counter()
    result = fit_spectrum(
        data,
        cfg.pulse,
        cfg.thermal,
        renormalize=cfg.renormalize,
        damping=cfg.damping,
        config=cfg.integrator,
    )
    log.info(
        "fit %s in %.1f s (%d evaluations, rms %.2e)",
        "converged" if result.converged else "did NOT converge",
        time.perf_counter() - t0,
        result.n_iterations,
        result.residual_rms,
    )
    if args.out is None:
        import json as _json

        sys.stdout.write(_json.dumps(result.to_json_dict(), indent=2) + "\n")
    else:
        path = Path(args.out)
        if path.suffix != ".json":
            raise ConfigError(f"fit --out must end in .json, got {args.out!r}")
        result.to_json(path)
        log.info("wrote %s", path)
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
    except (ConfigError, FitDataError, FileNotFoundError) as exc:
        log.error("%s", exc)
        return 2
    except (IntegrationError, QuadratureError) as exc:
        log.error("numeric failure: %s", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
