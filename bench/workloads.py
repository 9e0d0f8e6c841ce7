"""The benchmark workloads: their CLI inputs and their output checks.

Each workload is a block of CLI invocations that the runner repeats while
its time lasts.  Invocations with the same key get the same inputs and
must write byte-identical output.  ``check`` returns the problems found
in one output (empty when it passes) and its largest absolute deviation
from the stored seed-commit output, or None where no stored output
applies to the seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

# Stored outputs in DATA were made with this seed (make_reference.py).
DEFAULT_SEED = 0

# Largest deviation from a stored output that a correct program may show.
# A different integrator or quadrature at the configured tolerances moves
# probabilities by ~1e-6; a wrong answer moves them by 1e-3 or more.
SPECTRUM_TOL = 2e-4
TRANSPORT_TOL = 2e-4
FIT_TOL = 2e-3

# the synthetic fit data (fit_clean.csv) was made from these parameters
FIT_TRUTH = {"delta_ls_max_khz": -11.0, "delta_th_khz": 1.7, "p_max": 0.95}
FIT_NOISE = 0.02
FIT_SWAY = 0.3

SPECTRUM_GRID = [float(x) for x in range(-65, 66)]
# the transport_speed preset's grid without its two slowest points, 0.05
# and 0.1 /ms (19 of its ~30 s); see Transport
TRANSPORT_GRID = [0.2, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0]


@dataclass(frozen=True)
class Invocation:
    key: str
    argv: list  # CLI arguments; the runner appends --out <file><suffix>
    suffix: str


def cli_seed(seed: int) -> int:
    """The CLI and numpy take only non-negative seeds."""
    return seed % 2**32


# ----------------------------------------------------------------- parsing


def parse_scan_csv(text: str):
    """(header, abscissa, p1, stderr) of a ScanResult CSV; ValueError if malformed."""
    lines = text.splitlines()
    header = lines[0].split(",")
    xs, ps, es = [], [], []
    for ln in lines[1:]:
        fields = ln.split(",")
        if len(fields) != len(header):
            raise ValueError(f"row {ln!r} has {len(fields)} fields")
        xs.append(float(fields[0]))
        ps.append(float(fields[-2]))
        es.append(float(fields[-1]) if fields[-1] else None)
    return header, xs, ps, es


def _max_dev(a, b) -> float:
    return max((abs(x - y) for x, y in zip(a, b, strict=True)), default=0.0)


def _check_scan(text, header, grid):
    problems = []
    try:
        got_header, xs, ps, es = parse_scan_csv(text)
    except (ValueError, IndexError) as exc:
        return [f"unparsable CSV: {exc}"], None
    if got_header != header:
        problems.append(f"header {got_header} != {header}")
    if xs != grid:
        problems.append(f"abscissa differs from the {len(grid)}-point grid")
    if not all(math.isfinite(p) and 0.0 <= p <= 1.0 for p in ps):
        problems.append("p1 outside [0, 1] or not finite")
    return problems, (xs, ps, es)


def _check_reference(parsed, ref_text, tol):
    _, ps, es = parsed
    _, _, ref_ps, ref_es = parse_scan_csv(ref_text)
    dev = _max_dev(ps, ref_ps)
    if ref_es[0] is not None:
        dev = max(dev, _max_dev(es, ref_es))
    return ([f"deviates {dev:.3g} from the stored output (> {tol})"] if dev > tol else []), dev


# --------------------------------------------------------------- workloads


class Spectrum:
    name = "spectrum"
    header = ["abscissa", "khz", "p1", "stderr"]

    def block(self, seed: int, workdir: Path) -> list[Invocation]:
        # the preset scan is deterministic and takes no seed
        return [Invocation("spectrum", ["spectrum", "--preset", "thermal_spectrum"], ".csv")]

    def check(self, text: str, key: str, seed: int):
        problems, parsed = _check_scan(text, self.header, SPECTRUM_GRID)
        if parsed is None or problems:
            return problems, None
        return _check_reference(parsed, (DATA / "ref_spectrum.csv").read_text(), SPECTRUM_TOL)


class Transport:
    """The transport_speed preset on TRANSPORT_GRID.  The full preset is one
    ~30 s invocation, so a run would time one or two samples; without the
    0.05 and 0.1 /ms points an invocation takes ~8-11 s and a run several.
    The 0.2 /ms point is still a narrow, long Bloch run (~4 s).  Members
    draw their detunings from per-member substreams, so every point is the
    same as in the full preset."""

    name = "transport"
    header = ["inv_tau_per_ms", "p1", "stderr"]

    def block(self, seed: int, workdir: Path) -> list[Invocation]:
        from apsim.presets import PRESETS

        raw = PRESETS["transport_speed"]()
        raw["scan"]["inv_tau_per_ms"] = TRANSPORT_GRID
        config = workdir / "transport-config.json"
        config.write_text(json.dumps(raw, indent=2))
        argv = ["transport", "--config", str(config), "--seed", str(cli_seed(seed))]
        return [Invocation("transport", argv, ".csv")]

    def check(self, text: str, key: str, seed: int):
        problems, parsed = _check_scan(text, self.header, TRANSPORT_GRID)
        if parsed is None or problems:
            return problems, None
        xs, ps, es = parsed
        if not all(e is not None and math.isfinite(e) and e >= 0.0 for e in es):
            problems.append("stderr missing, negative or not finite")
        # acceptance criterion 5: plateau up to 2/ms, knee within 3..10/ms
        plateau = min(p for x, p in zip(xs, ps) if x <= 2.0)
        knee = min(p for x, p in zip(xs, ps) if 3.0 <= x <= 10.0)
        if plateau < 0.99:
            problems.append(f"plateau min {plateau:.5f} < 0.99")
        if knee > 0.90:
            problems.append(f"knee min {knee:.4f} > 0.90")
        if problems or seed != DEFAULT_SEED:
            return problems, None
        return _check_reference(parsed, (DATA / "ref_transport.csv").read_text(), TRANSPORT_TOL)


class Fit:
    """Four fits per block, one per sign pair of the (delta_ls_max, delta_th)
    guess errors, in an order drawn from the seed.  The cache the fit
    builds, and so its run time, depends mostly on the delta_th sign; a
    block that covers every pair keeps the median of a run independent
    of the seed."""

    name = "fit"

    def block(self, seed: int, workdir: Path) -> list[Invocation]:
        import numpy as np

        from apsim.presets import PRESETS

        _, xs, clean, _ = parse_scan_csv((DATA / "fit_clean.csv").read_text())
        rng = np.random.default_rng(cli_seed(seed))
        out = []
        for k, pair in enumerate(rng.permutation(4)):
            signs = (1.0 if pair & 1 else -1.0, 1.0 if pair & 2 else -1.0,
                     float(rng.choice([-1.0, 1.0])))
            noisy = np.asarray(clean) + rng.normal(0.0, FIT_NOISE, size=len(clean))
            data = workdir / f"fit-data-{k}.csv"
            data.write_text(
                "abscissa,khz,p1,stderr\n"
                + "".join(f"{x!r},khz,{float(p)!r},\n" for x, p in zip(xs, noisy)),
                encoding="ascii",
            )
            guess = {
                name: truth * (1.0 + FIT_SWAY * s)
                for (name, truth), s in zip(FIT_TRUTH.items(), signs)
            }
            guess["p_max"] = min(guess["p_max"], 0.999)
            raw = PRESETS["thermal_spectrum"]()
            raw["thermal"] = guess
            config = workdir / f"fit-config-{k}.json"
            config.write_text(json.dumps(raw, indent=2))
            out.append(Invocation(
                f"fit-{k}", ["fit", "--config", str(config), "--data", str(data)], ".json"
            ))
        return out

    def check(self, text: str, key: str, seed: int):
        try:
            got = json.loads(text)
            values = fit_values(got)
            converged = got["converged"]
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unparsable fit output: {exc}"], None
        problems = []
        if converged is not True:
            problems.append("fit did not converge")
        if not all(math.isfinite(v) for v in values.values()):
            problems.append("non-finite fit output")
        for name, (err, bound) in fit_errors(values).items():
            if not err < bound:
                problems.append(f"{name} {values[name]:.4f} off the truth by {err:.4f} (>= {bound})")
        if problems or seed != DEFAULT_SEED:
            return problems, None
        ref = fit_values(json.loads((DATA / "ref_fit.json").read_text())[key])
        dev = max(abs(values[k] - ref[k]) for k in ref)
        if dev > FIT_TOL:
            problems.append(f"deviates {dev:.3g} from the stored output (> {FIT_TOL})")
        return problems, dev


def fit_values(out: dict) -> dict:
    """The fitted parameters and residual of a fit output, as floats."""
    values = {k: float(out["params"][k]) for k in FIT_TRUTH}
    values["residual_rms"] = float(out["residual_rms"])
    return values


def fit_errors(values: dict) -> dict:
    """(error, bound) per fitted parameter, against the truth of the data.

    Acceptance criterion 8 bounds the errors of five fixed-seed fits by
    0.02 (p_max), 15% (delta_th) and 1 kHz (delta_ls_max).  Over 40 seeded
    fits of this workload the noise alone scatters them with standard
    deviations 0.0074, 4.9% and 0.18 kHz, so the first two bounds would
    fail about one correct fit in 100.  Any seed gets bounds of
    about five standard deviations instead; they still fail a fit left at
    its 30%-off guess.
    """
    return {
        "p_max": (abs(values["p_max"] - FIT_TRUTH["p_max"]), 0.04),
        "delta_th_khz": (abs(values["delta_th_khz"] / FIT_TRUTH["delta_th_khz"] - 1.0), 0.25),
        "delta_ls_max_khz": (abs(values["delta_ls_max_khz"] - FIT_TRUTH["delta_ls_max_khz"]), 1.0),
    }


def fit_param_err(text: str) -> float:
    """Largest relative error of the three fitted parameters."""
    values = fit_values(json.loads(text))
    return max(abs(values[k] / t - 1.0) for k, t in FIT_TRUTH.items())


WORKLOADS = {w.name: w for w in (Spectrum(), Fit(), Transport())}
