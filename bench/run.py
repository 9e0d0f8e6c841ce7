"""Benchmark of the apsim command line, end to end and per layer.

Usage (from the repository root):

    python3 bench/run.py --workload {fit,transport,spectrum} --seed N \
        [--seconds S] [--trace {0,1}]

Every CLI invocation runs through ``apsim.cli.main`` in a fresh Python
process with one BLAS thread (see child.py); the runner itself starts
one child at a time, and the runner and its children share one CPU.
With ``--trace 0`` it repeats the workload's block of invocations while
the time lasts (at least one whole block), times a fixed probe between
them (see SpeedProbe) and reports the end-to-end metrics of
BENCHMARK.json (see e2e_metrics).
``--seconds`` defaults to BENCHMARK.json's run_seconds.  With ``--trace 1`` it
alternates untraced and traced invocations of the block's first input
and reports the per-layer metrics.  Every output is checked (see
workloads.py); a failed check, a nonzero exit or a traceback makes the
invocation count as failed.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A record of the run (the
environment, every invocation and, when traced, every span) is written to
.bench_runs/ in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

# a run must end within 180 s; children are killed at this budget
HARD_LIMIT_S = 165.0
# set-up samples per run: SETUP_BEFORE import-only processes before the
# timed loop, then every invocation, then import-only processes after it
# until there are MIN_SETUP_SAMPLES (a transport run has about five)
SETUP_BEFORE = 4
MIN_SETUP_SAMPLES = 16

# host speed probe (see SpeedProbe): a window of probe units before the
# first timed invocation and after every one, lasting PROBE_SHARE of the
# invocation before it and at least PROBE_MIN_S; REF_UNIT_S is a unit's time at
# full speed on the host the bounds were set on (2-CPU KVM guest on a
# Xeon with AVX-512), so scaled times read as seconds at that speed
PROBE_MIN_S = 1.0
PROBE_SHARE = 0.2
REF_UNIT_S = 0.025

# one thread for numpy's linear algebra, so a run uses one core
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class SpeedProbe:
    """Times a fixed integration that shares no code with apsim.

    The shared host runs each CPU either at full speed or at about half,
    and the share of time at half speed drifts over minutes, which moves
    every invocation time of a run by up to 2x.  The unit -- DOP853 over
    32 stacked precessing Bloch vectors, the same mix of interpreter and
    small-array work as the program -- slows with it.  Timed on the same
    CPU just before and just after an invocation, the mean unit time
    measures the host speed around it, and REF_UNIT_S / that mean scales
    its times to full speed.  The mean, not the median: unit times are
    bimodal, and their median jumps between the modes when the host
    spends about half its time in each.
    """

    def __init__(self):
        import numpy as np
        from scipy.integrate import solve_ivp

        offsets = np.linspace(-5.0, 5.0, 32)
        y0 = np.concatenate([np.zeros(64), -np.ones(32)])

        def rhs(t, y):
            u, v, w = y.reshape(3, -1)
            omega = 2.0 * np.sin(t)
            return np.concatenate([-offsets * v, offsets * u - omega * w, omega * v])

        self.unit = lambda: solve_ivp(rhs, (0.0, 20.0), y0, method="DOP853", rtol=1e-8, atol=1e-10)
        self.unit()  # untimed: first-call set-up
        self.units: list[float] = []

    def sample(self, seconds: float) -> list[float]:
        """Unit times of one probe window of the given length."""
        window, end = [], time.perf_counter() + seconds
        while time.perf_counter() < end:
            t0 = time.perf_counter()
            self.unit()
            window.append(time.perf_counter() - t0)
        self.units += window
        return window


class Runner:
    """Starts one child per invocation and checks what it writes."""

    def __init__(self, workload, seed: int, workdir: Path, started: float):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = started + HARD_LIMIT_S
        self.outputs: dict[str, bytes] = {}
        self.records: list[dict] = []
        self.probe_units: list[float] = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **SINGLE_THREAD)

    def child(self, argv: list, trace: bool) -> dict:
        n = len(self.records)
        spec_path = self.workdir / f"spec-{n}.json"
        result_path = self.workdir / f"result-{n}.json"
        spec = {"src": str(SRC), "argv": argv, "trace": trace, "result": str(result_path)}
        spec_path.write_text(json.dumps(spec))
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spec_path)],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout,
            )
            stderr = proc.stderr
        except subprocess.TimeoutExpired:
            stderr = f"killed after {timeout:.0f} s"
        try:
            rec = json.loads(result_path.read_text())
        except (OSError, ValueError):
            rec = {"error": stderr[-2000:] or "child wrote no result"}
        rec["argv"] = argv
        rec["trace"] = trace
        self.records.append(rec)
        return rec

    def setup_sample(self) -> dict:
        return self.child([], False)

    def invoke(self, inv, trace: bool) -> dict:
        out = self.workdir / f"out-{len(self.records)}{inv.suffix}"
        rec = self.child(inv.argv + ["--out", str(out)], trace)
        rec["key"] = inv.key
        problems = []
        if rec.get("error"):
            problems.append(rec["error"].strip().splitlines()[-1])
        elif rec.get("exit_code") != 0:
            problems.append(f"exit code {rec.get('exit_code')}")
        else:
            try:
                data = out.read_bytes()
            except OSError:
                data = b""
                problems.append("no output written")
            else:
                out.unlink()
            rec["bytes"] = len(data)
            first = self.outputs.setdefault(inv.key, data)
            if data != first:
                problems.append(f"output differs from an earlier invocation of {inv.key}")
            found, rec["ref_err"] = self.workload.check(data.decode("ascii", "replace"), inv.key, self.seed)
            problems += found
            rec["text"] = data.decode("ascii", "replace")
        rec["problems"] = problems
        return rec

    def time_left(self, budget_end: float, unit_s: float) -> bool:
        """Whether another unit of unit_s fits the budget and the hard limit."""
        return time.monotonic() + unit_s <= min(budget_end, self.deadline - 15.0)


def measure(runner: Runner, block, seconds: float) -> tuple[list, dict]:
    """Untraced run: whole blocks while time lasts; end-to-end metrics."""
    runner.setup_sample()  # untimed: compiles bytecode, warms the file cache
    probe = SpeedProbe()
    # set-up samples on both sides of the timed loop, so that a run with
    # few invocations still samples more than one moment
    setup = [runner.setup_sample() for _ in range(SETUP_BEFORE)]
    runs, t0 = [], time.monotonic()
    before = probe.sample(PROBE_MIN_S)
    while True:
        b0 = time.monotonic()
        for inv in block:
            rec = runner.invoke(inv, trace=False)
            after = probe.sample(max(PROBE_MIN_S, PROBE_SHARE * rec.get("wall_s", 0.0)))
            rec["speed_scale"] = REF_UNIT_S / statistics.fmean(before + after)
            runs.append(rec)
            before = after
        if not runner.time_left(t0 + seconds, time.monotonic() - b0):
            break
    setup += runs
    while len(setup) < MIN_SETUP_SAMPLES and time.monotonic() < runner.deadline - 30:
        setup.append(runner.setup_sample())
    setup = [r["import_s"] for r in setup if "import_s" in r]
    timed = [r for r in runs if "wall_s" in r]
    runner.probe_units = probe.units
    return runs, e2e_metrics(timed, setup, REF_UNIT_S / statistics.fmean(probe.units))


def e2e_metrics(timed: list[dict], setup: list[float], setup_scale: float) -> dict:
    """Medians over the invocations of a run and over its set-up samples,
    with times scaled to full host speed.

    Each invocation's times are scaled by its own ``speed_scale``, from
    the probe windows on either side of it; the set-up samples, most of
    which have no probe beside them, by ``setup_scale``, from all the
    run's probe units.  Over sets of ten 50 s runs, the median wall time
    spread 0.17-0.38 of its value unscaled and 0.09-0.18 scaled on
    transport, and 0.12-0.14 unscaled and 0.07-0.12 scaled on fit
    (README.md lists each set).
    """
    def median(values):
        values = list(values)
        return statistics.median(values) if values else float("nan")

    return {
        "wall_ref_s": median(r["wall_s"] * r["speed_scale"] for r in timed),
        "cpu_ref_s": median(r["cpu_s"] * r["speed_scale"] for r in timed),
        "setup_s": median(setup) * setup_scale,
        "peak_rss_mib": median(r["peak_rss_mib"] for r in timed),
    }


def trace(runner: Runner, block, seconds: float) -> tuple[list, dict]:
    """Traced run: untraced/traced pairs of the first input; per-layer metrics."""
    import tracing
    from workloads import fit_param_err

    inv = block[0]
    runner.setup_sample()
    runs, t0 = [], time.monotonic()
    while True:
        p0 = time.monotonic()
        runs += [runner.invoke(inv, trace=False), runner.invoke(inv, trace=True)]
        if not runner.time_left(t0 + seconds, time.monotonic() - p0):
            break
    traced = [r for r in runs if "tracer" in r]
    if not traced:
        return runs, {}
    first = traced[0]
    layers = tracing.layer_metrics(first["tracer"])
    counters = {k: layers[k] for k in tracing.WORK_COUNTERS}
    for r in traced[1:]:
        again = tracing.layer_metrics(r["tracer"])
        if any(again[k] != v for k, v in counters.items()):
            r["problems"].append(f"work counters changed between traced runs: {counters}")
    compare_counters(runner, first, counters)

    untraced_wall = [r["wall_s"] for r in runs if not r["trace"] and "wall_s" in r]
    # a failed fit output may not parse; its failure is already counted
    fitted = runner.workload.name == "fit" and not first["problems"]
    layers.update({
        "fit.param_err": fit_param_err(first["text"]) if fitted else 0.0,
        "scan.bytes": float(first.get("bytes", 0)),
        "scan.max_abs_err": first.get("ref_err") or 0.0,
        "scan.ref_outputs": float(first.get("ref_err") is not None),
        "cli.import_s": statistics.fmean(r["import_s"] for r in traced),
        "trace.overhead_s": statistics.fmean(r["wall_s"] for r in traced)
        - (statistics.fmean(untraced_wall) if untraced_wall else float("nan")),
        "trace.absent": float(len(first.get("absent", []))),
    })
    return runs, layers


def compare_counters(runner: Runner, rec: dict, counters: dict) -> None:
    """Work counters must repeat exactly across traced runs of one input."""
    path = RUNS / f"counters-{runner.workload.name}-{runner.seed}-{source_digest()}.json"
    if path.exists():
        before = json.loads(path.read_text())
        if before != counters:
            rec["problems"].append(f"work counters {counters} != earlier traced run {before}")
    elif not rec["problems"]:
        path.write_text(json.dumps(counters))


def source_digest() -> str:
    h = hashlib.sha256()
    for f in sorted((SRC / "apsim").rglob("*.py")):
        h.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_sha": sha,
        "src_digest": source_digest(),
        "src_lines": sum(
            len(f.read_bytes().splitlines()) for f in (SRC / "apsim").rglob("*.py")
        ),
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS

    started = time.monotonic()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    # on SIGTERM unwind normally: subprocess.run kills the running child
    # and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "apsim" / "cli.py").is_file():
        print(f"no apsim sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]

    sys.path.insert(0, str(SRC))
    # the runner, its probe and every child share one CPU: the host slows
    # the two CPUs independently, so the probe must time the CPU the
    # invocations run on (children inherit the affinity)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload]
    workdir = RUNS / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workload, args.seed, workdir, started)
        block = workload.block(args.seed, workdir)
        runs, values = (trace if args.trace else measure)(runner, block, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = sorted(
        m["name"] for m in declared if not math.isfinite(values.get(m["name"], math.nan))
    )
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    failed = [r for r in runs if r["problems"]]
    env = environment()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"args": vars(args), "env": env, "metrics": values, "records": runner.records,
              "probe_units": runner.probe_units}
    (RUNS / f"{name}.json").write_text(json.dumps(record, indent=1, default=str))

    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for r in failed:
        print(f"FAILED {' '.join(r['argv'][:3])}: {'; '.join(r['problems'])}")
    walls = sorted(r["wall_s"] for r in runs if "wall_s" in r and not r["trace"])
    print(f"{len(runs)} invocations, {len(failed)} failed; unscaled untraced wall_s samples: "
          + ", ".join(f"{w:.3f}" for w in walls))
    if runner.probe_units:
        print(f"speed probe: {len(runner.probe_units)} units, mean "
              f"{statistics.fmean(runner.probe_units):.4f} s (full speed {REF_UNIT_S} s)")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
