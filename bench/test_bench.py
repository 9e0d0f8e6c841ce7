"""Tests of the benchmark's own arithmetic, checks and instrumentation.

Run from the repository root: python3 -m pytest bench -q
"""

import json
import math
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from steadiness import spread  # noqa: E402
from workloads import DATA, DEFAULT_SEED, WORKLOADS, Invocation, fit_param_err  # noqa: E402

OTHER_SEED = DEFAULT_SEED + 7


# -------------------------------------------------------------- arithmetic


def test_e2e_metrics_are_medians_over_the_run_scaled_to_full_speed():
    timed = [
        {"wall_s": w, "cpu_s": w / 2, "peak_rss_mib": 100.0 + w, "speed_scale": k}
        for w, k in ((3.0, 1.0), (1.0, 1.0), (2.0, 0.5), (10.0, 0.5))
    ]
    # scaled walls 3, 1, 1, 5; memory is not scaled
    got = run.e2e_metrics(timed, [0.5, 1.5, 0.75, 0.25, 9.0], 0.5)
    assert got == {"wall_ref_s": 2.0, "cpu_ref_s": 1.0, "setup_s": 0.375, "peak_rss_mib": 102.5}
    assert math.isnan(run.e2e_metrics([], [1.0], 1.0)["wall_ref_s"])


def test_spread_is_interquartile_distance_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert (q1, q3) == (2.75, 8.25)
    assert spread(values) == pytest.approx((8.25 - 2.75) / 5.5)


def _span(i, start, end, parent=None, leaf_s=0.0):
    return {"id": i, "name": f"s{i}", "start": start, "end": end, "parent": parent,
            "leaf_s": leaf_s, "attrs": {}}


def test_self_time_subtracts_children_and_leaf_samples():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0, leaf_s=0.5),
        _span(2, 2.0, 3.0, parent=1),
        _span(3, 5.0, 9.0, parent=0, leaf_s=4.0),
    ]
    assert tracing.self_times(spans) == {0: 3.0, 1: 1.5, 2: 1.0, 3: 0.0}


def test_tracer_nests_spans_and_attributes_leaves_to_the_open_span():
    ticks = iter([0.0, 1.0, 2.0, 2.5, 4.0, 6.0, 7.0])
    tr = tracing.Tracer(clock=lambda: next(ticks))
    outer = tr.open("cli.main")             # 0.0
    inner = tr.open("bloch.evolve_offsets", members=3)  # 1.0
    tr.leaf("pulses", 0.25, 2)
    tr.close(inner)                        # 2.0
    tr.leaf("pulses", 0.5, 1)  # attributed to outer
    tr.close(outer)                        # 2.5
    data = tr.to_json()
    assert [s["parent"] for s in data["spans"]] == [None, 0]
    assert tracing.self_times(data["spans"]) == {0: 1.0, 1: 0.75}
    assert data["counts"] == {"pulses.n": 3, "pulses.s": 0.75}
    first = tr.open("a")
    tr.open("b")
    with pytest.raises(RuntimeError):
        tr.close(first)


# ------------------------------------------------------------------ checks


def _ref(name):
    return (DATA / name).read_text()


def _set_p1(text, row, value):
    lines = text.splitlines(keepends=True)
    fields = lines[row + 1].rstrip("\n").split(",")
    fields[-2] = repr(value)
    lines[row + 1] = ",".join(fields) + "\n"
    return "".join(lines)


def _p1(text, row):
    return float(text.splitlines()[row + 1].split(",")[-2])


def test_spectrum_checks_fire_on_corrupted_output():
    check = WORKLOADS["spectrum"].check
    ref = _ref("ref_spectrum.csv")
    assert check(ref, "spectrum", OTHER_SEED) == ([], 0.0)
    shifted = _set_p1(ref, 70, _p1(ref, 70) + 1e-3)
    problems, dev = check(shifted, "spectrum", OTHER_SEED)
    assert problems and dev == pytest.approx(1e-3)
    assert check(_set_p1(ref, 3, 1.5), "spectrum", OTHER_SEED)[0]
    assert check(_set_p1(ref, 3, math.nan), "spectrum", OTHER_SEED)[0]
    assert check("".join(ref.splitlines(keepends=True)[:-1]), "spectrum", OTHER_SEED)[0]
    assert check(ref.replace("khz", "um"), "spectrum", OTHER_SEED)[0]
    assert check("not,a\ncsv", "spectrum", OTHER_SEED)[0]


def test_transport_checks_fire_on_corrupted_output():
    check = WORKLOADS["transport"].check
    ref = _ref("ref_transport.csv")
    assert check(ref, "transport", DEFAULT_SEED) == ([], 0.0)
    assert check(ref, "transport", OTHER_SEED) == ([], None)
    # criterion 5 holds for any seed: plateau up to 2/ms, knee in 3..10/ms
    assert check(_set_p1(ref, 3, 0.98), "transport", OTHER_SEED)[0]
    no_knee = ref
    for row in range(4, 10):
        no_knee = _set_p1(no_knee, row, 0.95)
    assert check(no_knee, "transport", OTHER_SEED)[0]
    # the stored output pins the default seed
    problems, dev = check(_set_p1(ref, 8, _p1(ref, 8) - 5e-4), "transport", DEFAULT_SEED)
    assert problems and dev == pytest.approx(5e-4)
    assert check(ref.replace("0.0036242130078413095", "-0.1"), "transport", OTHER_SEED)[0]


def test_fit_checks_fire_on_corrupted_output():
    check = WORKLOADS["fit"].check
    refs = json.loads(_ref("ref_fit.json"))
    out = refs["fit-0"]
    text = json.dumps(out)
    assert check(text, "fit-0", DEFAULT_SEED) == ([], 0.0)
    assert check(text, "fit-0", OTHER_SEED) == ([], None)

    def corrupt(**changes):
        bad = json.loads(text)
        for key, value in changes.items():
            (bad["params"] if key in bad["params"] else bad)[key] = value
        return json.dumps(bad)

    assert check(corrupt(converged=False), "fit-0", OTHER_SEED)[0]
    # bounds: |dp_max| < 0.04, |d delta_th| < 25%, |d delta_ls_max| < 1 kHz
    assert check(corrupt(p_max=0.9), "fit-0", DEFAULT_SEED)[0] == [
        "p_max 0.9000 off the truth by 0.0500 (>= 0.04)"
    ]
    assert check(corrupt(delta_th_khz=2.2), "fit-0", OTHER_SEED)[0]
    assert check(corrupt(delta_ls_max_khz=-12.5), "fit-0", OTHER_SEED)[0]
    near = out["params"]["delta_th_khz"] + 5e-3
    problems, dev = check(corrupt(delta_th_khz=near), "fit-0", DEFAULT_SEED)
    assert problems and dev == pytest.approx(5e-3)
    assert check("{}", "fit-0", OTHER_SEED)[0]
    truth = {"delta_ls_max_khz": -11.0, "delta_th_khz": 1.7, "p_max": 0.95}
    assert fit_param_err(text) == pytest.approx(
        max(abs(out["params"][k] / v - 1.0) for k, v in truth.items())
    )


def test_runner_flags_output_that_differs_between_identical_invocations(tmp_path, monkeypatch):
    outputs = iter([_ref("ref_spectrum.csv"), _set_p1(_ref("ref_spectrum.csv"), 0, 5e-9)])

    def fake_child(self, argv, trace):
        Path(argv[-1]).write_text(next(outputs))
        return {"exit_code": 0, "wall_s": 1.0, "argv": argv, "trace": trace}

    monkeypatch.setattr(run.Runner, "child", fake_child)
    runner = run.Runner(WORKLOADS["spectrum"], OTHER_SEED, tmp_path, started=0.0)
    inv = Invocation("spectrum", ["spectrum"], ".csv")
    assert runner.invoke(inv, trace=False)["problems"] == []
    assert runner.invoke(inv, trace=False)["problems"] == [
        "output differs from an earlier invocation of spectrum"
    ]


def test_traced_run_counts_unparsable_fit_output_as_failed(tmp_path, monkeypatch):
    def fake_child(self, argv, trace):
        if argv:
            Path(argv[-1]).write_text("not json")
        rec = {"exit_code": 0, "wall_s": 1.0, "import_s": 0.5, "argv": argv, "trace": trace}
        if trace:
            rec["tracer"] = tracing.Tracer().to_json()
        return rec

    monkeypatch.setattr(run.Runner, "child", fake_child)
    monkeypatch.setattr(run, "RUNS", tmp_path)
    runner = run.Runner(WORKLOADS["fit"], OTHER_SEED, tmp_path, started=0.0)
    inv = Invocation("fit-0", ["fit"], ".json")
    runs, layers = run.trace(runner, [inv], seconds=1.0)
    assert [r["trace"] for r in runs] == [False, True]
    assert all(r["problems"] for r in runs)
    assert layers["fit.param_err"] == 0.0


# ------------------------------------------------------- inputs and tracing


def test_fit_inputs_follow_the_seed_and_cover_every_sign_pair(tmp_path):
    fit = WORKLOADS["fit"]

    def inputs(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        block = fit.block(seed, d)
        return [(Path(i.argv[2]).read_text(), Path(i.argv[4]).read_text()) for i in block]

    first, again, other = inputs(3, "a"), inputs(3, "b"), inputs(4, "c")
    assert first == again
    assert first != other
    pairs = set()
    for config, _ in first:
        thermal = json.loads(config)["thermal"]
        assert "convolution" not in json.loads(config)
        pairs.add((thermal["delta_ls_max_khz"] < -11.0, thermal["delta_th_khz"] > 1.7))
        assert math.isclose(abs(thermal["delta_th_khz"] / 1.7 - 1.0), 0.3)
    assert len(pairs) == 4


def test_install_counts_work_and_reports_absent_names():
    import numpy as np

    from apsim import bloch
    from apsim.pulses import APPulse

    pulse = APPulse.from_khz(28.0, 40.0, 0.0, 0.2)
    counts = []
    for _ in range(2):
        tr = tracing.Tracer()
        targets = tracing.TARGETS + [("apsim.bloch", "no_such_entry", tracing._plain("x"))]
        absent, restore = tracing.install(tr, targets)
        try:
            bloch.evolve_offsets(pulse, np.zeros(3))
        finally:
            restore()
        assert absent == ["apsim.bloch.no_such_entry"]
        layers = tracing.layer_metrics(tr.to_json())
        assert layers["bloch.calls"] == 1 and layers["bloch.members"] == 3
        assert layers["bloch.member_evals"] == 3 * layers["pulses.evals"] / 2 > 0
        counts.append({k: layers[k] for k in tracing.WORK_COUNTERS})
    assert counts[0] == counts[1]
    assert not hasattr(bloch.evolve_offsets, "__wrapped__")
