import ast
import json
import math
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import apsim
from apsim.cli import main
from apsim.presets import PRESETS
from apsim.scan import ScanResult

PULSE = {
    "kind": "ap",
    "omega_max_khz": 28.0,
    "delta_max_khz": 40.0,
    "delta_c_khz": 0.0,
    "t_p_ms": 2.0,
}
THERMAL = {"delta_ls_max_khz": -11.0, "delta_th_khz": 1.7, "p_max": 0.95}
GEOMETRY = {"grad_nu_khz_per_um": 3.2}


@pytest.fixture
def spectrum_cfg(tmp_path):
    cfg = {
        "scan": {"kind": "spectrum", "values_khz": [-30.0, -10.0, 0.0, 10.0, 30.0]},
        "pulse": PULSE,
        "thermal": THERMAL,
    }
    path = tmp_path / "spectrum.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def transport_cfg(tmp_path):
    cfg = {
        "scan": {"kind": "transport", "inv_tau_per_ms": [5.0, 10.0]},
        "geometry": GEOMETRY,
        "transport": {
            "d_um": 132.0,
            "omega_r_khz": 26.0,
            "delta_0_khz": -72.0,
            "spread_khz": 32.0,
            "n_ensemble": 4,
        },
    }
    path = tmp_path / "transport.json"
    path.write_text(json.dumps(cfg))
    return path


def test_spectrum_to_stdout(spectrum_cfg, capsys):
    assert main(["spectrum", "--config", str(spectrum_cfg)]) == 0
    out = capsys.readouterr().out
    scan = ScanResult.from_csv_text(out)
    assert scan.unit == "khz"
    assert len(scan) == 5
    assert 0.85 < scan.p1[2] <= 0.95  # plateau, capped by p_max
    assert scan.p1[0] < scan.p1[2] - 0.05  # red edge already rolling off


def test_out_csv_and_json(spectrum_cfg, tmp_path, capsys):
    csv_path = tmp_path / "scan.csv"
    json_path = tmp_path / "scan.json"
    assert main(["spectrum", "--config", str(spectrum_cfg), "--out", str(csv_path)]) == 0
    assert main(["spectrum", "--config", str(spectrum_cfg), "--out", str(json_path)]) == 0
    assert capsys.readouterr().out == ""  # nothing on stdout when writing files
    from_csv = ScanResult.from_csv(csv_path)
    from_json = json.loads(json_path.read_text())
    assert from_json["unit"] == from_csv.unit
    np.testing.assert_array_equal(from_json["p1"], from_csv.p1)


def _forbid_work(monkeypatch):
    """Make a scan or a fit that starts fail the test."""
    import apsim.cli

    def work(*args, **kwargs):
        raise AssertionError("the scan or fit ran before its arguments were checked")

    monkeypatch.setattr(apsim.cli, "run_scan", work)
    monkeypatch.setattr(apsim.cli, "fit_spectrum", work)


def test_bad_out_extension(spectrum_cfg, fit_data, tmp_path, monkeypatch):
    # refused before the scan or the fit runs
    _forbid_work(monkeypatch)
    assert main(["spectrum", "--config", str(spectrum_cfg), "--out", str(tmp_path / "x.txt")]) == 2
    assert main(["fit", "--config", str(spectrum_cfg), "--data", str(fit_data[1]),
                 "--out", str(tmp_path / "r.csv")]) == 2


def test_command_config_kind_mismatch(spectrum_cfg):
    assert main(["transport", "--config", str(spectrum_cfg)]) == 2


def test_missing_and_invalid_config(tmp_path):
    assert main(["spectrum", "--config", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["spectrum", "--config", str(bad)]) == 2
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"scan": {"kind": "spectrum", "values_khz": [1.0]}}))
    assert main(["spectrum", "--config", str(schema)]) == 2  # pulse/thermal missing


@pytest.mark.parametrize("seed, message", [
    ("1" + "0" * 5000, "Exceeds the limit (4300 digits)"),
    ("[" * 200000 + "]" * 200000, "maximum recursion depth exceeded"),
], ids=["int-past-digit-limit", "arrays-nested-200000-deep"])
def test_json_the_parser_refuses_is_config_error(tmp_path, capsys, seed, message):
    # valid JSON that json.loads still refuses: an ERROR line and exit 2,
    # never a traceback; json.dumps cannot write the int, so the text is
    # written directly
    path = tmp_path / "cfg.json"
    path.write_text('{"scan": {"kind": "transport", "inv_tau_per_ms": [1.0]}, "seed": '
                    + seed + "}")
    assert main(["transport", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("ERROR ")]
    assert len(errors) == 1
    assert "config cannot be parsed" in errors[0]
    assert message in errors[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("command, flag, content", [
    ("spectrum", "--config", None),
    ("fit", "--data", None),
    ("spectrum", "--out", None),
    ("fit", "--out", None),
    ("spectrum", "--config", b'{"scan": {"kind": "spectr\xfcm"}}'),
    ("fit", "--data", b"abscissa,khz,p1,stderr\n0.0,khz,0.5\xa0,\n"),
    ("spectrum", "--out", "missing"),
    ("spectrum", "--out", "afile"),
], ids=["config-directory", "data-directory", "scan-out-directory", "fit-out-directory",
        "config-not-utf8", "data-not-ascii", "scan-out-parent-missing", "scan-out-parent-a-file"])
def test_file_fault_is_config_error(fit_data, tmp_path, capsys, monkeypatch, command, flag,
                                    content):
    # a directory (content None), bytes that are not text, or a path whose
    # parent (content a str) does not exist or is a file, where a file is
    # read or written: an ERROR line and exit 2, never a traceback; an
    # --out fault is refused before any work
    cfg, data = fit_data
    args = {"--config": tmp_path / "cfg.json", "--data": data, "--out": tmp_path / "out.json"}
    args["--config"].write_text(json.dumps(cfg))
    if command == "spectrum":
        del args["--data"]
        args["--out"] = tmp_path / "out.csv"
    bad = args[flag] = tmp_path / f"bad{args[flag].suffix}"
    if content is None:
        bad.mkdir()
    elif isinstance(content, str):
        if content == "afile":
            (tmp_path / content).write_text("")
        args[flag] = tmp_path / content / bad.name
    else:
        bad.write_bytes(content)
    if flag == "--out":
        _forbid_work(monkeypatch)
    assert main([command, *(str(v) for kv in args.items() for v in kv)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len([line for line in err if line.startswith("ERROR ")]) == 1


@pytest.mark.parametrize("argv", [
    pytest.param([], id="no-arguments"),
    pytest.param(["scatter", "--preset", "thermal_spectrum"], id="unknown-command"),
    pytest.param(["--seed", "1", "spectrum", "--preset", "thermal_spectrum"],
                 id="option-before-command"),
    pytest.param(["transport", "--preset", "transport_speed", "--threads", "2"],
                 id="unknown-flag"),
    pytest.param(["spectrum", "--pre", "thermal_spectrum"], id="abbreviated-flag"),
    pytest.param(["spectrum", "--preset"], id="no-value-at-end"),
    pytest.param(["spectrum", "--out", "--preset", "thermal_spectrum"],
                 id="no-value-before-flag"),
    pytest.param(["spectrum", "--preset", "thermal_spectrum", "--seed", "1", "--seed", "2"],
                 id="repeated-flag"),
    pytest.param(["spectrum", "--preset", "thermal_spectrum", "--preset=thermal_spectrum"],
                 id="repeated-flag-equals"),
    pytest.param(["spectrum", "--config", "run.json", "--preset", "thermal_spectrum"],
                 id="config-and-preset"),
    pytest.param(["spectrum", "--seed", "1"], id="neither-config-nor-preset"),
    pytest.param(["spectrum", "--preset", "thermal"], id="unknown-preset"),
    pytest.param(["spectrum", "--preset", "thermal_spectrum", "--seed", "seven"],
                 id="non-integer-seed"),
    pytest.param(["spectrum", "--preset", "thermal_spectrum", "--seed=1.5"],
                 id="fractional-seed"),
    pytest.param(["spectrum", "--preset", "thermal_spectrum", "--data", "d.csv"],
                 id="data-on-spectrum"),
    pytest.param(["fit", "--preset", "thermal_spectrum"], id="fit-without-data"),
    pytest.param(["spectrum", "--preset", "thermal_spectrum", "stray"], id="positional"),
])
def test_usage_errors_exit_2(capsys, monkeypatch, argv):
    _forbid_work(monkeypatch)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 2, err
    assert lines[0].startswith("usage: apsim ")
    assert lines[1].startswith("apsim: error: ")


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"],
    *([command, flag] for command in ("spectrum", "spatial", "transport", "adiabaticity", "fit")
      for flag in ("-h", "--help")),
    ["fit", "--preset", "nope", "--help"],  # help wins over a usage error
])
def test_help_prints_usage_to_stdout(capsys, argv):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: apsim {spectrum,spatial,transport,adiabaticity,fit} ")
    assert "--preset NAME" in out and err == ""


def test_flag_equals_value_matches_spaced_form(tmp_path):
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    assert main(["spectrum", "--preset", "thermal_spectrum", "--seed", "7",
                 "--out", str(spaced)]) == 0
    assert main(["spectrum", "--preset=thermal_spectrum", "--seed=7",
                 f"--out={joined}"]) == 0
    assert joined.read_bytes() == spaced.read_bytes()


@pytest.mark.parametrize("field, value", [("omega_max_khz", float("nan")),
                                          ("delta_max_khz", float("inf"))])
def test_non_finite_pulse_parameter_is_config_error(tmp_path, field, value):
    cfg = {
        "scan": {"kind": "spectrum", "values_khz": [0.0]},
        "pulse": {**PULSE, field: value},
        "thermal": THERMAL,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["spectrum", "--config", str(path)]) == 2


FIRST_LEVEL_BUDGET = r"spectrum cache first level needs [\d.e+]+ points, more than the budget of 65537"


def test_step_budget_stops_overlong_pulse(tmp_path, capsys):
    # a 1e6 s passage: the cache's first level, 3/4 of a 1 uHz Fourier
    # width apart on [0, 11] kHz, would need 1.5e10 points, so the cache's
    # budget stops it before any Bloch work
    cfg = {
        "scan": {"kind": "spectrum", "values_khz": [0.0]},
        "pulse": {**PULSE, "t_p_ms": 1e9},
        "thermal": THERMAL,
    }
    path = tmp_path / "long.json"
    path.write_text(json.dumps(cfg))
    t0 = time.perf_counter()
    assert main(["spectrum", "--config", str(path)]) == 3
    assert time.perf_counter() - t0 < 1.0
    assert re.search(FIRST_LEVEL_BUDGET, capsys.readouterr().err)


@pytest.mark.parametrize("pulse, values_khz, message", [
    # a 300 ms pulse on the fold [0, 211] kHz, 3/4 of a 3.3 Hz width
    # apart: a first level of 84417 points, over the cache's budget
    ({"t_p_ms": 300.0}, [-200.0, 0.0, 200.0], FIRST_LEVEL_BUDGET),
    # on the fold [0, 41] kHz: 16449 points, whose first passes would take
    # 2^30 steps, over the Bloch work budget
    ({"t_p_ms": 300.0}, [-30.0, -10.0, 0.0, 10.0, 30.0], "work budget exceeded"),
    # a 1e9 kHz sweep over 2 ms needs ~6e9 rotation steps, over the Bloch
    # step budget, which runs on a 64-point torque estimate
    ({"delta_max_khz": 1e9}, [-30.0, -10.0, 0.0, 10.0, 30.0], "step budget exceeded"),
], ids=["first-level", "work", "step"])
def test_doomed_spectrum_fails_before_any_pass(tmp_path, capsys, monkeypatch, pulse,
                                               values_khz, message):
    # the cache's first level is refused whole, by the cache's budget or by
    # a Bloch budget, before any rotation pass
    import apsim.bloch

    def no_pass(*args):
        raise AssertionError("a rotation pass ran")

    monkeypatch.setattr(apsim.bloch, "_rotation_pass", no_pass)
    cfg = {
        "scan": {"kind": "spectrum", "values_khz": values_khz},
        "pulse": {**PULSE, **pulse},
        "thermal": THERMAL,
    }
    path = tmp_path / "doomed.json"
    path.write_text(json.dumps(cfg))
    t0 = time.perf_counter()
    assert main(["spectrum", "--config", str(path)]) == 3
    assert time.perf_counter() - t0 < 1.0
    assert re.search(message, capsys.readouterr().err)


def _large_ensemble(tmp_path, inv_tau):
    """A transport_speed config of 2^16 members at one speed."""
    raw = PRESETS["transport_speed"]()
    raw["scan"]["inv_tau_per_ms"] = [inv_tau]
    raw["transport"]["n_ensemble"] = 2**16
    path = tmp_path / "large.json"
    path.write_text(json.dumps(raw))
    return path


def test_large_ensemble_reads_its_members_off_the_interpolant(tmp_path, capsys):
    # 2^16 members at 0.2 /ms would take 2^28 first steps, over the member-
    # step budget; read off 9 nodes (estimate 2e-13) they finish in about
    # 0.3 s, most of it the draws
    path = _large_ensemble(tmp_path, 0.2)
    t0 = time.perf_counter()
    assert main(["transport", "--config", str(path)]) == 0
    assert time.perf_counter() - t0 < 5.0
    captured = capsys.readouterr()
    scan = ScanResult.from_csv_text(captured.out)
    assert scan.p1[0] == pytest.approx(0.99999999999928, abs=1e-14)
    assert "1 of 1 speeds read their members off a 9-node interpolant (0.2 /ms)" in captured.err


def test_member_step_budget_stops_a_large_ensemble(tmp_path, capsys):
    # at 2 /ms the 9-node estimate fails (about 9e-6), so the 2^16 members
    # are integrated, and their 2^25 first steps are refused before any
    # of their passes, after the draws and the nodes
    path = _large_ensemble(tmp_path, 2.0)
    t0 = time.perf_counter()
    assert main(["transport", "--config", str(path)]) == 3
    assert time.perf_counter() - t0 < 5.0
    err = capsys.readouterr().err
    assert "work budget exceeded" in err
    assert "33554432 steps" in err


def test_transport_reports_its_interpolant_on_stderr(tmp_path, capsys):
    # which speeds read their members off the interpolant, its node count
    # and the largest accepted estimate go to stderr; stdout and --out
    # hold the CSV alone
    from apsim.cli import run_scan
    from apsim.presets import preset_config

    assert main(["transport", "--preset", "transport_speed"]) == 0
    captured = capsys.readouterr()
    want = run_scan(preset_config("transport_speed")).to_csv_text()
    assert captured.out == want
    line = ("INFO 5 of 12 speeds read their members off a 9-node interpolant "
            "(0.05, 0.1, 0.2, 0.5, 1 /ms), largest accepted estimate 8.90e-08\n")
    assert line in captured.err
    out = tmp_path / "speed.csv"
    assert main(["transport", "--preset", "transport_speed", "--out", str(out)]) == 0
    assert out.read_text() == want
    assert line in capsys.readouterr().err


@pytest.mark.parametrize("delta_th_khz", [1e-300, 1e-4])
def test_tiny_delta_th_runs_on_the_usual_cache(tmp_path, delta_th_khz):
    # the cache grid follows the bare spectrum, not delta_th
    cfg = {
        "scan": {"kind": "spectrum", "values_khz": [-10.0, 0.0, 10.0]},
        "pulse": PULSE,
        "thermal": {**THERMAL, "delta_th_khz": delta_th_khz},
    }
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps(cfg))
    t0 = time.perf_counter()
    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 0
    assert time.perf_counter() - t0 < 5.0


def test_cache_budget_stops_with_its_estimate(tmp_path, capsys, monkeypatch):
    import apsim.thermal

    # a 0.4 ms pulse: 3/4 of its Fourier width (1.875 kHz) admits 64
    # intervals on the fold [0, 111] kHz, so the 128-interval grid has an
    # estimate (3.9e-6) when the cap stops the 256-interval one
    monkeypatch.setattr(apsim.thermal, "_MAX_CACHE_POINTS", 200)
    cfg = {
        "scan": {"kind": "spectrum", "values_khz": [-100.0, 0.0, 100.0]},
        "pulse": {**PULSE, "t_p_ms": 0.4},
        "thermal": THERMAL,
    }
    path = tmp_path / "budget.json"
    path.write_text(json.dumps(cfg))
    assert main(["spectrum", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert "cache budget of 200 points" in err
    assert re.search(r"spline error estimate \d\.\d\de-\d+ > 1\.00e-06", err)


@pytest.mark.parametrize("values_khz", [[0.0], [-10.0, 0.0, 10.0]])
def test_zero_light_shift_reads_zero(tmp_path, capsys, values_khz):
    # delta_ls_max = 0 leaves the shift window without mass, so every
    # point reads 0, a one-point scan included
    cfg = {
        "scan": {"kind": "spectrum", "values_khz": values_khz},
        "pulse": PULSE,
        "thermal": {**THERMAL, "delta_ls_max_khz": 0.0},
    }
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(cfg))
    assert main(["spectrum", "--config", str(path)]) == 0
    scan = ScanResult.from_csv_text(capsys.readouterr().out)
    assert scan.p1.tolist() == [0.0] * len(values_khz)


@pytest.mark.parametrize("values_khz, thermal, code", [
    ([100.0], {"delta_ls_max_khz": -1e-300, "delta_th_khz": 1e-300}, 0),
    ([1e290], {}, 3),
], ids=["shift-below-roundoff", "far-off-resonance"])
def test_one_point_scan_with_shift_lost_in_roundoff(tmp_path, capsys, values_khz,
                                                    thermal, code):
    # the shift window has mass, but scan_lo + delta_ls_max == scan_lo: the
    # cache still gets a non-empty domain around the one point, and a point
    # so far off resonance that the domain around it is 4.5e279 rad/s wide
    # ends in the cache's first-level budget
    cfg = {
        "scan": {"kind": "spectrum", "values_khz": values_khz},
        "pulse": PULSE,
        "thermal": {**THERMAL, **thermal},
    }
    path = tmp_path / "one.json"
    path.write_text(json.dumps(cfg))
    assert main(["spectrum", "--config", str(path)]) == code
    if code:
        assert re.search(FIRST_LEVEL_BUDGET, capsys.readouterr().err)
        return
    (p1,) = ScanResult.from_csv_text(capsys.readouterr().out).p1
    assert np.isfinite(p1) and 0.0 <= p1 <= 1.0


def test_renormalizing_zero_light_shift_is_config_error(tmp_path, capsys):
    cfg = {
        "scan": {"kind": "spectrum", "values_khz": [-10.0, 0.0, 10.0]},
        "pulse": PULSE,
        "thermal": {**THERMAL, "delta_ls_max_khz": 0.0, "renormalize": True},
    }
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(cfg))
    assert main(["spectrum", "--config", str(path)]) == 2
    assert "carries no mass" in capsys.readouterr().err


@pytest.mark.parametrize("kind, scan, grad, message", [
    ("spectrum", {"values_khz": [1e306]}, 3.2, "not finite in rad/s"),
    ("spectrum", {"start_khz": 0.0, "stop_khz": 1.0, "step_khz": 1e-300}, 3.2, "65537 points"),
    ("spectrum", {"start_khz": -1e308, "stop_khz": 0.0, "step_khz": 1.0}, 3.2, "65537 points"),
    ("spectrum", {"start_khz": -1e308, "stop_khz": 1e308, "step_khz": 1.0}, 3.2, "65537 points"),
    ("spatial", {"start_um": -1e308, "stop_um": 0.0, "step_um": 1.0}, 3.2, "65537 points"),
    ("spatial", {"values_um": [-1.0, 1.0]}, 1e308, "positive and finite in rad/s per um"),
    ("spatial", {"values_um": [-1.0, 1.0]}, float("inf"), "positive and finite in rad/s per um"),
], ids=["huge-value", "tiny-step", "far-start", "infinite-span", "far-start-um", "steep-gradient",
        "infinite-gradient"])
def test_grid_that_overflows_or_explodes_is_config_error(tmp_path, capsys, kind, scan, grad,
                                                          message):
    cfg = {
        "scan": {"kind": kind, **scan},
        "pulse": PULSE,
        "thermal": THERMAL,
        "geometry": {**GEOMETRY, "grad_nu_khz_per_um": grad},
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(cfg))
    assert main([kind, "--config", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("section, value", [
    ("scan", None), ("pulse", 5), ("thermal", []), ("geometry", "x"),
    ("transport", 1.0), ("detection", None),
])
def test_section_that_is_not_an_object_is_config_error(tmp_path, capsys, section, value):
    cfg = {
        "scan": {"kind": "spectrum", "values_khz": [0.0]},
        "pulse": PULSE,
        "thermal": THERMAL,
        section: value,
    }
    path = tmp_path / "section.json"
    path.write_text(json.dumps(cfg))
    assert main(["spectrum", "--config", str(path)]) == 2
    assert f"{section} must be an object" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("omega_r_khz", 1e308), ("delta_0_khz", -1e308),
                                          ("spread_khz", 1e308)])
def test_transport_field_overflowing_rad_per_s_is_config_error(
    transport_cfg, tmp_path, field, value
):
    cfg = json.loads(transport_cfg.read_text())
    cfg["transport"][field] = value
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(cfg))
    assert main(["transport", "--config", str(path)]) == 2


def test_gradient_overflowing_rad_per_s_is_config_error(transport_cfg, tmp_path, capsys):
    # finite in kHz per um, but an infinite chirp in rad/s
    cfg = json.loads(transport_cfg.read_text())
    cfg["geometry"]["grad_nu_khz_per_um"] = 1e308
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(cfg))
    assert main(["transport", "--config", str(path)]) == 2
    assert "must be positive and finite in rad/s per um" in capsys.readouterr().err


@pytest.mark.parametrize("kind, command", [
    ("spectrum", "spectrum"), ("spectrum", "adiabaticity"), ("spectrum", "fit"),
    ("spatial", "spatial"), ("spatial", "adiabaticity"),
])
def test_gradient_overflowing_rad_per_s_fails_every_command(fit_data, tmp_path, capsys, kind,
                                                           command):
    # the geometry section loads in rad/s per um wherever it is given: a
    # spectrum config, which reads no gradient, and a spatial grid whose
    # one point is 0 um refuse 1e308 kHz per um as a transport config does
    unit = "khz" if kind == "spectrum" else "um"
    path = tmp_path / "steep.json"
    path.write_text(json.dumps({"scan": {"kind": kind, f"values_{unit}": [0.0]}, "pulse": PULSE,
                                "thermal": THERMAL, "geometry": {"grad_nu_khz_per_um": 1e308}}))
    data = ["--data", str(fit_data[1])] if command == "fit" else []
    assert main([command, "--config", str(path), *data]) == 2
    assert "must be positive and finite in rad/s per um" in capsys.readouterr().err


def test_ensemble_budget_is_config_error(transport_cfg, tmp_path, capsys):
    # one member past the budget is refused before any member is drawn
    cfg = json.loads(transport_cfg.read_text())
    cfg["transport"]["n_ensemble"] = 2**16 + 1
    path = tmp_path / "ensemble.json"
    path.write_text(json.dumps(cfg))
    t0 = time.perf_counter()
    assert main(["transport", "--config", str(path)]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "n_ensemble must lie in 1..65536" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value, message", [
    ("transport", "d_um", 0.0, "ERROR transport: d must be positive, got 0.0\n"),
    ("transport", "n_ensemble", 0, "ERROR transport: n_ensemble must lie in 1..65536, got 0\n"),
    ("detection", "eps_keep", 1.5, "ERROR detection: eps_keep must be in [0, 1], got 1.5\n"),
], ids=["d_um", "n_ensemble", "eps_keep"])
def test_library_config_error_names_its_section(transport_cfg, tmp_path, capsys, section, key,
                                                 value, message):
    # the plan and the detection model check their own values; load names
    # the section, as it does for the pulse's and thermal model's
    cfg = json.loads(transport_cfg.read_text())
    cfg.setdefault(section, {"eps_pushout": 0.99, "eps_keep": 0.99, "p_init": 0.95})[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["transport", "--config", str(path)]) == 2
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("section, key, value, message", [
    (None, "integrator", {"rel_tol": 1e-9}, "unknown config keys: ['integrator']"),
    ("transport", "distribution", "uniform", "unknown transport keys: ['distribution']"),
    ("transport", "switch_on", "dressed", "unknown transport keys: ['switch_on']"),
    ("transport", "readout", "dressed", "unknown transport keys: ['readout']"),
    ("transport", "ramp_time_ms", 1.0, "unknown transport keys: ['ramp_time_ms']"),
    ("geometry", "guide_shift_nu_mhz", 9.8, "unknown geometry keys: ['guide_shift_nu_mhz']"),
    (None, "damping", {"gamma_2_khz": 0.01}, "unknown config keys: ['damping']"),
    ("geometry", "span_um", 300.0, "unknown geometry keys: ['span_um']"),
    (None, "convolution", {"renormalize": True}, "unknown config keys: ['convolution']"),
], ids=["integrator", "distribution", "switch_on", "readout", "ramp_time_ms",
        "guide_shift_nu_mhz", "damping", "span_um", "convolution"])
def test_retired_key_fails_at_load(tmp_path, capsys, section, key, value, message):
    # the format no longer has these keys, even at their old defaults:
    # each fails at load, before any of the 2^16 members is drawn
    raw = PRESETS["transport_speed"]()
    raw["transport"]["n_ensemble"] = 2**16
    (raw if section is None else raw[section])[key] = value
    path = tmp_path / "retired.json"
    path.write_text(json.dumps(raw))
    t0 = time.perf_counter()
    assert main(["transport", "--config", str(path)]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("switch_on", "bogus"), ("switch_on", "Dressed"), ("switch_on", 1), ("switch_on", None),
    ("readout", "bogus"), ("readout", "bar"), ("readout", 0.5), ("readout", ["bare"]),
    ("distribution", "bogus"), ("distribution", "normal"), ("distribution", True),
    ("distribution", {}),
])
def test_bad_transport_mode_fails_at_load(tmp_path, capsys, field, value):
    # the transport modes are retired: a mode key fails at load whatever
    # its value, the ones the modes once refused among them, before any of
    # the 2^16 members is drawn
    raw = PRESETS["transport_speed"]()
    raw["transport"].update({"n_ensemble": 2**16, field: value})
    path = tmp_path / "mode.json"
    path.write_text(json.dumps(raw))
    t0 = time.perf_counter()
    assert main(["transport", "--config", str(path)]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert f"unknown transport keys: ['{field}']" in capsys.readouterr().err


def test_rect_pulse_on_spectrum_is_config_error(tmp_path, capsys):
    # "ap" is the one pulse kind; any other fails at load
    cfg = {
        "scan": {"kind": "spectrum", "values_khz": [0.0]},
        "pulse": {"kind": "rect", "omega_khz": 10.0, "delta_khz": 0.0, "t_p_ms": 0.05},
        "thermal": THERMAL,
    }
    path = tmp_path / "rect.json"
    path.write_text(json.dumps(cfg))
    t0 = time.perf_counter()
    assert main(["spectrum", "--config", str(path)]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "pulse.kind must be 'ap', got 'rect'" in capsys.readouterr().err


def test_huge_delta_c_is_replaced_by_the_grid(tmp_path, capsys):
    # the grid values replace delta_c, so its size does not matter
    outs = []
    for delta_c_khz in (0.0, 1e300):
        path = tmp_path / "far.json"
        path.write_text(json.dumps({
            "scan": {"kind": "spectrum", "values_khz": [0.0]},
            "pulse": {**PULSE, "delta_c_khz": delta_c_khz},
            "thermal": THERMAL,
        }))
        t0 = time.perf_counter()
        assert main(["spectrum", "--config", str(path)]) == 0
        assert time.perf_counter() - t0 < 1.0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("field, value", [("delta_th_khz", float("nan")),
                                          ("delta_ls_max_khz", float("-inf"))])
def test_non_finite_thermal_parameter_is_config_error(tmp_path, field, value):
    cfg = {
        "scan": {"kind": "spectrum", "values_khz": [0.0]},
        "pulse": PULSE,
        "thermal": {**THERMAL, field: value},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["spectrum", "--config", str(path)]) == 2


def test_negative_seed_is_config_error(transport_cfg, tmp_path):
    cfg = json.loads(transport_cfg.read_text())
    cfg["seed"] = -1
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(cfg))
    assert main(["transport", "--config", str(path)]) == 2
    assert main(["transport", "--config", str(transport_cfg), "--seed", "-1"]) == 2


@pytest.mark.parametrize("kind, scan", [
    ("spectrum", {"kind": "spectrum", "values_khz": ["a"]}),
    ("transport", {"kind": "transport", "inv_tau_per_ms": ["x"]}),
    ("transport", {"kind": "transport", "inv_tau_per_ms": [float("nan")]}),
    # tau**2 overflows or underflows: no finite chirp 4 d / tau^2
    ("transport", {"kind": "transport", "inv_tau_per_ms": [1e-300]}),
    ("transport", {"kind": "transport", "inv_tau_per_ms": [1e308]}),
])
def test_non_numeric_grid_value_is_config_error(tmp_path, kind, scan):
    cfg = {
        "scan": scan,
        "pulse": PULSE,
        "thermal": THERMAL,
        "geometry": GEOMETRY,
        "transport": {"d_um": 132.0, "omega_r_khz": 26.0, "delta_0_khz": -72.0,
                      "spread_khz": 32.0},
    }
    if kind == "transport":
        del cfg["pulse"], cfg["thermal"]
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(cfg))
    assert main([kind, "--config", str(path)]) == 2


def test_transport_scan_deterministic(transport_cfg, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["transport", "--config", str(transport_cfg), "--out", str(a)]) == 0
    assert main(["transport", "--config", str(transport_cfg), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    scan = ScanResult.from_csv(a)
    assert scan.unit == "inv_tau_per_ms"
    assert scan.stderr is not None


def test_seed_override_changes_draws(transport_cfg, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["transport", "--config", str(transport_cfg), "--seed", "1", "--out", str(a)]) == 0
    assert main(["transport", "--config", str(transport_cfg), "--seed", "2", "--out", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_adiabaticity_own_config(tmp_path, capsys):
    cfg = {"scan": {"kind": "adiabaticity", "n_points": 41}, "pulse": PULSE}
    path = tmp_path / "adia.json"
    path.write_text(json.dumps(cfg))
    assert main(["adiabaticity", "--config", str(path)]) == 0
    scan = ScanResult.from_csv_text(capsys.readouterr().out)
    assert scan.unit == "ms"
    assert len(scan) == 41
    assert float(np.max(scan.p1)) == pytest.approx(9.02e-3, rel=0.05)


def test_adiabaticity_accepts_spectrum_config(spectrum_cfg, capsys):
    # convenience: profiling the pulse of any config that has one
    assert main(["adiabaticity", "--config", str(spectrum_cfg)]) == 0
    scan = ScanResult.from_csv_text(capsys.readouterr().out)
    assert scan.unit == "ms"
    assert len(scan) == 2001


def test_detection_is_not_applied_to_the_adiabaticity_profile(tmp_path, capsys):
    # a profile above 1 is no probability: an adiabaticity config that asks
    # for detection fails at load, and a spectrum config profiled by the
    # adiabaticity command leaves its detection behind with its grid
    pulse = {**PULSE, "omega_max_khz": 1.0, "t_p_ms": 0.01}
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"scan": {"kind": "adiabaticity", "n_points": 11},
                                "pulse": pulse, "apply_detection": True}))
    assert main(["adiabaticity", "--config", str(path)]) == 2
    assert "apply_detection maps probabilities" in capsys.readouterr().err
    path.write_text(json.dumps({"scan": {"kind": "spectrum", "values_khz": [0.0]},
                                "pulse": pulse, "thermal": THERMAL, "apply_detection": True}))
    assert main(["adiabaticity", "--config", str(path)]) == 0
    profile = ScanResult.from_csv_text(capsys.readouterr().out)
    assert float(np.max(profile.p1)) > 1.0


@pytest.mark.parametrize("kind, scan", [
    ("spectrum", {"kind": "spectrum", "values_khz": [0.0]}),
    ("adiabaticity", {"kind": "adiabaticity", "n_points": 11}),
])
def test_pulse_duration_off_the_ms_grid_profiles_to_its_end(tmp_path, capsys, kind, scan):
    # 0.53 ms is 0.0005300000000000001 s, and back 0.5300000000000001 ms:
    # a profile sampled on the ms grid would step past the pulse's end
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"scan": scan, "pulse": {**PULSE, "t_p_ms": 0.53},
                                "thermal": THERMAL}))
    assert main(["adiabaticity", "--config", str(path)]) == 0
    profile = ScanResult.from_csv_text(capsys.readouterr().out)
    assert len(profile) == (2001 if kind == "spectrum" else 11)
    assert profile.abscissa[-1] == pytest.approx(0.53, rel=1e-15)
    assert np.all(np.isfinite(profile.p1))


@pytest.mark.parametrize("command", ["spectrum", "adiabaticity"])
def test_pulse_rate_that_overflows_is_config_error(tmp_path, capsys, command):
    # omega_max pi / t_p is inf: the profile would be inf * sin(0) = NaN
    # and the spectrum all zeros
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"scan": {"kind": "spectrum", "values_khz": [0.0]},
                                "pulse": {**PULSE, "t_p_ms": 1e-300}, "thermal": THERMAL}))
    assert main([command, "--config", str(path)]) == 2
    assert "t_p must be finite" in capsys.readouterr().err


def test_preset_runs(capsys):
    assert main(["adiabaticity", "--preset", "thermal_spectrum"]) == 0
    capsys.readouterr()


def test_detection_applied_when_requested(tmp_path, capsys):
    cfg = {
        "scan": {"kind": "spectrum", "values_khz": [0.0, 1.0, 2.0, 3.0]},
        "pulse": PULSE,
        "thermal": THERMAL,
        "apply_detection": True,
        "detection": {"eps_pushout": 0.99, "eps_keep": 0.99, "p_init": 0.95},
    }
    path = tmp_path / "det.json"
    path.write_text(json.dumps(cfg))
    assert main(["spectrum", "--config", str(path)]) == 0
    with_det = ScanResult.from_csv_text(capsys.readouterr().out)
    cfg.pop("apply_detection")
    cfg.pop("detection")
    path.write_text(json.dumps(cfg))
    assert main(["spectrum", "--config", str(path)]) == 0
    without = ScanResult.from_csv_text(capsys.readouterr().out)
    det_slope = 0.95 * (0.99 + 0.99 - 1.0)
    expected = 0.95 * (without.p1 * 0.99 + (1 - without.p1) * 0.01) + 0.05 * 0.99
    np.testing.assert_allclose(with_det.p1, expected, atol=1e-12)
    assert det_slope < 1.0  # sanity on the compression factor


def test_fit_subcommand_round_trip(tmp_path, capsys):
    # synthesize a spectrum with the scan command, then fit it back
    cfg = {
        "scan": {"kind": "spectrum", "start_khz": -65.0, "stop_khz": 65.0, "step_khz": 2.0},
        "pulse": PULSE,
        "thermal": THERMAL,
    }
    cfg_path = tmp_path / "gen.json"
    cfg_path.write_text(json.dumps(cfg))
    data_path = tmp_path / "data.csv"
    assert main(["spectrum", "--config", str(cfg_path), "--out", str(data_path)]) == 0

    assert main(["fit", "--config", str(cfg_path), "--data", str(data_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["converged"] is True
    assert report["params"]["delta_th_khz"] == pytest.approx(1.7, rel=0.02)
    assert report["params"]["delta_ls_max_khz"] == pytest.approx(-11.0, abs=0.1)
    assert report["params"]["p_max"] == pytest.approx(0.95, abs=0.01)

    out_path = tmp_path / "fit.json"
    assert main(
        ["fit", "--config", str(cfg_path), "--data", str(data_path), "--out", str(out_path)]
    ) == 0
    assert json.loads(out_path.read_text())["converged"] is True
    assert main(
        ["fit", "--config", str(cfg_path), "--data", str(data_path), "--out", str(tmp_path / "f.csv")]
    ) == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_fit_data_is_data_error(fit_data, tmp_path, capsys, value):
    # NaN once ended in a traceback, inf in a report reading Infinity
    cfg, data = fit_data
    lines = data.read_text().splitlines(keepends=True)
    fields = lines[5].split(",")
    fields[2] = value
    lines[5] = ",".join(fields)
    bad = tmp_path / "bad.csv"
    bad.write_text("".join(lines))
    path = tmp_path / "fit.json"
    path.write_text(json.dumps(cfg))
    assert main(["fit", "--config", str(path), "--data", str(bad)]) == 2
    assert "p1 must be finite" in capsys.readouterr().err


def test_fit_abscissa_overflowing_rad_per_s_is_data_error(fit_data, tmp_path, capsys):
    # 1e306 kHz is finite, and inf in rad/s
    cfg, _ = fit_data
    path = tmp_path / "fit.json"
    path.write_text(json.dumps(cfg))
    data = tmp_path / "huge.csv"
    data.write_text("abscissa,khz,p1,stderr\n" + "".join(
        f"{x}e305,khz,{0.1 * (x % 3)},\n" for x in range(12)
    ))
    assert main(["fit", "--config", str(path), "--data", str(data)]) == 2
    assert "not finite in rad/s" in capsys.readouterr().err


def test_fit_reads_only_a_khz_abscissa(fit_data, tmp_path, capsys):
    # the fit reads the kHz spectra that apsim writes; rad/s is a data error
    cfg, data = fit_data
    path = tmp_path / "fit.json"
    path.write_text(json.dumps(cfg))
    in_rad = tmp_path / "rad.csv"
    in_rad.write_text(data.read_text().replace("khz", "rad/s"))
    assert main(["fit", "--config", str(path), "--data", str(in_rad)]) == 2
    assert "fit needs a detuning abscissa in 'khz', got 'rad/s'" in capsys.readouterr().err


def test_fit_requires_thermal_section(tmp_path):
    cfg = {"scan": {"kind": "adiabaticity", "n_points": 11}, "pulse": PULSE}
    cfg_path = tmp_path / "pulse_only.json"
    cfg_path.write_text(json.dumps(cfg))
    data = tmp_path / "d.csv"
    data.write_text("abscissa,khz,p1,stderr\n" + "".join(
        f"{x},khz,0.5,\n" for x in range(12)
    ))
    assert main(["fit", "--config", str(cfg_path), "--data", str(data)]) == 2


# ------------------------------------------------------------ fit robustness

@pytest.fixture(scope="module")
def fit_data(tmp_path_factory):
    """A broadened spectrum at 2 kHz steps and the config that made it."""
    tmp = tmp_path_factory.mktemp("fit")
    cfg = {
        "scan": {"kind": "spectrum", "start_khz": -65.0, "stop_khz": 65.0, "step_khz": 2.0},
        "pulse": PULSE,
        "thermal": THERMAL,
    }
    data = tmp / "data.csv"
    (tmp / "gen.json").write_text(json.dumps(cfg))
    assert main(["spectrum", "--config", str(tmp / "gen.json"), "--out", str(data)]) == 0
    return cfg, data


def test_fit_reports_its_cache_on_stderr(fit_data, tmp_path, capsys):
    # the grid size and the points integrated go to stderr, never stdout
    cfg, data = fit_data
    path = tmp_path / "fit.json"
    path.write_text(json.dumps(cfg))
    assert main(["fit", "--config", str(path), "--data", str(data)]) == 0
    captured = capsys.readouterr()
    json.loads(captured.out)
    found = re.search(r"bare-spectrum cache: (\d+) grid points, (\d+) integrated", captured.err)
    assert found is not None
    grid, integrated = map(int, found.groups())
    assert 0 < integrated < grid


@pytest.mark.parametrize("guess, inside", [({}, True), ({"delta_ls_max_khz": -0.05}, False)])
def test_fit_reports_its_reach_on_stderr(fit_data, tmp_path, capsys, guess, inside):
    # the cache reaches 3 |delta_ls_max| of the guess below the data; a
    # guess 220 times too narrow sends trials past it, onto clamped values
    # (ROADMAP item 2), and the stderr line shows it
    cfg, data = fit_data
    path = tmp_path / "fit.json"
    path.write_text(json.dumps(dict(cfg, thermal=dict(THERMAL, **guess))))
    assert main(["fit", "--config", str(path), "--data", str(data)]) == 0
    captured = capsys.readouterr()
    json.loads(captured.out)
    found = re.search(r"reach (\S+) kHz below the data, widest trial (\S+) kHz", captured.err)
    reach, widest = map(float, found.groups())
    assert reach == pytest.approx(-3.0 * dict(THERMAL, **guess)["delta_ls_max_khz"], rel=1e-3)
    assert (widest <= reach) is inside and widest >= 11.0 - 0.01


@pytest.mark.parametrize(
    "guess",
    [
        # an oversized shift grid once asked for tens of GiB
        {"delta_th_khz": 17.0},
        # these once overflowed exp in a trial step; this one and the
        # first once stopped on the p_max = 1 ridge at rms 8.5e-3
        {"delta_ls_max_khz": -1.0},
        {"delta_ls_max_khz": -0.5},
        {"delta_ls_max_khz": -0.05},
    ],
)
def test_fit_from_far_guess_keeps_exit_contract(fit_data, tmp_path, guess):
    cfg, data = fit_data
    cfg = dict(cfg, thermal=dict(THERMAL, **guess))
    path = tmp_path / "guess.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "fit.json"
    assert main(["fit", "--config", str(path), "--data", str(data), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["converged"] is True and report["residual_rms"] < 1e-6
    assert 0 < report["n_iterations"] <= 2000
    params = report["params"]
    assert params["delta_ls_max_khz"] == pytest.approx(-11.0, abs=0.01)
    assert params["delta_th_khz"] == pytest.approx(1.7, rel=1e-3)
    assert params["p_max"] == pytest.approx(0.95, abs=1e-3)


@pytest.mark.parametrize("delta_ls_max_khz", [-30.0, -100.0, -1.0, -0.5])
def test_renormalized_fit_from_far_guess_keeps_exit_contract(fit_data, tmp_path,
                                                             delta_ls_max_khz):
    # renormalized, the data's p_max of 0.95 reads 0.95 times the truncated
    # mass, 0.9082.  The -1 kHz guess once stopped at -6.44 kHz, rms 0.039.
    # The -0.5 kHz guess once divided by a mass that had underflowed to 0
    # (exit 1); it still stops away from the truth
    cfg, data = fit_data
    cfg = dict(cfg, thermal=dict(THERMAL, delta_ls_max_khz=delta_ls_max_khz, renormalize=True))
    path = tmp_path / "guess.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "fit.json"
    assert main(["fit", "--config", str(path), "--data", str(data), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    params = report["params"]
    assert all(math.isfinite(v) for v in [*params.values(), report["residual_rms"]])
    assert 0 < report["n_iterations"] <= 2000
    if delta_ls_max_khz == -0.5:
        return
    assert report["converged"] is True and report["residual_rms"] < 1e-6
    assert params["delta_ls_max_khz"] == pytest.approx(-11.0, abs=0.01)
    assert params["delta_th_khz"] == pytest.approx(1.7, rel=1e-3)
    assert params["p_max"] == pytest.approx(0.9082, abs=1e-3)


def test_detection_accepts_renormalized_unit_plateau(monkeypatch, tmp_path, capsys):
    import apsim.cli

    # p_max = 1 renormalized reads within the convolution's 1e-6 of 1 on
    # the plateau, on either side; detection must see an excursion above 1
    # as 1, not fail
    cfg = {
        "scan": {"kind": "spectrum", "values_khz": [-40.0, -20.0, 0.0, 20.0]},
        "pulse": PULSE,
        "thermal": dict(THERMAL, p_max=1.0, renormalize=True),
    }
    path = tmp_path / "unit.json"
    path.write_text(json.dumps(cfg))
    assert main(["spectrum", "--config", str(path)]) == 0
    raw = ScanResult.from_csv_text(capsys.readouterr().out)
    assert abs(np.max(raw.p1) - 1.0) <= 1e-6

    # a fixed-step Simpson rule read 1 + 1.1e-7 on this plateau
    path.write_text(json.dumps(dict(cfg, apply_detection=True)))
    monkeypatch.setattr(
        apsim.cli, "broadened_spectrum", lambda *a, **k: np.append(raw.p1[:-1], 1.0 + 1.1e-7)
    )
    assert main(["spectrum", "--config", str(path)]) == 0
    measured = ScanResult.from_csv_text(capsys.readouterr().out)
    assert np.max(measured.p1) == pytest.approx(0.99, abs=1e-12)


def test_detection_rejects_large_excursion(monkeypatch, tmp_path):
    import apsim.cli

    cfg = {
        "scan": {"kind": "spectrum", "values_khz": [0.0, 1.0]},
        "pulse": PULSE,
        "thermal": THERMAL,
        "apply_detection": True,
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(cfg))
    monkeypatch.setattr(
        apsim.cli, "broadened_spectrum", lambda *a, **k: np.array([0.5, 1.0 + 1e-5])
    )
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        main(["spectrum", "--config", str(path)])


# ------------------------------------------------------------ start-up

def test_transport_and_fit_run_without_scipy(fit_data, transport_cfg, tmp_path):
    cfg, data = fit_data
    fit_cfg = tmp_path / "fit.json"
    fit_cfg.write_text(json.dumps(dict(cfg, thermal=dict(THERMAL, delta_th_khz=2.0))))
    script = f"""
import sys
sys.path.insert(0, {str(Path(apsim.__file__).parents[1])!r})
import apsim.cli

def loaded():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] in ("scipy", "argparse", "gettext", "locale")
                  or m.split(".")[:2] == ["numpy", "random"])

assert not loaded(), loaded()
assert apsim.cli.main(["transport", "--config", {str(transport_cfg)!r},
                       "--out", {str(tmp_path / "t.csv")!r}]) == 0
assert not loaded(), loaded()
assert apsim.cli.main(["fit", "--config", {str(fit_cfg)!r}, "--data", {str(data)!r},
                       "--out", {str(tmp_path / "f.json")!r}]) == 0
assert not loaded(), loaded()
assert apsim.cli.main(["spectrum", "--preset", "thermal_spectrum",
                       "--out", {str(tmp_path / "s.csv")!r}]) == 0
assert not loaded(), loaded()
assert apsim.cli.main(["spatial", "--preset", "site_addressing",
                       "--out", {str(tmp_path / "a.csv")!r}]) == 0
assert not loaded(), loaded()
assert apsim.cli.main(["adiabaticity", "--preset", "thermal_spectrum",
                       "--out", {str(tmp_path / "p.csv")!r}]) == 0
assert not loaded(), loaded()
"""
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert json.loads((tmp_path / "f.json").read_text())["converged"] is True


def test_main_leaves_nothing_frozen(spectrum_cfg, tmp_path):
    # main freezes the objects alive when it starts and must hand them back
    # to the collector however the command ends
    import gc

    assert main(["spectrum", "--config", str(spectrum_cfg), "--out",
                 str(tmp_path / "s.csv")]) == 0
    assert gc.get_freeze_count() == 0
    assert main(["spectrum", "--config", str(tmp_path / "missing.json")]) == 2
    assert gc.get_freeze_count() == 0


def test_each_call_writes_to_the_stderr_it_finds(tmp_path):
    # a diagnostic line goes to sys.stderr as it is when the line is
    # written, so two calls in one process, each with its own stderr, each
    # find their own line in it
    script = f"""
import io, json, sys
sys.path.insert(0, {str(Path(apsim.__file__).parents[1])!r})
from apsim.cli import main

runs = []
for name in ("first", "second"):
    sys.stderr = io.StringIO()
    code = main(["spectrum", "--config", {str(tmp_path)!r} + "/" + name + ".json"])
    runs.append((code, sys.stderr.getvalue()))
sys.stderr = sys.__stderr__
print(json.dumps(runs))
"""
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    for name, (code, text) in zip(("first", "second"), json.loads(run.stdout)):
        assert code == 2
        assert text.startswith("ERROR [Errno 2] No such file") and text.count("\n") == 1
        assert f"{name}.json" in text


def test_package_imports_no_scipy_logging_or_argparse():
    # scipy is a test dependency only, and numpy.random a test oracle only:
    # no module of the package imports either, at the top or inside a
    # function, nor reaches numpy.random as an attribute (numpy loads it
    # on first access).  Nor does any import logging, argparse or gettext:
    # the CLI parses its fixed grammar and writes its few diagnostic lines
    # to stderr itself
    def banned(name):
        return (name.split(".")[0] in ("scipy", "logging", "argparse", "gettext")
                or name.split(".")[:2] == ["numpy", "random"])

    found = []
    for path in sorted(Path(apsim.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module or ''}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}".replace("np.", "numpy.", 1)]
            else:
                continue
            found += [f"{path.name}: {n}" for n in names if banned(n)]
    assert not found, found
