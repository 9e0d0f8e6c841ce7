"""Exit-code contract tests over every single-leaf mutation.

Every single-leaf mutation of a preset by each of a fixed set of junk
values, run through the preset's own command and, where it has a pulse,
through ``adiabaticity``, ends in exit 0, 2 or 3 and never in a
traceback or an apsim RuntimeWarning; an exit 0 writes no NaN.  Grids
are cut to 3 points, ensembles to 4 members and pulses to 0.2 ms, so
each run takes milliseconds.

The opt-in keys no preset sets (``detection``, ``apply_detection`` and,
where a preset has a thermal section, ``thermal.renormalize``) are added
to each preset at non-default values, and each of their leaves is mutated
by the same junk values under the same contract; the preset's own leaves,
which the first test already mutates, are left as they are.

The leaves the format no longer has (the ``integrator`` and
``convolution`` sections, the geometry's ``guide_shift_nu_mhz`` and
``span_um``, and the transport section's modes) stay in these sweeps
where the presets once had them: each, set to any of the junk values,
exits 2 at load.

A preset without a ``geometry`` section (``thermal_spectrum``) is given
the spatial presets' one in every sweep here: a spectrum config may carry
the section, which no spectrum command reads but load checks on every
command, so its leaves are mutated on ``spectrum`` and ``adiabaticity``
too.

Each preset with its pulse section swapped for a valid "ap" one, or for
one of the retired kinds "rect" and "tabulated", ends, on every command,
in the exit code the config's rules give; and every numeric leaf of each
preset, the retired geometry leaves among them, written as a numeric
string exits 2.
"""

import json
import math

import pytest

from apsim.cli import main
from apsim.presets import PRESETS, preset_names

# 10**400: a JSON integer too large for a float
JUNK = {"0": 0, "-1": -1, "1e-300": 1e-300, "1e308": 1e308, "-1e308": -1e308, "nan": math.nan,
        "inf": math.inf, "str": "a", "null": None, "true": True, "list": [], "dict": {},
        "0.53": 0.53, "10**400": 10**400}


# the geometry section of the spatial presets, given to a preset that has none
GEOMETRY = {"grad_nu_khz_per_um": 3.2}


def _preset(preset: str) -> dict:
    """The named preset, with a geometry section if it has none."""
    raw = PRESETS[preset]()
    raw.setdefault("geometry", dict(GEOMETRY))
    return raw


def _small(preset: str) -> dict:
    """The named preset, with a geometry section, its grid cut to 3
    points, its ensemble to 4 and its pulse to 0.2 ms."""
    raw = _preset(preset)
    scan = raw["scan"]
    if scan["kind"] == "transport":
        scan["inv_tau_per_ms"] = scan["inv_tau_per_ms"][-3:]
        raw["transport"]["n_ensemble"] = 4
    else:
        unit = "khz" if scan["kind"] == "spectrum" else "um"
        scan[f"step_{unit}"] = (scan[f"stop_{unit}"] - scan[f"start_{unit}"]) / 2
    if "pulse" in raw:
        raw["pulse"]["t_p_ms"] = 0.2
    return raw


def _leaves(node, path=()):
    """Paths to every scalar of a JSON tree."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        if isinstance(value, (dict, list)):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,)


# leaves the format no longer has: the optional integrator and convolution
# sections, and keys of sections a preset has; each fails at load whatever
# its value
RETIRED_SECTIONS = {"integrator", "convolution"}
RETIRED = {("integrator", "rel_tol"), ("integrator", "abs_tol"), ("integrator", "max_step_ms"),
           ("geometry", "guide_shift_nu_mhz"), ("geometry", "span_um")}
RETIRED_OPT_IN = {("transport", key)
                  for key in ("distribution", "switch_on", "readout", "ramp_time_ms")}
RETIRED_OPT_IN |= {("convolution", "renormalize")}


def _retired(raw: dict, retired: set) -> list:
    """The retired paths that were leaves of raw's sections, in a fixed order."""
    return sorted(path for path in retired if path[0] in RETIRED_SECTIONS | set(raw))


def _mutations():
    """Every (preset, leaf, junk, command) case."""
    for preset in preset_names():
        raw = _small(preset)
        commands = [raw["scan"]["kind"]] + (["adiabaticity"] if "pulse" in raw else [])
        for path in [*_leaves(raw), *_retired(raw, RETIRED)]:
            for junk in JUNK:
                for command in commands:
                    yield pytest.param(preset, path, junk, command,
                                       id=f"{preset}-{'.'.join(map(str, path))}-{junk}-{command}")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutations")


def _assert_contract(workdir, raw: dict, path: tuple, junk: str, command: str) -> None:
    """raw with its leaf at path set to JUNK[junk], run through command,
    exits 0, 2 or 3, and an exit 0 writes no NaN; a retired leaf, whose
    section is made if raw lacks it, exits 2."""
    *outer, key = path
    node = raw
    for k in outer:
        node = node.setdefault(k, {})
    node[key] = JUNK[junk]
    cfg, out = workdir / "cfg.json", workdir / "out.csv"
    cfg.write_text(json.dumps(raw))  # NaN and inf as JSON's NaN/Infinity
    out.unlink(missing_ok=True)
    code = main([command, "--config", str(cfg), "--out", str(out)])
    assert code in ((2,) if path in RETIRED | RETIRED_OPT_IN else (0, 2, 3))
    if code == 0:
        assert "nan" not in out.read_text()


@pytest.mark.parametrize("preset, path, junk, command", list(_mutations()))
def test_single_leaf_mutation_keeps_the_exit_contract(workdir, preset, path, junk, command):
    _assert_contract(workdir, _small(preset), path, junk, command)


# the opt-in keys no preset sets, at values other than their defaults so
# that the paths they switch on run: top-level keys, and optional keys of
# sections a preset may have
OPT_IN = {"detection": {"eps_pushout": 0.9, "eps_keep": 0.95, "p_init": 0.9},
          "apply_detection": True}
OPT_IN_KEYS = {("thermal", "renormalize"): True}


def _opted_in(preset: str) -> dict:
    """A cut preset with every opt-in key added that its sections take."""
    raw = _small(preset)
    raw.update(json.loads(json.dumps(OPT_IN)))
    for (section, key), value in OPT_IN_KEYS.items():
        if section in raw:
            raw[section][key] = value
    return raw


def _opt_in_mutations():
    """Every (preset, opt-in leaf, junk, command) case."""
    for preset in preset_names():
        raw = _opted_in(preset)
        commands = [raw["scan"]["kind"]] + (["adiabaticity"] if "pulse" in raw else [])
        paths = [path for path in _leaves(raw) if path[0] in OPT_IN or path in OPT_IN_KEYS]
        for path in paths + _retired(raw, RETIRED_OPT_IN):
            for junk in JUNK:
                for command in commands:
                    yield pytest.param(preset, path, junk, command,
                                       id=f"{preset}-{'.'.join(map(str, path))}-{junk}-{command}")


def test_opted_in_presets_run(workdir):
    # the unmutated base of the opt-in cases runs on every command it has
    for preset in preset_names():
        raw = _opted_in(preset)
        cfg, out = workdir / "opt_in.json", workdir / "opt_in.csv"
        cfg.write_text(json.dumps(raw))
        for command in [raw["scan"]["kind"]] + (["adiabaticity"] if "pulse" in raw else []):
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0, (preset, command)


@pytest.mark.parametrize("preset, path, junk, command", list(_opt_in_mutations()))
def test_opt_in_leaf_mutation_keeps_the_exit_contract(workdir, preset, path, junk, command):
    _assert_contract(workdir, _opted_in(preset), path, junk, command)


# a valid "ap" pulse section, and sections of the kinds the format no
# longer has
PULSES = {
    "ap": {"kind": "ap", "omega_max_khz": 28.0, "delta_max_khz": 40.0, "delta_c_khz": 5.0,
           "t_p_ms": 2.0},
    "rect": {"kind": "rect", "omega_khz": 10.0, "delta_khz": 0.0, "t_p_ms": 0.05},
    "tabulated": {"kind": "tabulated", "t_ms": [0.0, 1.0, 2.0], "omega_khz": [0.0, 28.0, 0.0],
                  "delta_khz": [-40.0, 0.0, 40.0]},
}
COMMANDS = ["spectrum", "spatial", "transport", "adiabaticity", "fit"]


def _expected_exit(raw: dict, command: str) -> int:
    """A pulse of another kind than "ap" fails at load; the adiabaticity
    command profiles the pulse; a fit needs a thermal section; a command
    runs its own kind."""
    if raw["pulse"]["kind"] != "ap":
        return 2
    if command == "adiabaticity":
        return 0
    if command == "fit":
        return 0 if "thermal" in raw else 2
    return 0 if command == raw["scan"]["kind"] else 2


@pytest.fixture(scope="module")
def fit_data(workdir):
    path = workdir / "data.csv"
    rows = "".join(f"{x},khz,{0.9 * math.exp(-(x / 30.0) ** 4)},\n" for x in range(-60, 61, 10))
    path.write_text("abscissa,khz,p1,stderr\n" + rows)
    return path


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("pulse", sorted(PULSES))
@pytest.mark.parametrize("preset", preset_names())
def test_pulse_section_swap_keeps_the_exit_contract(workdir, fit_data, preset, pulse, command):
    raw = _small(preset)
    raw["pulse"] = PULSES[pulse]
    cfg = workdir / "swap.json"
    cfg.write_text(json.dumps(raw))
    out = workdir / ("fit.json" if command == "fit" else "swap.csv")
    argv = [command, "--config", str(cfg), "--out", str(out)]
    if command == "fit":
        argv += ["--data", str(fit_data)]
    assert main(argv) == _expected_exit(raw, command)


# the geometry leaves the format no longer has, at the values the presets
# once gave them
RETIRED_NUMERIC = {("geometry", "guide_shift_nu_mhz"): 9.8, ("geometry", "span_um"): 300.0}


def _with_retired_numeric(raw: dict) -> dict:
    """raw with the retired numeric leaves of its sections added."""
    for (section, key), value in RETIRED_NUMERIC.items():
        if section in raw:
            raw[section][key] = value
    return raw


def _numeric_leaves():
    for name in preset_names():
        raw = _with_retired_numeric(_preset(name))
        for path in _leaves(raw):
            node = raw
            for k in path:
                node = node[k]
            if isinstance(node, (int, float)) and not isinstance(node, bool):
                yield pytest.param(name, path, id=f"{name}-{'.'.join(map(str, path))}")


@pytest.mark.parametrize("preset, path", list(_numeric_leaves()))
def test_numeric_string_is_a_config_error(workdir, preset, path):
    # the whole preset: loading fails before any of it runs
    raw = _preset(preset)
    if path in RETIRED_NUMERIC:
        raw[path[0]][path[1]] = RETIRED_NUMERIC[path]
    *outer, key = path
    node = raw
    for k in outer:
        node = node[k]
    node[key] = repr(node[key])
    cfg = workdir / "string.json"
    cfg.write_text(json.dumps(raw))
    assert main([raw["scan"]["kind"], "--config", str(cfg), "--out", str(workdir / "s.csv")]) == 2
