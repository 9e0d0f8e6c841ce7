"""Property test of the exit-code contract.

Any single-leaf mutation of a preset, by one of a fixed set of junk
values, run through the preset's own command or, where it has a pulse,
through ``adiabaticity``, ends in exit 0, 2 or 3 and never in a
traceback; an exit 0 writes no NaN.  Grids are cut to 3 points and
ensembles to 4 members, so each run takes milliseconds.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apsim.cli import main
from apsim.presets import PRESETS, preset_names

JUNK = [0, -1, 1e-300, 1e308, -1e308, math.nan, math.inf, "a", None, True, [], {}, 0.53]


def _small(raw: dict) -> dict:
    """The preset with its grid cut to 3 points and its ensemble to 4."""
    scan = raw["scan"]
    if scan["kind"] == "transport":
        scan["inv_tau_per_ms"] = scan["inv_tau_per_ms"][-3:]
        raw["transport"]["n_ensemble"] = 4
    else:
        unit = "khz" if scan["kind"] == "spectrum" else "um"
        scan[f"step_{unit}"] = (scan[f"stop_{unit}"] - scan[f"start_{unit}"]) / 2
    return raw


def _leaves(node, path=()):
    """Paths to every scalar of a JSON tree."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        if isinstance(value, (dict, list)):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,)


@st.composite
def mutations(draw):
    """(command, config): a cut preset with one leaf replaced by junk."""
    raw = _small(PRESETS[draw(st.sampled_from(preset_names()))]())
    command = draw(st.sampled_from(
        [raw["scan"]["kind"]] + (["adiabaticity"] if "pulse" in raw else [])
    ))
    *outer, key = draw(st.sampled_from(list(_leaves(raw))))
    node = raw
    for k in outer:
        node = node[k]
    node[key] = draw(st.sampled_from(JUNK))
    return command, raw


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutations")


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(case=mutations())
def test_single_leaf_mutation_keeps_the_exit_contract(workdir, case):
    command, raw = case
    cfg, out = workdir / "cfg.json", workdir / "out.csv"
    cfg.write_text(json.dumps(raw))  # NaN and inf as JSON's NaN/Infinity
    out.unlink(missing_ok=True)
    code = main([command, "--config", str(cfg), "--out", str(out)])
    assert code in (0, 2, 3)
    if code == 0:
        assert "nan" not in out.read_text()
