"""The bundled demonstration presets load, validate and reproduce their
stored outputs."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from apsim.cli import run_scan
from apsim.config import RunConfig
from apsim.presets import preset_config, preset_names
from apsim.scan import ScanResult

# the seed-0 CSV of each preset, as written by `apsim <kind> --preset <name>`
DATA = Path(__file__).parent / "data"


def test_names_are_sorted_and_complete():
    names = preset_names()
    assert names == sorted(names)
    assert set(names) == {"site_addressing", "thermal_spectrum", "transport_speed"}


@pytest.mark.parametrize("name", ["thermal_spectrum", "site_addressing", "transport_speed"])
def test_presets_build_validated_configs(name):
    cfg = preset_config(name)
    assert isinstance(cfg, RunConfig)
    assert cfg.seed == 0


def test_unknown_preset_rejected():
    with pytest.raises(KeyError):
        preset_config("narrow_sweep")


def test_seed_override():
    assert replace(preset_config("transport_speed"), seed=7).seed == 7


def test_preset_kinds():
    assert preset_config("thermal_spectrum").kind == "spectrum"
    assert preset_config("site_addressing").kind == "spatial"
    assert preset_config("transport_speed").kind == "transport"


@pytest.mark.parametrize("name", ["thermal_spectrum", "site_addressing", "transport_speed"])
def test_preset_output_matches_stored_csv(name):
    # a refactor keeps every output byte; the 1e-12 tolerance only admits
    # the last-bit differences of another CPU's vectorized math library
    want = ScanResult.from_csv(DATA / f"{name}.csv")
    got = run_scan(preset_config(name))
    assert got.unit == want.unit
    np.testing.assert_array_equal(got.abscissa, want.abscissa)
    np.testing.assert_allclose(got.p1, want.p1, rtol=0.0, atol=1e-12)
    if want.stderr is None:
        assert got.stderr is None
    else:
        np.testing.assert_allclose(got.stderr, want.stderr, rtol=0.0, atol=1e-12)
