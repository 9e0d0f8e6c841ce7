"""Regenerate the stored inputs and outputs in bench/data.

Usage (from the repository root): python3 bench/make_reference.py

fit_clean.csv        noise-free broadened spectrum of the thermal_spectrum
                     pulse for the fit workload's synthetic data, -65..65 kHz
ref_spectrum.csv     spectrum workload output
ref_transport.csv    transport workload output for DEFAULT_SEED
ref_fit.json         fit workload outputs for DEFAULT_SEED, by invocation key

The stored files pin the outputs of the commit that made them; rerun this
only on purpose, since the benchmark's reference checks compare against
them.  fit_clean.csv is an input: regenerating it changes the fit workload.
"""

import json
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from apsim.cli import main  # noqa: E402
from apsim.pulses import APPulse  # noqa: E402
from apsim.scan import ScanResult  # noqa: E402
from apsim.thermal import SpectrumCache, ThermalModel, convolve_on_grid  # noqa: E402
from apsim.units import khz_to_rad_per_s  # noqa: E402

from workloads import DATA, DEFAULT_SEED, FIT_TRUTH, SPECTRUM_GRID, WORKLOADS  # noqa: E402


def write_fit_clean() -> None:
    # the same forward model as acceptance criterion 8
    pulse = APPulse.from_khz(28.0, 40.0, 0.0, 2.0)
    truth = ThermalModel.from_khz(*FIT_TRUTH.values())
    grid = khz_to_rad_per_s(np.asarray(SPECTRUM_GRID))
    cache = SpectrumCache.for_scan(pulse, grid[0], grid[-1], truth)
    clean = convolve_on_grid(cache, grid, truth)
    ScanResult(SPECTRUM_GRID, clean, None, "khz").to_csv(DATA / "fit_clean.csv")


def run(invocation, out: Path) -> None:
    code = main(invocation.argv + ["--out", str(out)])
    if code != 0:
        raise SystemExit(f"{invocation.argv} exited {code}")


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    write_fit_clean()
    tmp = HERE.parent / ".bench_runs" / "make_reference"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        (spectrum,) = WORKLOADS["spectrum"].block(DEFAULT_SEED, tmp)
        run(spectrum, DATA / "ref_spectrum.csv")
        (transport,) = WORKLOADS["transport"].block(DEFAULT_SEED, tmp)
        run(transport, DATA / "ref_transport.csv")
        fits = {}
        for inv in WORKLOADS["fit"].block(DEFAULT_SEED, tmp):
            run(inv, tmp / "fit.json")
            fits[inv.key] = json.loads((tmp / "fit.json").read_text())
        (DATA / "ref_fit.json").write_text(json.dumps(fits, indent=2) + "\n")
    finally:
        shutil.rmtree(tmp)
