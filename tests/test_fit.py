import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import least_squares

import apsim.fit
from apsim.errors import FitDataError
from apsim.fit import FitResult, fit_spectrum
from apsim.scan import ScanResult
from apsim.thermal import SpectrumCache, ThermalModel, convolve_on_grid
from apsim.units import khz_to_rad_per_s, rad_per_s_to_khz

GRID_KHZ = np.arange(-65.0, 65.5, 1.0)


@pytest.fixture(scope="module")
def clean_data(ref_cache, ref_thermal) -> ScanResult:
    vals = convolve_on_grid(ref_cache, khz_to_rad_per_s(GRID_KHZ), ref_thermal)
    return ScanResult(GRID_KHZ, vals, None, "khz")


@pytest.fixture(scope="module")
def noisy_fit(clean_data, ref_pulse):
    # reproducible measurement noise plus a guess off by 30% in every
    # parameter; module-scoped because the fit itself is the slow part
    rng = np.random.default_rng(0)
    noisy = ScanResult(
        GRID_KHZ,
        np.clip(clean_data.p1 + rng.normal(0.0, 0.02, size=len(clean_data)), 0.0, 1.0),
        None,
        "khz",
    )
    sway = lambda: 1.0 + 0.3 * rng.choice([-1.0, 1.0])  # noqa: E731
    guess = ThermalModel.from_khz(-11.0 * sway(), 1.7 * sway(), min(0.95 * sway(), 0.999))
    return noisy, guess, fit_spectrum(noisy, ref_pulse, guess)


def test_zero_noise_self_consistency(clean_data, ref_pulse, ref_thermal):
    res = fit_spectrum(clean_data, ref_pulse, ref_thermal)
    assert res.converged
    assert res.residual_rms < 1e-4
    assert res.params.delta_th == pytest.approx(ref_thermal.delta_th, rel=1e-3)
    assert res.params.delta_ls_max == pytest.approx(
        ref_thermal.delta_ls_max, abs=khz_to_rad_per_s(0.01)
    )
    assert res.params.p_max == pytest.approx(ref_thermal.p_max, abs=1e-3)
    assert res.n_iterations >= 1


def test_saturated_data_clip_p_max_to_one(ref_cache, ref_pulse, ref_thermal):
    # a saturated passage (p_max = 1) measured with noise: the least-squares
    # p_max lies above 1, and the closed form must clip it to 1 exactly
    saturated = replace(ref_thermal, p_max=1.0)
    deltas = khz_to_rad_per_s(GRID_KHZ)
    rng = np.random.default_rng(0)
    y = convolve_on_grid(ref_cache, deltas, saturated) + rng.normal(0.0, 0.02, len(GRID_KHZ))
    res = fit_spectrum(ScanResult(GRID_KHZ, y, None, "khz"), ref_pulse, ref_thermal)
    assert res.converged
    g = convolve_on_grid(ref_cache, deltas, replace(res.params, p_max=1.0))
    assert g @ y / (g @ g) > 1.0
    assert res.params.p_max == 1.0
    assert abs(rad_per_s_to_khz(res.params.delta_ls_max) - (-11.0)) < 1.0
    assert abs(rad_per_s_to_khz(res.params.delta_th) - 1.7) / 1.7 < 0.15


def test_noisy_round_trip_recovers_parameters(noisy_fit, ref_thermal):
    _, _, res = noisy_fit
    assert res.converged
    p = res.params
    assert abs(p.p_max - ref_thermal.p_max) < 0.02
    assert abs(rad_per_s_to_khz(p.delta_th) - 1.7) / 1.7 < 0.15
    assert abs(rad_per_s_to_khz(p.delta_ls_max) - (-11.0)) < 1.0


def test_fit_improves_on_initial_guess(noisy_fit, ref_cache):
    data, guess, res = noisy_fit
    deltas = khz_to_rad_per_s(data.abscissa)
    guess_rms = float(
        np.sqrt(np.mean((convolve_on_grid(ref_cache, deltas, guess) - data.p1) ** 2))
    )
    assert res.residual_rms < guess_rms
    # noise floor: the rms should land near the injected sigma
    assert res.residual_rms < 0.03


def test_data_validation(ref_pulse, ref_thermal):
    short = ScanResult(GRID_KHZ[:5], np.linspace(0.1, 0.5, 5), None, "khz")
    with pytest.raises(FitDataError):
        fit_spectrum(short, ref_pulse, ref_thermal)
    flat = ScanResult(GRID_KHZ, np.full_like(GRID_KHZ, 0.4), None, "khz")
    with pytest.raises(FitDataError):
        fit_spectrum(flat, ref_pulse, ref_thermal)
    # the abscissa is the kHz that apsim writes; rad/s is no exception
    for unit in ("um", "rad/s"):
        weird_unit = ScanResult(GRID_KHZ, np.linspace(0, 1, len(GRID_KHZ)), None, unit)
        with pytest.raises(FitDataError, match="abscissa in 'khz'"):
            fit_spectrum(weird_unit, ref_pulse, ref_thermal)
    # finite in kHz, but not in rad/s
    huge = ScanResult(GRID_KHZ * 1e304, np.linspace(0, 1, len(GRID_KHZ)), None, "khz")
    with pytest.raises(FitDataError, match="not finite in rad/s"):
        fit_spectrum(huge, ref_pulse, ref_thermal)
    # the guess's model is exactly zero 2 MHz off resonance, or without
    # light shift, and p_max is undefined there
    ramp = np.linspace(0, 1, len(GRID_KHZ))
    far_off = ScanResult(GRID_KHZ + 2000.0, ramp, None, "khz")
    with pytest.raises(FitDataError, match="initial guess"):
        fit_spectrum(far_off, ref_pulse, ref_thermal)
    with pytest.raises(FitDataError, match="initial guess"):
        fit_spectrum(ScanResult(GRID_KHZ, ramp, None, "khz"), ref_pulse,
                     replace(ref_thermal, delta_ls_max=0.0))


# ------------------------------------------------------------ optimizer

def _block_fit(clean_data, seed, pair):
    """Noisy data and guess of one fit of the benchmark's fit block: the
    (delta_ls_max, delta_th) guess errors take the signs of pair's bits."""
    rng = np.random.default_rng(1000 * seed + pair)
    signs = (1.0 if pair & 1 else -1.0, 1.0 if pair & 2 else -1.0,
             float(rng.choice([-1.0, 1.0])))
    noisy = clean_data.p1 + rng.normal(0.0, 0.02, size=len(clean_data))
    guess = ThermalModel.from_khz(
        -11.0 * (1.0 + 0.3 * signs[0]),
        1.7 * (1.0 + 0.3 * signs[1]),
        min(0.95 * (1.0 + 0.3 * signs[2]), 0.999),
    )
    return ScanResult(GRID_KHZ, noisy, None, "khz"), guess


def _tight_least_squares(fun, x0, max_nfev):
    """The oracle: MINPACK's lmder as scipy's least_squares calls it, with
    every stop test at 1e-15, so that it stops at the converged minimum."""
    res = least_squares(fun, x0, method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15,
                        max_nfev=max_nfev)
    return res.x, res.fun, res.nfev, res.status > 0


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("pair", [0, 1, 2, 3])
def test_optimizer_matches_least_squares(clean_data, ref_pulse, monkeypatch, seed, pair):
    data, guess = _block_fit(clean_data, seed, pair)
    got = fit_spectrum(data, ref_pulse, guess)
    monkeypatch.setattr(apsim.fit, "_levenberg_marquardt", _tight_least_squares)
    want = fit_spectrum(data, ref_pulse, guess)
    assert got.converged and want.converged
    for key in ("delta_ls_max", "delta_th", "p_max"):
        assert getattr(got.params, key) == pytest.approx(getattr(want.params, key), rel=1e-6)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("pair", [0, 1, 2, 3])
def test_fit_reads_only_inside_its_cache(clean_data, ref_pulse, monkeypatch, seed, pair):
    # the cache reaches 3 |delta_ls_max| of the guess below the data: the
    # widest trial of the benchmark's 48 fits (seeds 0-11) reached 2.61
    reads = []
    call = SpectrumCache.__call__

    def recording(self, delta_c):
        x = np.asarray(delta_c)
        reads.append(self.lo <= float(np.min(x)) and float(np.max(x)) <= self.hi)
        return call(self, delta_c)

    monkeypatch.setattr(SpectrumCache, "__call__", recording)
    data, guess = _block_fit(clean_data, seed, pair)
    res = fit_spectrum(data, ref_pulse, guess)
    assert res.converged and reads and all(reads)
    assert res.cache_reach == pytest.approx(-3.0 * guess.delta_ls_max)
    assert -res.params.delta_ls_max <= res.widest_reach <= res.cache_reach


def test_n_iterations_counts_every_model_evaluation(clean_data, ref_pulse, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return convolve_on_grid(*args, **kwargs)

    monkeypatch.setattr(apsim.fit, "convolve_on_grid", counting)
    data, guess = _block_fit(clean_data, 0, 2)
    res = fit_spectrum(data, ref_pulse, guess)
    assert res.converged
    # one start, then two evaluations per Jacobian, one per trial step and
    # a last one that recovers p_max
    assert res.n_iterations == len(calls) > 4


def _parabola(x):
    return np.array([x[0] - 3.0, 10.0 * (x[1] - x[0] ** 2), x[1] - 1.0])


def test_optimizer_stops_at_budget():
    x, f, nfev, converged = apsim.fit._levenberg_marquardt(_parabola, np.array([-1.2, 1.0]), 9)
    assert not converged and nfev <= 9
    assert np.all(np.isfinite(x)) and np.all(np.isfinite(f))


def test_optimizer_rejects_non_finite_trial_points():
    # residuals are undefined below x0 = 2.5, which fences off the minimum
    # at x0 ~ 1; the forward differences step upward, away from the fence
    def fenced(x):
        return np.full(3, np.nan) if x[0] < 2.5 else _parabola(x)

    start = np.array([6.0, 30.0])
    x, f, nfev, converged = apsim.fit._levenberg_marquardt(fenced, start, 500)
    assert x[0] >= 2.5 and np.all(np.isfinite(f))
    assert converged and nfev < 500
    assert np.linalg.norm(f) < np.linalg.norm(_parabola(start))
    # unfenced, the same start reaches the converged least-squares minimum
    x, f, nfev, converged = apsim.fit._levenberg_marquardt(_parabola, start, 500)
    assert converged and x[0] < 2.5
    want = least_squares(_parabola, start, method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
    np.testing.assert_allclose(x, want.x, rtol=1e-6)


@pytest.mark.parametrize("start", [[-1.2, 1.0], [6.0, 30.0], [0.0, 0.0]])
def test_optimizer_converges_where_the_residual_ignores_a_parameter(start):
    # x[1] never enters: the Jacobian's second column is zero and J^T J is
    # singular, which the bounded damping must keep out of the solve
    def flat(x):
        return _parabola(np.array([x[0], 1.0]))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, f, nfev, converged = apsim.fit._levenberg_marquardt(flat, np.array(start), 500)
    assert converged and nfev < 500
    assert np.all(np.isfinite(x)) and np.all(np.isfinite(f))
    assert x[1] == start[1]


# ------------------------------------------------------------ result record

def test_fit_result_json(tmp_path, ref_thermal):
    res = FitResult(ref_thermal, 0.012, 36, True, 641, 369, 2.1e5, 7.0e4)
    d = res.to_json_dict()
    # the cache sizes and reaches go to stderr, not into the report
    assert list(d) == ["params", "residual_rms", "n_iterations", "converged"]
    assert d["params"]["delta_th_khz"] == pytest.approx(1.7)
    assert d["converged"] is True
    path = tmp_path / "fit.json"
    res.to_json(path)
    assert json.loads(path.read_text()) == d
