import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
from scipy.integrate import quad, simpson
from scipy.interpolate import CubicSpline
from scipy.special import gammainc

import apsim.bloch
from apsim.config import load_config
from apsim.errors import ConfigError, QuadratureError
from apsim.fit import FitResult, fit_spectrum
from apsim.scan import ScanResult
from apsim.thermal import (
    SpectrumCache,
    ThermalModel,
    broadened_spectrum,
    convolve,
    convolve_on_grid,
    truncated_mass,
)
from apsim.units import khz_to_rad_per_s, ms_to_s

from oracles import RectPulse, boltzmann_pdf, sample_light_shift


# ------------------------------------------------------------ model type

def test_model_validation():
    with pytest.raises(ValueError):
        ThermalModel(1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        ThermalModel(-1.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        ThermalModel(-1.0, 1.0, 1.5)
    # zero maximal shift is legal (shift support collapses onto zero)
    ThermalModel(0.0, 1.0, 0.5)


def test_model_json_round_trip(ref_thermal):
    # a fit reports its model in the keys of the config's thermal section,
    # and the config loads the report back as the same model
    d = FitResult(ref_thermal, 0.0, 1, True, 641, 369, 2.1e5, 7.0e4).to_json_dict()["params"]
    assert d["delta_ls_max_khz"] == pytest.approx(-11.0)
    pulse = {"kind": "ap", "omega_max_khz": 28.0, "delta_max_khz": 40.0,
             "delta_c_khz": 0.0, "t_p_ms": 2.0}
    cfg = {"scan": {"kind": "spectrum", "values_khz": [0.0]}, "pulse": pulse, "thermal": d}
    assert load_config(cfg).thermal == ref_thermal
    d["extra"] = 1
    with pytest.raises(ConfigError):
        load_config(cfg)


# ------------------------------------------------------------ density

def test_pdf_zero_below_edge(ref_thermal):
    edge = ref_thermal.delta_ls_max
    assert boltzmann_pdf(edge - 1.0, ref_thermal) == 0.0
    assert boltzmann_pdf(edge, ref_thermal) == 0.0
    assert boltzmann_pdf(edge + ref_thermal.delta_th, ref_thermal) > 0.0


def test_pdf_normalized(ref_thermal):
    lo = ref_thermal.delta_ls_max
    hi = lo + 60.0 * ref_thermal.delta_th
    total, _ = quad(lambda d: boltzmann_pdf(d, ref_thermal), lo, hi, limit=200)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_pdf_mode_location(ref_thermal):
    # Gamma(3) mode sits two scale units above the edge
    mode = ref_thermal.delta_ls_max + 2.0 * ref_thermal.delta_th
    h = 1e-6 * ref_thermal.delta_th
    assert boltzmann_pdf(mode, ref_thermal) > boltzmann_pdf(mode - 50 * h, ref_thermal)
    assert boltzmann_pdf(mode, ref_thermal) > boltzmann_pdf(mode + 50 * h, ref_thermal)


def test_truncated_mass_closed_form(ref_thermal):
    r = -ref_thermal.delta_ls_max / ref_thermal.delta_th
    by_hand = 1.0 - math.exp(-r) * (1.0 + r + r * r / 2.0)
    assert truncated_mass(ref_thermal) == pytest.approx(by_hand, rel=1e-12)
    # wide support keeps almost everything
    assert truncated_mass(ThermalModel.from_khz(-100.0, 1.0, 0.5)) == pytest.approx(1.0)


def test_truncated_mass_matches_gammainc():
    # the series below x = 0.1 and the expm1 form above it, against scipy
    for x in np.geomspace(1e-4, 200.0, 801):
        m = ThermalModel(-x * 1.0e3, 1.0e3, 0.5)
        assert truncated_mass(m) == pytest.approx(gammainc(3.0, x), rel=1e-12, abs=0.0)
    assert truncated_mass(ThermalModel(0.0, 1.0e3, 0.5)) == 0.0


# ------------------------------------------------------------ sampling

def test_sampling_deterministic(ref_thermal):
    a = sample_light_shift(ref_thermal, 7, 1000)
    b = sample_light_shift(ref_thermal, 7, 1000)
    np.testing.assert_array_equal(a, b)
    assert sample_light_shift(ref_thermal, 8, 1000)[0] != a[0]
    assert isinstance(sample_light_shift(ref_thermal, 7), float)


def test_sampling_statistics(ref_thermal):
    n = 200_000
    draws = sample_light_shift(ref_thermal, 123, n)
    assert np.all(draws >= ref_thermal.delta_ls_max)
    mean = ref_thermal.delta_ls_max + 3.0 * ref_thermal.delta_th
    se = math.sqrt(3.0) * ref_thermal.delta_th / math.sqrt(n)
    assert abs(np.mean(draws) - mean) < 4.0 * se


# ------------------------------------------------------------ convolution

def test_flat_spectrum_maps_to_truncated_mass(ref_thermal):
    flat = np.ones_like
    raw = convolve(flat, ref_thermal)(0.0)
    assert raw == pytest.approx(ref_thermal.p_max * truncated_mass(ref_thermal), abs=1e-9)
    renorm = convolve(flat, replace(ref_thermal, renormalize=True))(0.0)
    assert renorm == pytest.approx(ref_thermal.p_max, abs=1e-9)


# quad reports roundoff at this epsabs; its answer is still far inside 1e-8
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_convolve_matches_quad_oracle(ref_cache, ref_thermal):
    # every 8th point of the criterion-2 grid, against adaptive quadrature
    # of the same integrand far below the rule's 1e-6 tolerance
    deltas = khz_to_rad_per_s(np.arange(-65.0, 65.25, 0.25)[::8])
    upper = -ref_thermal.delta_ls_max / ref_thermal.delta_th

    def oracle(delta):
        def integrand(y):
            shift = ref_thermal.delta_ls_max + y * ref_thermal.delta_th
            return 0.5 * y * y * np.exp(-y) * ref_cache(delta + shift)

        val, _ = quad(integrand, 0.0, upper, epsabs=1e-13, epsrel=0.0, limit=400)
        return ref_thermal.p_max * val

    got = convolve(ref_cache, ref_thermal)(deltas)
    np.testing.assert_allclose(got, [oracle(d) for d in deltas], rtol=0.0, atol=1e-8)


def test_grid_rule_matches_adaptive(ref_cache, ref_thermal):
    deltas = khz_to_rad_per_s(np.array([-40.0, -30.0, -10.0, 0.0, 10.0, 30.0, 40.0]))
    adaptive = convolve(ref_cache, ref_thermal)(deltas)
    gridded = convolve_on_grid(ref_cache, deltas, ref_thermal)
    np.testing.assert_allclose(gridded, adaptive, atol=1e-5)


class _Recording:
    """Spectrum wrapper that keeps the last argument it was called with."""

    def __init__(self, spectrum):
        self.spectrum = spectrum
        self.arg = None

    def __call__(self, delta_c):
        self.arg = np.asarray(delta_c)
        return self.spectrum(delta_c)


@pytest.mark.parametrize("renormalize", [False, True])
def test_grid_rule_weights_match_simpson(ref_cache, ref_thermal, renormalize):
    spectrum = _Recording(ref_cache)
    got = convolve_on_grid(spectrum, 0.0, replace(ref_thermal, renormalize=renormalize))
    shift = spectrum.arg
    y = (shift - ref_thermal.delta_ls_max) / ref_thermal.delta_th
    expect = simpson(0.5 * y * y * np.exp(-y) * ref_cache(shift), x=y)
    expect *= ref_thermal.p_max / (truncated_mass(ref_thermal) if renormalize else 1.0)
    assert got == pytest.approx(expect, rel=1e-14, abs=1e-15)


def test_rule_evaluates_long_grids_in_blocks(ref_cache, ref_thermal, monkeypatch):
    import apsim.thermal

    deltas = khz_to_rad_per_s(np.linspace(-60.0, 60.0, 37))
    whole = convolve(ref_cache, ref_thermal)(deltas)
    sizes = []

    def spectrum(delta_c):
        sizes.append(np.size(delta_c))
        return ref_cache(delta_c)

    monkeypatch.setattr(apsim.thermal, "_BLOCK", 1000)
    blocked = convolve(spectrum, ref_thermal)(deltas)
    assert max(sizes) <= 1000 and len(sizes) > 2
    np.testing.assert_allclose(blocked, whole, rtol=0.0, atol=1e-15)


def test_grid_rule_sizes_grid_from_capped_support(ref_cache):
    # r = 1000 scale units; only y <= 200 is integrated, at the same step
    wide = ThermalModel(-1000.0 * 10.0, 10.0, 0.9)
    spectrum = _Recording(ref_cache)
    got = convolve_on_grid(spectrum, np.array([0.0, 1.0]), wide)
    assert spectrum.arg.size == 2 * 4001
    assert np.all(np.isfinite(got))


def test_monte_carlo_confirms_quadrature(ref_cache, ref_thermal):
    # draw physical shifts, keep only those inside the truncation window,
    # and average the bare spectrum; the quadrature must sit within the
    # Monte Carlo error bar
    n = 1_000_000
    shifts = sample_light_shift(ref_thermal, 2024, n)
    keep = shifts <= 0.0
    for delta_khz in (-30.0, 0.0, 40.0):
        delta = khz_to_rad_per_s(delta_khz)
        samples = np.where(keep, ref_cache(delta + shifts), 0.0)
        mc = ref_thermal.p_max * float(np.mean(samples))
        se = ref_thermal.p_max * float(np.std(samples)) / math.sqrt(n)
        quad_val = convolve(ref_cache, ref_thermal)(delta)
        assert abs(quad_val - mc) < 3.0 * se + 1e-6


def test_broadening_never_exceeds_bare_peak(ref_cache, ref_thermal):
    deltas = khz_to_rad_per_s(np.linspace(-60.0, 60.0, 41))
    out = convolve_on_grid(ref_cache, deltas, ref_thermal)
    assert np.all(out <= ref_thermal.p_max + 1e-12)
    assert np.all(out >= 0.0)


def test_renormalize_rescales_uniformly(ref_cache, ref_thermal):
    deltas = khz_to_rad_per_s(np.array([-20.0, 0.0, 20.0]))
    raw = convolve_on_grid(ref_cache, deltas, ref_thermal)
    renorm = convolve_on_grid(ref_cache, deltas, replace(ref_thermal, renormalize=True))
    np.testing.assert_allclose(renorm, raw / truncated_mass(ref_thermal), rtol=1e-12)


def test_narrow_distribution_approaches_pure_shift(ref_cache):
    # delta_th -> 0 collapses the kernel onto the maximal shift; the
    # broadened curve tends to the bare one displaced by delta_ls_max
    probe = khz_to_rad_per_s(np.linspace(-45.0, 45.0, 31))

    def worst_error(th_khz):
        m = replace(ThermalModel.from_khz(-11.0, th_khz, 0.95), renormalize=True)
        conv = convolve_on_grid(ref_cache, probe, m)
        shifted = m.p_max * ref_cache(probe + m.delta_ls_max)
        return float(np.max(np.abs(conv - shifted)))

    wide, narrow = worst_error(0.4), worst_error(0.05)
    assert narrow < wide
    assert narrow < 0.05


def test_quadrature_failure_carries_estimate(ref_thermal):
    # hundreds of discontinuities exhaust the interval budget
    square = lambda d: (np.sin(d / ref_thermal.delta_th * 500.0) > 0.0).astype(float)  # noqa: E731
    with pytest.raises(QuadratureError, match=r"convolution budget of 16384 intervals "
                       r"reached with error estimate \d\.\d\de-\d+ > 1\.00e-06"):
        convolve(square, ref_thermal)(0.0)


# ------------------------------------------------------------ cache

def test_cache_matches_direct_integration(ref_pulse, ref_cache):
    from apsim.bloch import detuning_spectrum

    probe = khz_to_rad_per_s(np.array([-37.3, -12.1, 0.55, 24.9, 41.7]))
    direct = detuning_spectrum(ref_pulse, probe)
    np.testing.assert_allclose(ref_cache(probe), direct, atol=1e-4)


def test_cache_clamps_outside_domain(ref_cache):
    below = ref_cache(ref_cache.lo - 1.0)
    above = ref_cache(ref_cache.hi + 1.0)
    assert below == pytest.approx(ref_cache(ref_cache.lo), abs=1e-12)
    assert above == pytest.approx(ref_cache(ref_cache.hi), abs=1e-12)


def test_cache_matches_cubic_spline(ref_cache):
    # the cache holds P1 at |delta| on [0, 76 kHz], the fold of its domain
    # -76..65 kHz, with an even end at 0: zero slope there
    knots = ref_cache.deltas
    assert knots[0] == 0.0 and knots[-1] == -ref_cache.lo
    oracle = CubicSpline(knots, ref_cache.p1, bc_type=((1, 0.0), "not-a-knot"))
    rng = np.random.default_rng(3)
    probe = np.concatenate(
        [knots[knots <= ref_cache.hi], -knots, rng.uniform(ref_cache.lo, ref_cache.hi, 20000)]
    )
    np.testing.assert_allclose(
        ref_cache(probe), oracle(np.abs(probe)), rtol=0.0, atol=1e-12
    )
    assert ref_cache(float(probe[-1])) == pytest.approx(
        float(oracle(abs(probe[-1]))), abs=1e-12
    )
    # a short grid away from 0: the not-a-knot spline through 4 points is
    # their cubic, on the domain 1..4 and on its mirror -4..-1 alike
    x = np.linspace(1.0, 4.0, 4)
    cubic = lambda t: 0.3 * t**3 - t + 0.2  # noqa: E731
    probe = np.linspace(1.0, 4.0, 37)
    for domain, sign in [((1.0, 4.0), 1.0), ((-4.0, -1.0), -1.0)]:
        cache = SpectrumCache(cubic(x), domain)
        np.testing.assert_array_equal(cache.deltas, x)
        np.testing.assert_allclose(cache(sign * probe), cubic(probe), atol=1e-14)
    # a grid on [0, 3], the fold of -3..2: zero slope at 0
    x = np.linspace(0.0, 3.0, 7)
    even = CubicSpline(x, np.cos(x), bc_type=((1, 0.0), "not-a-knot"))
    probe = np.linspace(-3.0, 2.0, 41)
    folded = SpectrumCache(np.cos(x), (-3.0, 2.0))
    np.testing.assert_array_equal(folded.deltas, x)
    np.testing.assert_allclose(folded(probe), even(np.abs(probe)), rtol=0.0, atol=1e-14)


def test_cache_validation():
    with pytest.raises(ValueError, match="4 grid points"):
        SpectrumCache([0.0, 0.0, 0.0], (-3.0, 2.0))
    with pytest.raises(ValueError, match="4 grid points"):
        SpectrumCache(np.zeros((4, 4)), (-3.0, 2.0))
    for domain in [(2.0, -3.0), (2.0, 2.0)]:
        with pytest.raises(ValueError, match="domain"):
            SpectrumCache([0.0, 0.0, 0.0, 0.0], domain)
    with pytest.raises(ValueError):
        SpectrumCache.from_pulse(None, 1.0, 0.0)


@pytest.mark.parametrize("grid", [[], [np.nan, 0.0], [np.inf]])
def test_broadened_spectrum_refuses_empty_or_non_finite_grid(ref_thermal, monkeypatch, grid):
    # the grid is refused by name where it enters, before any cache is built
    monkeypatch.setattr(SpectrumCache, "from_pulse", lambda *a: pytest.fail("built a cache"))
    with pytest.raises(ValueError, match="delta_c_values must be a non-empty grid of finite"):
        broadened_spectrum(None, ref_thermal, grid)


def test_cache_meets_its_tolerance_against_fine_reference(ref_pulse, ref_cache):
    # the bare spectrum sampled at 0.02 kHz, far below the cache's step
    from apsim.bloch import detuning_spectrum

    a, b = ref_cache.deltas[[0, -1]]
    grid = np.linspace(a, b, int(np.ceil((b - a) / khz_to_rad_per_s(0.02))) + 1)
    reference = SpectrumCache(detuning_spectrum(ref_pulse, grid), (ref_cache.lo, ref_cache.hi))
    probe = np.random.default_rng(11).uniform(ref_cache.lo, ref_cache.hi, 20000)
    assert np.max(np.abs(ref_cache(probe) - reference(probe))) <= 1e-6


def test_cache_meets_its_tolerance_on_fit_domains(ref_pulse):
    # caches over fit-like domains lo..65 kHz, lo from -100 to -144 kHz,
    # the benchmark's fit domains (-88.1, -107.9) and the spectrum
    # preset's (-76), against the bare spectrum at every 0.01 kHz.  P1 is
    # even to 1e-10 (test_spectrum_symmetric_for_centered_sweep) and a call
    # is even exactly, so one reference on [0, 144] kHz serves both signs
    from apsim.bloch import detuning_spectrum

    x = khz_to_rad_per_s(np.linspace(0.0, 144.0, 14401))
    reference = np.concatenate(
        [detuning_spectrum(ref_pulse, part) for part in np.array_split(x, 8)]
    )
    hi = khz_to_rad_per_s(65.0)
    right = x <= hi
    for lo_khz in [-76.0, -88.1, -107.9, *np.linspace(-100.0, -144.0, 8)]:
        lo = khz_to_rad_per_s(lo_khz)
        cache = SpectrumCache.from_pulse(ref_pulse, lo, hi)
        left = x <= -lo
        assert np.max(np.abs(cache(-x[left]) - reference[left])) <= 1e-6
        assert np.max(np.abs(cache(x[right]) - reference[right])) <= 1e-6
        np.testing.assert_array_equal(cache(-x[right]), cache(x[right]))


@pytest.mark.parametrize(
    "case, size, integrated, member_steps",
    [
        # a benchmark fit's guess, (-delta_ls_max, delta_th) in kHz: the
        # cache reaches 3 |delta_ls_max| below the -65..65 kHz data, so
        # delta_th leaves it unchanged
        pytest.param((7.7, 1.19), 513, 302, 686080, id="fit-7.7-1.19"),  # -88.1..65
        pytest.param((14.3, 1.19), 641, 367, 880128, id="fit-14.3-1.19"),  # -107.9..65
        pytest.param((7.7, 2.21), 513, 302, 686080, id="fit-7.7-2.21"),
        pytest.param((14.3, 2.21), 641, 367, 880128, id="fit-14.3-2.21"),
        pytest.param("thermal_spectrum", 513, 306, 663552, id="thermal_spectrum"),  # -76..65
        pytest.param("site_addressing", 513, 301, 685568, id="site_addressing"),  # -91..80
    ],
)
def test_cache_work_ledger(ref_pulse, ref_cache, ref_thermal, monkeypatch, case, size,
                           integrated, member_steps):
    # the grid points, integrated points, Bloch calls and member-steps of
    # the caches the benchmark's fits and the spectrum presets build: a
    # change in the cache's work shows here exactly, whatever the host's
    # speed.  Each cache makes two calls, the first level and one doubling
    from apsim.cli import run_scan
    from apsim.presets import preset_config

    built, calls, steps = [], [], []
    from_pulse = SpectrumCache.from_pulse
    evolve, rotation_pass = apsim.bloch.evolve_offsets, apsim.bloch._rotation_pass

    def recording(cls, *args):
        built.append(from_pulse(*args))
        return built[-1]

    def calling(*args, **kwargs):
        calls.append(1)
        return evolve(*args, **kwargs)

    def stepping(pulse, offsets, states, n, *args):
        steps.append(offsets.size * n)
        return rotation_pass(pulse, offsets, states, n, *args)

    monkeypatch.setattr(SpectrumCache, "from_pulse", classmethod(recording))
    monkeypatch.setattr(apsim.bloch, "evolve_offsets", calling)
    monkeypatch.setattr(apsim.bloch, "_rotation_pass", stepping)
    if isinstance(case, str):
        run_scan(preset_config(case))
    else:
        grid = np.arange(-65.0, 65.5, 1.0)
        clean = convolve_on_grid(ref_cache, khz_to_rad_per_s(grid), ref_thermal)
        fit_spectrum(ScanResult(grid, clean, None, "khz"), ref_pulse,
                     ThermalModel.from_khz(-case[0], case[1], 0.95))
    (cache,) = built
    assert (cache.deltas.size, cache.integrated) == (size, integrated)
    assert (len(calls), sum(steps)) == (2, member_steps)


def test_cache_integrates_each_offset_once(ref_pulse, monkeypatch):
    # on a fit-like domain, -124.6..65 kHz, only the fold [0, 124.6] kHz
    # is integrated, and there the far wing and the plateau are filled from
    # the spline: every integrated offset is a grid point, integrated once,
    # and at most 440 of the 769 are integrated
    seen = []
    integrate = apsim.bloch.detuning_spectrum

    def recording(pulse, grid, *args):
        seen.append(np.array(grid, dtype=float))
        return integrate(pulse, grid, *args)

    monkeypatch.setattr(apsim.bloch, "detuning_spectrum", recording)
    cache = SpectrumCache.from_pulse(
        ref_pulse, khz_to_rad_per_s(-124.6), khz_to_rad_per_s(65.0)
    )
    offsets = np.concatenate(seen)
    assert len(seen) > 1
    assert np.unique(offsets).size == offsets.size
    assert np.all(np.isin(offsets, cache.deltas))
    assert cache.deltas[0] == 0.0
    assert cache.deltas.size == 769
    assert offsets.size == cache.integrated <= 440


@pytest.mark.parametrize(
    "amplitude, fwhm, offset",
    [
        (1e-2, 2.0, 192.0 + 1.0 / 3.0),  # mid-domain
        (1e-2, 2.0, 1.0 / 3.0),  # within a step of either end
        (1e-2, 2.0, 384.0 - 1.0 / 3.0),
        # narrower than a step and strong: the coarse spline's error spills
        # several steps into the midpoints that are filled from it
        (0.5, 1.0, 192.0 + 1.0 / 3.0),
        # at an end, where the fourth differences are borrowed from inside
        (1e-5, 1.0, 384.0 - 1.0 / 3.0),
        # at the even end, which takes reflected fourth differences and a
        # zero slope (3e-6 and 1.3e-6 without) and no forced refinement
        (1e-5, 1.0, 4.0 / 3.0),
        (1e-5, 1.0, 2.0 / 3.0),
    ],
)
def test_cache_resolves_a_feature_on_a_flat_spectrum(
    ref_pulse, monkeypatch, amplitude, fwhm, offset
):
    # a known even spectrum: 0.5 plus Gaussians at +-centre whose full width
    # at half maximum is fwhm first-level steps, centre offset steps from 0,
    # a third of a step off a node.  The domain -124.6..65 kHz folds onto
    # [0, 124.6] kHz, whose first level has 384 intervals, the fewest
    # multiple of 64 whose step is at most 3/4 of the 0.5 kHz Fourier width
    lo, hi = khz_to_rad_per_s(-124.6), khz_to_rad_per_s(65.0)
    step = -lo / 384
    centre = offset * step
    sigma = fwhm * step / math.sqrt(8.0 * math.log(2.0))

    def spectrum(pulse, grid, *args):
        x = np.asarray(grid)[..., None] + np.array([-centre, centre])
        return 0.5 + amplitude * np.sum(np.exp(-0.5 * (x / sigma) ** 2), axis=-1)

    monkeypatch.setattr(apsim.bloch, "detuning_spectrum", spectrum)
    cache = SpectrumCache.from_pulse(ref_pulse, lo, hi)
    assert cache.deltas[0] == 0.0 and cache.deltas[1] <= step
    assert cache.integrated < cache.deltas.size
    probe = np.random.default_rng(7).uniform(lo, hi, 200000)
    assert np.max(np.abs(cache(probe) - spectrum(None, probe))) <= 1e-6


@dataclass(frozen=True)
class _LinePulse(RectPulse):
    """A rectangular pulse of detuning delta_c (its delta unused), scanned
    by it as detuning_spectrum scans a swept pulse."""

    delta_c: float = 0.0

    def detuning(self, t):
        return self.delta_c


def test_cache_resolves_line_narrower_than_seed_grid():
    from apsim.bloch import detuning_spectrum

    # a 40 ms pi pulse: its line (about 20 Hz wide) sits halfway between
    # two points of a 64-interval grid over the span (62.5 Hz apart), where
    # those samples see less than 0.15 of it.  The cache samples no such
    # grid on its own: its first level has 192 intervals of the fold
    # [0, 2.72] kHz, 14.2 Hz apart, at most 3/4 of the 25 Hz Fourier width
    pulse = _LinePulse(khz_to_rad_per_s(0.5 / 40.0), 0.0, ms_to_s(40.0))
    span = khz_to_rad_per_s(4.0)
    lo = -20.5 * span / 64
    seed = detuning_spectrum(pulse, np.linspace(lo, lo + span, 65))
    assert np.max(seed) < 0.15
    cache = SpectrumCache.from_pulse(pulse, lo, lo + span)
    assert cache(0.0) == pytest.approx(detuning_spectrum(pulse, 0.0), abs=1e-6)
    assert cache(0.0) == pytest.approx(1.0, abs=1e-6)
    # and its 1/t_p sidelobes over the whole domain, at 1 Hz: a first level
    # sized by the folded span alone (0.85 of a Fourier width) under-samples
    # them and leaves 4e-5
    probe = np.linspace(lo, lo + span, 4001)
    assert np.max(np.abs(cache(probe) - detuning_spectrum(pulse, probe))) <= 1e-6


@pytest.mark.parametrize("r", [0.55, 0.7, 0.8, 0.9, 0.95, 0.98])
def test_cache_samples_line_sidelobes_on_any_span(r):
    from apsim.bloch import detuning_spectrum

    # the line pulse on a span of 256 r Fourier widths (25 Hz).  A first
    # level that followed the span's power of two stepped 0.91 r widths on
    # the fold: it left 1.9e-5 and 2.1e-5 at r = 0.55 and 0.9, and spent
    # the budget at 0.95 and 0.98.  At most 3/4 of a width, every span
    # finishes inside it; the 1e-6 tolerance is not met everywhere (1.9e-6
    # at r = 0.8: the estimate undershoots, ROADMAP item 1), so this holds
    # the cache to 1e-5
    pulse = _LinePulse(khz_to_rad_per_s(0.5 / 40.0), 0.0, ms_to_s(40.0))
    span = 256 * r * 2.0 * math.pi / pulse.duration
    lo = -20.5 * span / 64
    cache = SpectrumCache.from_pulse(pulse, lo, lo + span)
    probe = np.linspace(lo, lo + span, 2001)
    assert np.max(np.abs(cache(probe) - detuning_spectrum(pulse, probe))) <= 1e-5


def test_cache_is_never_coarser_than_fourier_width(ref_pulse):
    # far off resonance the spectrum is flat to 1e-11, so the error
    # estimate alone would accept 128 intervals of 0.78 kHz; the 2 ms
    # pulse's Fourier width is 0.5 kHz
    cache = SpectrumCache.from_pulse(
        ref_pulse, khz_to_rad_per_s(150.0), khz_to_rad_per_s(250.0)
    )
    step = (cache.hi - cache.lo) / (cache.deltas.size - 1)
    assert step <= 2.0 * math.pi / ref_pulse.duration


def test_cache_size_does_not_depend_on_delta_th(ref_pulse):
    # the grid follows the bare spectrum; a narrow thermal model (the old
    # step was delta_th / 20) no longer asks for a finer or larger grid
    lo, hi = khz_to_rad_per_s(-65.0), khz_to_rad_per_s(65.0)
    models = [ThermalModel.from_khz(-11.0, th, 0.95) for th in (1.7, 0.3, 1e-4)]
    sizes = {SpectrumCache.for_scan(ref_pulse, lo, hi, m).deltas.size for m in models}
    assert len(sizes) == 1


def test_for_scan_covers_shifted_window(ref_pulse, ref_thermal):
    lo = khz_to_rad_per_s(-5.0)
    hi = khz_to_rad_per_s(5.0)
    cache = SpectrumCache.for_scan(ref_pulse, lo, hi, ref_thermal)
    assert cache.lo <= lo + ref_thermal.delta_ls_max + 1e-9
    assert cache.hi >= hi - 1e-9

