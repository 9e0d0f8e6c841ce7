import math

import numpy as np
import pytest
from scipy.integrate import quad, simpson
from scipy.interpolate import CubicSpline
from scipy.special import gammainc

import apsim.bloch
from apsim.errors import QuadratureError
from apsim.pulses import RectPulse
from apsim.thermal import (
    SpectrumCache,
    ThermalModel,
    boltzmann_pdf,
    convolve,
    convolve_on_grid,
    sample_light_shift,
    truncated_mass,
)
from apsim.units import khz_to_rad_per_s


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
    d = ref_thermal.to_json_dict()
    assert d["delta_ls_max_khz"] == pytest.approx(-11.0)
    again = ThermalModel.from_json_dict(d)
    assert again == ref_thermal
    d["extra"] = 1
    with pytest.raises(ValueError):
        ThermalModel.from_json_dict(d)


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
    renorm = convolve(flat, ref_thermal, renormalize=True)(0.0)
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
    got = convolve_on_grid(spectrum, 0.0, ref_thermal, renormalize=renormalize)
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
    renorm = convolve_on_grid(ref_cache, deltas, ref_thermal, renormalize=True)
    np.testing.assert_allclose(renorm, raw / truncated_mass(ref_thermal), rtol=1e-12)


def test_narrow_distribution_approaches_pure_shift(ref_cache):
    # delta_th -> 0 collapses the kernel onto the maximal shift; the
    # broadened curve tends to the bare one displaced by delta_ls_max
    probe = khz_to_rad_per_s(np.linspace(-45.0, 45.0, 31))

    def worst_error(th_khz):
        m = ThermalModel.from_khz(-11.0, th_khz, 0.95)
        conv = convolve_on_grid(ref_cache, probe, m, renormalize=True)
        shifted = m.p_max * ref_cache(probe + m.delta_ls_max)
        return float(np.max(np.abs(conv - shifted)))

    wide, narrow = worst_error(0.4), worst_error(0.05)
    assert narrow < wide
    assert narrow < 0.05


def test_quadrature_failure_carries_estimate(ref_thermal):
    # hundreds of discontinuities exhaust the interval budget
    square = lambda d: (np.sin(d / ref_thermal.delta_th * 500.0) > 0.0).astype(float)  # noqa: E731
    with pytest.raises(QuadratureError) as err:
        convolve(square, ref_thermal)(0.0)
    assert math.isfinite(err.value.estimate)
    assert 0.0 < err.value.estimate < 1.0
    assert err.value.error_bound > 0.0


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
    oracle = CubicSpline(ref_cache.deltas, ref_cache.p1)
    rng = np.random.default_rng(3)
    probe = np.concatenate(
        [ref_cache.deltas, rng.uniform(ref_cache.lo, ref_cache.hi, 20000)]
    )
    np.testing.assert_allclose(ref_cache(probe), oracle(probe), rtol=0.0, atol=1e-12)
    assert ref_cache(float(probe[-1])) == pytest.approx(float(oracle(probe[-1])), abs=1e-12)
    # a short grid: the not-a-knot spline through 4 points is their cubic
    x = np.linspace(-1.0, 2.0, 4)
    cubic = lambda t: 0.3 * t**3 - t + 0.2  # noqa: E731
    probe = np.linspace(-1.0, 2.0, 37)
    np.testing.assert_allclose(SpectrumCache(x, cubic(x))(probe), cubic(probe), atol=1e-14)


def test_cache_validation():
    with pytest.raises(ValueError):
        SpectrumCache([0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        SpectrumCache([0.0, 1.0, 1.0, 2.0], [0.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="uniform"):
        SpectrumCache([0.0, 1.0, 2.0, 3.5], [0.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        SpectrumCache([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        SpectrumCache.from_pulse(None, 1.0, 0.0)


def test_cache_meets_its_tolerance_against_fine_reference(ref_pulse, ref_cache):
    # the bare spectrum sampled at 0.02 kHz, far below the cache's step
    from apsim.bloch import detuning_spectrum

    n = int(np.ceil((ref_cache.hi - ref_cache.lo) / khz_to_rad_per_s(0.02)))
    grid = np.linspace(ref_cache.lo, ref_cache.hi, n + 1)
    reference = SpectrumCache(grid, detuning_spectrum(ref_pulse, grid))
    probe = np.random.default_rng(11).uniform(ref_cache.lo, ref_cache.hi, 20000)
    assert np.max(np.abs(ref_cache(probe) - reference(probe))) <= 1e-6


def test_cache_integrates_each_offset_once(ref_pulse, ref_thermal, monkeypatch):
    seen = []
    integrate = apsim.bloch.detuning_spectrum

    def recording(pulse, grid, *args):
        seen.append(np.array(grid, dtype=float))
        return integrate(pulse, grid, *args)

    monkeypatch.setattr(apsim.bloch, "detuning_spectrum", recording)
    cache = SpectrumCache.for_scan(
        ref_pulse, khz_to_rad_per_s(-65.0), khz_to_rad_per_s(65.0), ref_thermal
    )
    offsets = np.concatenate(seen)
    assert len(seen) > 1
    assert offsets.size == cache.deltas.size
    np.testing.assert_array_equal(np.sort(offsets), cache.deltas)


class _LinePulse(RectPulse):
    """A rectangular pulse scanned by its detuning, as detuning_spectrum
    scans a swept pulse by delta_c."""

    @property
    def delta_c(self):
        return self.delta


def test_cache_resolves_line_narrower_than_seed_grid():
    from apsim.bloch import detuning_spectrum

    # a 40 ms pi pulse: its line (about 20 Hz wide) sits halfway between
    # two points of the 64-interval seed grid (62.5 Hz apart), where the
    # seed samples see less than 0.15 of it
    pulse = _LinePulse.from_khz(0.5 / 40.0, 0.0, 40.0)
    span = khz_to_rad_per_s(4.0)
    lo = -20.5 * span / 64
    seed = detuning_spectrum(pulse, np.linspace(lo, lo + span, 65))
    assert np.max(seed) < 0.15
    cache = SpectrumCache.from_pulse(pulse, lo, lo + span)
    assert cache(0.0) == pytest.approx(detuning_spectrum(pulse, 0.0), abs=1e-6)
    assert cache(0.0) == pytest.approx(1.0, abs=1e-6)


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

