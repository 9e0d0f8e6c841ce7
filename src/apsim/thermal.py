"""Thermal light-shift broadening of transfer spectra.

In a red-detuned optical trap the differential light shift of the
transition depends on the atom's motional energy.  For a thermal
ensemble in a 3D harmonic trap the shift delta_ls is distributed as

    p_B(delta_ls) = (delta_ls - delta_ls_max)^2 / (2 delta_th^3)
                    * exp(-(delta_ls - delta_ls_max) / delta_th)

for delta_ls >= delta_ls_max and zero below, i.e. a Gamma(k=3) density
with scale delta_th, shifted so its lower edge sits at the maximal
(coldest-atom) shift delta_ls_max <= 0.  Mean delta_ls_max + 3 delta_th,
mode at delta_ls_max + 2 delta_th.

An observed spectrum is the bare one averaged over the shift,

    P1_obs(delta_c) = p_max * integral_{delta_ls_max}^{0}
                      p_B(delta_ls) P1(delta_c + delta_ls) d delta_ls.

The integration range follows the physical support (shifts between the
maximal value and zero); the distribution mass above zero, about
exp(-r)(1 + r + r^2/2) with r = |delta_ls_max| / delta_th, is NOT put
back by default.  Pass renormalize=True to divide it out.

Both convolutions integrate over y = (delta_ls - delta_ls_max) / delta_th
on [0, min(r, 200)] by composite Simpson in numpy: convolve doubles the
interval count until its Richardson error estimate is at most 1e-6, and
convolve_on_grid, the fit's inner loop, keeps one fixed step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, QuadratureError
from .units import khz_to_rad_per_s, rad_per_s_to_khz

__all__ = [
    "ThermalModel",
    "boltzmann_pdf",
    "truncated_mass",
    "sample_light_shift",
    "convolve",
    "convolve_on_grid",
    "broadened_spectrum",
    "SpectrumCache",
]

# the Gamma(3) tail beyond y = 200 carries ~1e-81 of mass
_Y_CAP = 200.0

# below this x the closed form of the Gamma(3) CDF cancels too much
_SERIES_BELOW = 0.1

# absolute tolerance of convolve's error estimate and largest spline error
# SpectrumCache.from_pulse accepts: the cache adds no more error than the
# quadrature may; the kernel's mass is at most 1, so the broadened curve's
# error is bounded by it too
_TOL = 1e-6

# Simpson step of convolve_on_grid in units of delta_th (convolve starts at
# twice it), the most intervals convolve may take, and the most spectrum
# points one call evaluates (2 MiB per array)
_STEP = 0.05
_MAX_INTERVALS = 2**14
_BLOCK = 2**18

# intervals of the first grid from_pulse samples: small, so that the Bloch
# step budget fires before a large grid is allocated
_SEED_INTERVALS = 64

# work budget of from_pulse: the most grid points one cache may have
_MAX_CACHE_POINTS = 2**16 + 1

# relative deviation from equal steps that SpectrumCache accepts as a
# uniform grid (np.linspace rounding is ~1e-13 of a step)
_UNIFORM_TOL = 1e-6


@dataclass(frozen=True)
class ThermalModel:
    """delta_ls_max (<= 0) and delta_th (> 0) in rad/s, p_max in [0, 1]."""

    delta_ls_max: float
    delta_th: float
    p_max: float

    def __post_init__(self):
        if not np.all(np.isfinite([self.delta_ls_max, self.delta_th, self.p_max])):
            raise ValueError("thermal model parameters must be finite")
        if self.delta_ls_max > 0:
            raise ValueError("delta_ls_max must be <= 0")
        if self.delta_th <= 0:
            raise ValueError("delta_th must be positive")
        if not 0.0 <= self.p_max <= 1.0:
            raise ValueError("p_max must lie in [0, 1]")

    @classmethod
    def from_khz(cls, delta_ls_max_khz, delta_th_khz, p_max):
        return cls(khz_to_rad_per_s(delta_ls_max_khz), khz_to_rad_per_s(delta_th_khz), p_max)

    def to_json_dict(self) -> dict:
        return {
            "delta_ls_max_khz": rad_per_s_to_khz(self.delta_ls_max),
            "delta_th_khz": rad_per_s_to_khz(self.delta_th),
            "p_max": self.p_max,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ThermalModel":
        keys = {"delta_ls_max_khz", "delta_th_khz", "p_max"}
        if set(d) != keys:
            raise ValueError(f"thermal model needs exactly the keys {sorted(keys)}")
        return cls.from_khz(d["delta_ls_max_khz"], d["delta_th_khz"], d["p_max"])


def boltzmann_pdf(delta_ls, m: ThermalModel):
    """Probability density of the light shift (per rad/s)."""
    x = np.asarray(delta_ls, dtype=float) - m.delta_ls_max
    th = m.delta_th
    with np.errstate(over="ignore"):
        val = np.where(x >= 0.0, x * x / (2.0 * th**3) * np.exp(-x / th), 0.0)
    return float(val) if np.ndim(delta_ls) == 0 else val


def truncated_mass(m: ThermalModel) -> float:
    """Mass of p_B between delta_ls_max and 0 (the physical window).

    This is the Gamma(3) CDF at x = |delta_ls_max| / delta_th,
    1 - exp(-x) (1 + x + x^2/2).  That form cancels to nothing as x -> 0,
    so below x = 0.1 it is summed as exp(-x) sum_{k>=3} x^k / k!, and
    above it written as -expm1(-x) - x exp(-x) (1 + x/2); both keep
    about 1e-13 relative accuracy.
    """
    x = -m.delta_ls_max / m.delta_th
    if x < _SERIES_BELOW:
        term = total = x * x * x / 6.0
        k = 3
        while term > 1e-17 * total:
            k += 1
            term *= x / k
            total += term
        return math.exp(-x) * total
    return -math.expm1(-x) - x * math.exp(-x) * (1.0 + 0.5 * x)


def sample_light_shift(m: ThermalModel, rng_seed, n: int | None = None):
    """Draw light shifts (rad/s) from p_B; deterministic for a given seed.

    Returns a float for n=None, else an ndarray of shape (n,).
    """
    rng = np.random.default_rng(rng_seed)
    draws = m.delta_ls_max + rng.gamma(3.0, m.delta_th, size=n)
    return float(draws) if n is None else draws


def convolve(spectrum, m: ThermalModel, *, renormalize: bool = False):
    """Broaden a bare spectrum with the light-shift distribution.

    spectrum maps an array of delta_c (rad/s) to P1 of the same shape; it
    must be vectorized, as SpectrumCache is.  renormalize divides by the
    truncated mass, so that a flat unit spectrum maps to p_max exactly (off
    by default, see the module docstring).  Returns a callable, delta_c
    (rad/s, scalar or array) -> broadened probability.

    Each call takes Romberg steps (Davis & Rabinowitz, Methods of Numerical
    Integration, 2nd ed., 1984, sec. 6.3): composite Simpson S_n at half
    the interval count of convolve_on_grid (at least 64), then S_2n,
    doubling n until the Richardson estimate max |S_2n - S_n| / 15 of the
    result is at most _TOL, and returns (16 S_2n - S_n) / 15.  The estimate
    assumes a smooth integrand, as the C2 spline of SpectrumCache is.  No
    level above _MAX_INTERVALS intervals is allocated: QuadratureError
    carries the value and the estimate instead.
    """
    scale = _scale(m, renormalize)
    first = _intervals(m, 2.0 * _STEP)

    def broadened(delta_c):
        n, fine = first, _simpson(spectrum, delta_c, m, first)
        while True:
            coarse, fine = fine, _simpson(spectrum, delta_c, m, 2 * n)
            n *= 2
            estimate = scale * float(np.max(np.abs(fine - coarse))) / 15.0
            if estimate <= _TOL:
                return _shaped(scale * (16.0 * fine - coarse) / 15.0, delta_c)
            if 2 * n > _MAX_INTERVALS:
                raise QuadratureError(
                    f"convolution budget of {_MAX_INTERVALS} intervals reached "
                    f"with error estimate {estimate:.2e} > {_TOL:.2e}",
                    estimate=_shaped(scale * fine, delta_c),
                    error_bound=estimate,
                )

    return broadened


def convolve_on_grid(spectrum, delta_c_values, m: ThermalModel, *, renormalize: bool = False):
    """Fixed-step counterpart of convolve: composite Simpson at _STEP *
    delta_th (at least 64 intervals), within about 1e-7 of convolve.  The
    step does not follow the spectrum, so the fit's forward-difference
    Jacobian sees a smooth function of the thermal parameters."""
    out = _scale(m, renormalize) * _simpson(spectrum, delta_c_values, m, _intervals(m, _STEP))
    return _shaped(out, delta_c_values)


def _upper(m: ThermalModel) -> float:
    return min(-m.delta_ls_max / m.delta_th, _Y_CAP)


def _intervals(m: ThermalModel, step: float) -> int:
    return 2 * max(math.ceil(_upper(m) / step) // 2, 32)


def _scale(m: ThermalModel, renormalize: bool) -> float:
    return m.p_max / truncated_mass(m) if renormalize else m.p_max


def _shaped(out: np.ndarray, like):
    return out if np.ndim(like) else float(out[0])


def _simpson(spectrum, delta_c, m: ThermalModel, n: int) -> np.ndarray:
    """Composite Simpson on n (even) intervals of [0, _upper(m)] in units of
    delta_th, at each delta_c, as a 1-d array.  The weights are folded into
    the kernel y^2 e^-y / 2, and the spectrum is called once per block of at
    most _BLOCK points."""
    deltas = np.atleast_1d(np.asarray(delta_c, dtype=float))
    y = np.linspace(0.0, _upper(m), n + 1)
    weights = np.full(n + 1, 2.0)
    weights[1::2] = 4.0
    weights[[0, -1]] = 1.0
    weights *= (y[1] - y[0]) / 3.0
    kernel = 0.5 * y * y * np.exp(-y) * weights
    shift = m.delta_ls_max + y * m.delta_th
    rows = max(_BLOCK // (n + 1), 1)
    out = np.empty(len(deltas))
    for i in range(0, len(deltas), rows):
        block = deltas[i:i + rows]
        vals = np.asarray(spectrum((block[:, None] + shift[None, :]).ravel()))
        out[i:i + rows] = vals.reshape(len(block), n + 1) @ kernel
    return out


def broadened_spectrum(pulse, m: ThermalModel, delta_c_values, *, renormalize: bool = False,
                       damping=None, config=None):
    """Convolved transfer probability at the given detunings (rad/s).

    One-stop composition used by the scan front ends: batch-integrates the
    bare spectrum into a SpectrumCache that covers the grid plus the shift
    support, with a spline error of at most _TOL, then convolves.  When the
    shift window carries no mass (delta_ls_max = 0) the result is zero and
    no cache is built.
    """
    deltas = np.asarray(delta_c_values, dtype=float)
    if truncated_mass(m) == 0.0:
        return _scale(m, renormalize) * np.zeros_like(deltas)
    cache = SpectrumCache.for_scan(
        pulse, float(np.min(deltas)), float(np.max(deltas)), m, damping, config
    )
    return convolve(cache, m, renormalize=renormalize)(delta_c_values)


class SpectrumCache:
    """Bare transfer spectrum precomputed on a uniform detuning grid.

    Full Bloch integration per point is far too slow inside quadratures
    and fit loops, so the spectrum is evaluated once on a grid and
    interpolated with a not-a-knot cubic spline.  The knot slopes come
    from one tridiagonal solve at construction; because the grid is
    uniform (equal steps within 1e-6 relative, as from_pulse builds it),
    a call finds its interval arithmetically.  Calls outside the domain
    clamp to the edge values; build the cache wide enough to cover every
    shifted evaluation.

    from_pulse sizes the grid by the spline's own error.  It samples a
    64-interval seed grid, then grids whose interval count doubles, each
    integrating only its new midpoints.  The spline's error is O(h^4)
    (de Boor, A Practical Guide to Splines, ch. IV), so the largest
    deviation of the previous level's spline at the new midpoints, over
    16, estimates the new level's error; sampling stops once that is at
    most _TOL.  No grid coarser than the pulse's Fourier width
    (1/t_p in Hz) is accepted or used for an estimate: the first level at
    or below it is reached in one jump from the seed.
    """

    def __init__(self, deltas, p1):
        deltas = np.asarray(deltas, dtype=float)
        p1 = np.asarray(p1, dtype=float)
        if deltas.ndim != 1 or len(deltas) < 4:
            raise ValueError("need at least 4 grid points")
        if p1.shape != deltas.shape:
            raise ValueError("need one p1 value per grid point")
        steps = np.diff(deltas)
        if np.any(steps <= 0):
            raise ValueError("grid must increase strictly")
        self.deltas = deltas
        self.p1 = p1
        self.lo = float(deltas[0])
        self.hi = float(deltas[-1])
        h = (self.hi - self.lo) / (len(deltas) - 1)
        if np.any(np.abs(steps - h) > _UNIFORM_TOL * h):
            raise ValueError("grid must be uniform")
        self._inv_h = 1.0 / h
        self._coef = _spline_coefficients(p1, h)

    @classmethod
    def from_pulse(cls, pulse, delta_lo: float, delta_hi: float, damping=None,
                   config=None) -> "SpectrumCache":
        """Batch-integrate the pulse over [delta_lo, delta_hi] (rad/s) on
        nested grids until the spline error estimate is at most
        _TOL (see the class docstring).

        Raises IntegrationError when the next grid would exceed
        _MAX_CACHE_POINTS.
        """
        from .bloch import detuning_spectrum

        if not delta_hi > delta_lo:
            raise ValueError("need delta_hi > delta_lo")
        span = delta_hi - delta_lo
        # the pulse's Fourier width, 1/t_p in Hz: no grid coarser is accepted
        fourier = 2.0 * math.pi / pulse.duration
        n = _SEED_INTERVALS
        seed = np.linspace(delta_lo, delta_hi, n + 1)
        p1 = detuning_spectrum(pulse, seed, damping, config)
        estimate = math.inf
        while not estimate <= _TOL:
            fine = 2 * n
            while span / fine > fourier and fine < _MAX_CACHE_POINTS:
                fine *= 2
            if fine + 1 > _MAX_CACHE_POINTS:
                raise IntegrationError(
                    f"spectrum cache budget of {_MAX_CACHE_POINTS} points reached "
                    f"with spline error estimate {estimate:.2e} > {_TOL:.2e}"
                )
            grid = np.linspace(delta_lo, delta_hi, fine + 1)
            stride = fine // n
            new = np.arange(fine + 1) % stride != 0
            p1_new = detuning_spectrum(pulse, grid[new], damping, config)
            if stride == 2 and span / n <= fourier:
                # the coarse spline at the new midpoints: its error, which
                # the fine grid divides by 2^4
                h = span / n
                c3, c2, c1, c0 = _spline_coefficients(p1, h)
                x = 0.5 * h
                coarse = ((c3 * x + c2) * x + c1) * x + c0
                estimate = float(np.max(np.abs(coarse - p1_new))) / 16.0
            fine_p1 = np.empty(fine + 1)
            fine_p1[::stride] = p1
            fine_p1[new] = p1_new
            n, p1 = fine, fine_p1
        return cls(np.linspace(delta_lo, delta_hi, n + 1), p1)

    @classmethod
    def for_scan(cls, pulse, scan_lo, scan_hi, m: ThermalModel,
                 damping=None, config=None) -> "SpectrumCache":
        """Cache sized for broadened evaluation on [scan_lo, scan_hi]."""
        return cls.from_pulse(pulse, scan_lo + m.delta_ls_max, scan_hi, damping, config)

    def __call__(self, delta_c):
        x = np.clip(delta_c, self.lo, self.hi)
        i = np.clip(((x - self.lo) * self._inv_h).astype(np.intp), 0, len(self.deltas) - 2)
        dx = x - self.deltas[i]
        c3, c2, c1, c0 = self._coef
        out = ((c3[i] * dx + c2[i]) * dx + c1[i]) * dx + c0[i]
        return float(out) if np.ndim(delta_c) == 0 else out


def _spline_coefficients(y: np.ndarray, h: float):
    """Per-interval cubics (c3, c2, c1, c0) of the not-a-knot spline
    through y on a grid of step h, in x - x_i, highest power first."""
    slopes = _not_a_knot_slopes(y, h)
    secant = np.diff(y) / h
    t = (slopes[:-1] + slopes[1:] - 2.0 * secant) / h
    return t / h, (secant - slopes[:-1]) / h - t, slopes[:-1], y[:-1]


def _not_a_knot_slopes(y: np.ndarray, h: float) -> np.ndarray:
    """First derivatives at the knots of the not-a-knot cubic spline
    through y on a grid of step h (Thomas algorithm, no pivoting needed:
    every pivot after the first row stays above 0.4)."""
    secant = np.diff(y) / h
    n = len(y)
    # rows: s0 + 2 s1 = (5 d0 + d1) / 2;  s_{i-1} + 4 s_i + s_{i+1} =
    # 3 (d_{i-1} + d_i);  2 s_{n-2} + s_{n-1} = (d_{n-3} + 5 d_{n-2}) / 2
    sub = [0.0] + [1.0] * (n - 2) + [2.0]
    diag = [1.0] + [4.0] * (n - 2) + [1.0]
    sup = [2.0] + [1.0] * (n - 2) + [0.0]
    rhs = [0.5 * (5.0 * secant[0] + secant[1])]
    rhs += (3.0 * (secant[:-1] + secant[1:])).tolist()
    rhs.append(0.5 * (secant[-2] + 5.0 * secant[-1]))
    c = [0.0] * n
    d = [0.0] * n
    c[0] = sup[0] / diag[0]
    d[0] = rhs[0] / diag[0]
    for i in range(1, n):
        pivot = diag[i] - sub[i] * c[i - 1]
        c[i] = sup[i] / pivot
        d[i] = (rhs[i] - sub[i] * d[i - 1]) / pivot
    for i in range(n - 2, -1, -1):
        d[i] -= c[i] * d[i + 1]
    return np.array(d)
