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
back by default.  A ThermalModel with renormalize=True divides it out.

Both convolutions integrate over y = (delta_ls - delta_ls_max) / delta_th
on [0, min(r, 200)] by composite Simpson in numpy: convolve doubles the
interval count until its Richardson error estimate is at most 1e-6, and
convolve_on_grid, the fit's inner loop, keeps one fixed step.

The bare spectrum enters as a SpectrumCache: a spline of P1 that
from_pulse integrates only where it needs to, over |delta_c| (P1 is even).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, QuadratureError
from .units import khz_to_rad_per_s

__all__ = [
    "ThermalModel",
    "truncated_mass",
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

# from_pulse's first level takes a multiple of this many intervals.  The
# grain is not waste: without it (ceil(span / step) intervals) the four
# fit and preset caches took 10% fewer member-steps, but the line pulse's
# sidelobes kept 2.4e-6 and a synthetic feature 4.1e-6, over _TOL, and a
# renormalized fit from a -1 kHz guess stopped at a spurious -6.44 kHz
_GRAIN = 64

# work budget of from_pulse: the most grid points one cache may have
_MAX_CACHE_POINTS = 2**16 + 1

# neighbour margin of from_pulse's refinement (see _refined)
_MARGIN = 3


@dataclass(frozen=True)
class ThermalModel:
    """delta_ls_max (<= 0) and delta_th (> 0) in rad/s, p_max in [0, 1].

    renormalize divides the broadened curve by the truncated mass, so that
    a flat unit spectrum maps to p_max exactly (off by default, see the
    module docstring); it needs a window with mass.
    """

    delta_ls_max: float
    delta_th: float
    p_max: float
    renormalize: bool = False

    def __post_init__(self):
        if not np.all(np.isfinite([self.delta_ls_max, self.delta_th, self.p_max])):
            raise ValueError("thermal model parameters must be finite")
        if self.delta_ls_max > 0:
            raise ValueError("delta_ls_max must be <= 0")
        if self.delta_th <= 0:
            raise ValueError("delta_th must be positive")
        if not 0.0 <= self.p_max <= 1.0:
            raise ValueError("p_max must lie in [0, 1]")
        if self.renormalize and truncated_mass(self) == 0.0:
            raise ValueError("the light-shift window carries no mass")

    @classmethod
    def from_khz(cls, delta_ls_max_khz, delta_th_khz, p_max, renormalize=False):
        return cls(khz_to_rad_per_s(delta_ls_max_khz), khz_to_rad_per_s(delta_th_khz), p_max,
                   renormalize)


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


def convolve(spectrum, m: ThermalModel):
    """Broaden a bare spectrum with the light-shift distribution of m.

    spectrum maps an array of delta_c (rad/s) to P1 of the same shape; it
    must be vectorized, as SpectrumCache is.  Returns a callable, delta_c
    (rad/s, scalar or array) -> broadened probability.

    Each call takes Romberg steps (Davis & Rabinowitz, Methods of Numerical
    Integration, 2nd ed., 1984, sec. 6.3): composite Simpson S_n at half
    the interval count of convolve_on_grid (at least 64), then S_2n,
    doubling n until the Richardson estimate max |S_2n - S_n| / 15 of the
    result is at most _TOL, and returns (16 S_2n - S_n) / 15.  The estimate
    assumes a smooth integrand, as the C2 spline of SpectrumCache is.  No
    level above _MAX_INTERVALS intervals is allocated: QuadratureError
    names the estimate instead.
    """
    scale = _scale(m)
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
                    f"with error estimate {estimate:.2e} > {_TOL:.2e}"
                )

    return broadened


def convolve_on_grid(spectrum, delta_c_values, m: ThermalModel):
    """Fixed-step counterpart of convolve: composite Simpson at _STEP *
    delta_th (at least 64 intervals), within about 1e-7 of convolve.  The
    step does not follow the spectrum, so the fit's forward-difference
    Jacobian sees a smooth function of the thermal parameters."""
    out = _scale(m) * _simpson(spectrum, delta_c_values, m, _intervals(m, _STEP))
    return _shaped(out, delta_c_values)


def _upper(m: ThermalModel) -> float:
    return min(-m.delta_ls_max / m.delta_th, _Y_CAP)


def _intervals(m: ThermalModel, step: float) -> int:
    return 2 * max(math.ceil(_upper(m) / step) // 2, 32)


def _scale(m: ThermalModel) -> float:
    return m.p_max / truncated_mass(m) if m.renormalize else m.p_max


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


def broadened_spectrum(pulse, m: ThermalModel, delta_c_values):
    """Convolved transfer probability at the given detunings (rad/s).

    One-stop composition used by the scan front ends: batch-integrates the
    bare spectrum into a SpectrumCache that covers the grid plus the shift
    support, with a spline error of at most _TOL, then convolves.  When the
    shift window carries no mass (delta_ls_max = 0) the result is zero and
    no cache is built.  An empty or non-finite grid is refused first.
    """
    deltas = np.asarray(delta_c_values, dtype=float)
    if deltas.size == 0 or not np.all(np.isfinite(deltas)):
        raise ValueError("delta_c_values must be a non-empty grid of finite detunings in rad/s")
    if truncated_mass(m) == 0.0:
        return np.zeros_like(deltas)
    cache = SpectrumCache.for_scan(pulse, float(np.min(deltas)), float(np.max(deltas)), m)
    return convolve(cache, m)(delta_c_values)


class SpectrumCache:
    """Bare transfer spectrum precomputed on a uniform detuning grid.

    Full Bloch integration per point is far too slow inside quadratures
    and fit loops, so the spectrum is evaluated once on a grid and
    interpolated with a not-a-knot cubic spline.  The knot slopes come
    from one tridiagonal solve at construction.

    p1 holds an even spectrum on np.linspace(a, b, len(p1)), the uniform
    grid over the fold [a, b] of domain = (lo, hi) onto |delta| (see
    from_pulse), so a call finds its interval arithmetically.  A call
    clamps delta to [lo, hi], then evaluates the spline at |delta|: calls
    are exactly even, and calls outside the domain take the edge values,
    so build the cache wide enough to cover every shifted evaluation.  A
    grid that starts at 0 ends evenly there, with zero slope in place of
    the not-a-knot condition.

    from_pulse integrates the pulse only where the spline needs it: all
    of the first level (see from_pulse), where an interval's estimate is
    the larger |fourth difference| at its nodes over 16, about 4.8 times
    the bound (5/384) h^4 max|f''''| (Hall & Meyer, J. Approx. Theory 16,
    105 (1976)).  Each doubling integrates the midpoints _refined picks,
    whose halves get the estimate |coarse spline - P1| / 16 as the error
    is O(h^4) (de Boor, A Practical Guide to Splines, ch. IV), and fills
    the rest from the coarse spline, keeping its estimate.  After at least
    one doubling, it stops once no estimate exceeds _TOL, and sets
    integrated to the number of points integrated.
    """

    def __init__(self, p1, domain):
        p1 = np.asarray(p1, dtype=float)
        if p1.ndim != 1 or len(p1) < 4:
            raise ValueError("need at least 4 grid points")
        if not domain[1] > domain[0]:
            raise ValueError("need domain[1] > domain[0]")
        self.lo, self.hi = float(domain[0]), float(domain[1])
        a, b = _fold(self.lo, self.hi)
        h = (b - a) / (len(p1) - 1)
        self.deltas = np.linspace(a, b, len(p1))
        self.p1 = p1
        self._inv_h = 1.0 / h
        self._coef = _spline_coefficients(p1, h, a == 0.0)

    @classmethod
    def from_pulse(cls, pulse, delta_lo: float, delta_hi: float) -> "SpectrumCache":
        """Batch-integrate the pulse's spectrum for calls on [delta_lo,
        delta_hi] (rad/s) until every spline error estimate is at most _TOL
        (see the class docstring).

        Only the fold of the domain onto |delta| is integrated: P1 is even.
        detuning_spectrum runs the pulse at delta_c = 0, where the envelope
        is even about t_p / 2 and the sweep odd.  Mirroring the pulse in
        time and swapping the two levels (conjugating by sigma_x) maps the
        Hamiltonian at delta onto the one at -delta; both are real
        symmetric, so the mirrored propagator is the transpose, and
        |<1|U|0>|^2 is the same at delta and -delta.

        The first level, integrated in one call, takes the smallest
        multiple of _GRAIN intervals of the folded span whose step is at
        most 3/4 of the pulse's Fourier width (1/t_p in Hz), whatever the
        requested span.  A 40 ms line pulse's 1/t_p sidelobes, sampled at
        0.5 to 0.89 of a width as the requested span's power of two fell,
        left errors of 2e-5 or spent the budget; at this rule's 0.61 to
        0.75 of a width the same spans met 1.1e-6.  A folded span that
        starts at 0 ends evenly there: the spline has zero slope at 0, the
        first level's fourth differences there take the reflected values
        p1[2] and p1[1], and the intervals at 0 are refined only where
        their estimates ask, as inside.

        Raises IntegrationError when the first level would exceed
        _MAX_CACHE_POINTS, before anything is integrated, or when the next
        doubling would.
        """
        from .bloch import detuning_spectrum

        if not delta_hi > delta_lo:
            raise ValueError("need delta_hi > delta_lo")
        a, b = _fold(delta_lo, delta_hi)
        even = a == 0.0
        # 3/4 of the pulse's Fourier width, 2 pi / t_p in rad/s
        step = 1.5 * math.pi / pulse.duration
        n = _GRAIN * float(np.ceil((b - a) / step / _GRAIN))
        if n + 1 > _MAX_CACHE_POINTS:
            raise IntegrationError(
                f"spectrum cache first level needs {n + 1:.6g} points, more than "
                f"the budget of {_MAX_CACHE_POINTS}"
            )
        n = int(n)
        p1 = detuning_spectrum(pulse, np.linspace(a, b, n + 1))
        integrated = n + 1
        head = p1[2:0:-1] if even else p1[:0]
        fourth = np.abs(np.convolve(np.concatenate([head, p1]), [1, -4, 6, -4, 1], "valid"))
        fourth = np.pad(fourth, (2 - head.size, 2), mode="edge")
        estimate = np.maximum(fourth[:-1], fourth[1:]) / 16.0
        while True:
            if 2 * n + 1 > _MAX_CACHE_POINTS:
                raise IntegrationError(
                    f"spectrum cache budget of {_MAX_CACHE_POINTS} points reached "
                    f"with spline error estimate {float(np.max(estimate)):.2e} > {_TOL:.2e}"
                )
            fine = np.linspace(a, b, 2 * n + 1)
            c3, c2, c1, c0 = _spline_coefficients(p1, (b - a) / n, even)
            x = 0.5 * (b - a) / n
            spline = ((c3 * x + c2) * x + c1) * x + c0
            run = _refined(estimate, even)
            mid = spline.copy()
            mid[run] = detuning_spectrum(pulse, fine[1::2][run])
            integrated += int(np.count_nonzero(run))
            estimate = np.repeat(np.where(run, np.abs(spline - mid) / 16.0, estimate), 2)
            fine[::2], fine[1::2] = p1, mid
            n, p1 = 2 * n, fine
            if np.max(estimate) <= _TOL:
                break
        cache = cls(p1, (delta_lo, delta_hi))
        cache.integrated = integrated
        return cache

    @classmethod
    def for_scan(cls, pulse, scan_lo, scan_hi, m: ThermalModel) -> "SpectrumCache":
        """Cache sized for broadened evaluation on [scan_lo, scan_hi]; a
        one-point scan whose shift is lost in floating point gets one Fourier
        width (2 pi / t_p), and at least 64 floats, around it instead."""
        lo, hi = scan_lo + m.delta_ls_max, scan_hi
        if not hi > lo:
            half = max(math.pi / pulse.duration, 32.0 * float(np.spacing(abs(lo))))
            lo, hi = lo - half, hi + half
        return cls.from_pulse(pulse, lo, hi)

    def __call__(self, delta_c):
        x = np.abs(np.clip(delta_c, self.lo, self.hi))
        i = np.clip(((x - self.deltas[0]) * self._inv_h).astype(np.intp), 0,
                    len(self.deltas) - 2)
        dx = x - self.deltas[i]
        c3, c2, c1, c0 = self._coef
        out = ((c3[i] * dx + c2[i]) * dx + c1[i]) * dx + c0[i]
        return float(out) if np.ndim(delta_c) == 0 else out


def _fold(lo: float, hi: float) -> tuple[float, float]:
    """[lo, hi] folded onto |delta|: [0, max |.|] when it holds 0, else the
    image of the nearer and the farther end."""
    a, b = sorted((abs(lo), abs(hi)))
    return (0.0 if lo <= 0.0 <= hi else a), b


def _refined(estimate: np.ndarray, even: bool) -> np.ndarray:
    """Mask of the midpoints the next doubling integrates: in the _MARGIN + 1
    intervals at either end whose fourth differences come from inside (not
    at an even end, where they are reflected), and within _MARGIN +
    log(e / _TOL) / log(2 + sqrt(3)) intervals of one whose estimate e
    exceeds _TOL, which the spline spreads, damped by 2 - sqrt(3) per
    interval, into filled neighbours."""
    run = np.zeros(len(estimate), dtype=bool)
    run[-_MARGIN - 1:] = True
    run[:_MARGIN + 1] = not even
    for k in np.flatnonzero(estimate > _TOL):
        reach = _MARGIN + int(math.log(estimate[k] / _TOL) / math.log(2.0 + math.sqrt(3.0)))
        run[max(k - reach, 0):k + reach + 1] = True
    return run


def _spline_coefficients(y: np.ndarray, h: float, even: bool):
    """Per-interval cubics (c3, c2, c1, c0) of the not-a-knot spline
    through y on a grid of step h, in x - x_i, highest power first; with
    even, the spline's slope is 0 at the first knot instead."""
    slopes = _not_a_knot_slopes(y, h, even)
    secant = np.diff(y) / h
    t = (slopes[:-1] + slopes[1:] - 2.0 * secant) / h
    return t / h, (secant - slopes[:-1]) / h - t, slopes[:-1], y[:-1]


def _not_a_knot_slopes(y: np.ndarray, h: float, even: bool) -> np.ndarray:
    """First derivatives at the knots of the not-a-knot cubic spline
    through y on a grid of step h (Thomas algorithm, no pivoting needed:
    every pivot after the first row stays above 0.4); with even, the first
    row is s0 = 0, the end of a spline even about its first knot."""
    secant = np.diff(y) / h
    n = len(y)
    # rows: s0 + 2 s1 = (5 d0 + d1) / 2 (or s0 = 0);  s_{i-1} + 4 s_i +
    # s_{i+1} = 3 (d_{i-1} + d_i);  2 s_{n-2} + s_{n-1} = (d_{n-3} + 5 d_{n-2}) / 2
    sub = [0.0] + [1.0] * (n - 2) + [2.0]
    diag = [1.0] + [4.0] * (n - 2) + [1.0]
    sup = [0.0 if even else 2.0] + [1.0] * (n - 2) + [0.0]
    rhs = [0.0 if even else 0.5 * (5.0 * secant[0] + secant[1])]
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
