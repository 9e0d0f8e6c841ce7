"""Least-squares extraction of thermal parameters from spectra.

The broadened spectrum depends on the pulse only through the bare transfer
curve P1(delta_c), which is independent of the thermal parameters, so the
fitter integrates P1 once into a SpectrumCache and re-runs only the cheap
convolution per optimizer step.  A trial reads P1 only on its kernel's
support, from |delta_ls_max| below the data up to them, whatever its
delta_th; the cache reaches 3 |delta_ls_max| of the guess below the data,
past the widest trial of the benchmark's fits (2.61).

The model is linear in its scale: it is c g, where g is the curve at
p_max = 1 without renormalization.  Each residual evaluation therefore
solves c = <g, y> / <g, g>, at least 0, in closed form, and reports
p_max = min(c m, 1), where m is the truncated mass of a renormalized
guess and 1 otherwise; no residual divides by m.  The damped
least-squares runs unconstrained on the two nonlinear parameters only,

    s = log(delta_th),  q = log(-delta_ls_max)

(variable projection: Golub & Pereyra, SIAM J. Numer. Anal. 10, 413
(1973); Inverse Problems 19, R1 (2003)).  The guess's p_max is not used.
The optimizer is Levenberg-Marquardt with a forward-difference Jacobian
(Marquardt, SIAM J. Appl. Math. 11, 431 (1963)): damped Gauss-Newton
steps, the damping scaled by the running maximum of the Jacobian column
norms, shrunk tenfold after a step that lowers the residual and grown
tenfold after one that does not.  A trial point whose parameters or
residuals are not finite, whose g is zero, or whose renormalized model
has no mass counts as a rejected step.  Convergence means a stop test
passed (relative step 1e-6, gradient cosine 1e-8); spending the budget of
2000 residual evaluations first returns converged=False with the best
parameters found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import json
from pathlib import Path

import numpy as np

from .errors import FitDataError
from .scan import ScanResult
from .thermal import SpectrumCache, ThermalModel, convolve_on_grid, truncated_mass
from .units import khz_to_rad_per_s, rad_per_s_to_khz

__all__ = ["FitResult", "fit_spectrum"]

# evaluation budget: ~650 damped least-squares iterations at 3 model
# evaluations each (step + forward-difference Jacobian in 2 parameters)
_MAX_EVALS = 2000

# stop tests on the relative step and the gradient cosine, and the range
# of the damping
_XTOL = 1e-6
_GTOL = 1e-8
_DAMPING = (1e-12, 1e12)

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class FitResult:
    """Outcome of one spectrum fit.

    params       : best thermal parameters found; p_max is solved in closed
                   form at the best delta_ls_max and delta_th, and the
                   guess's p_max is not used; renormalize is the guess's
    residual_rms : root-mean-square residual at params
    n_iterations : optimizer work counter: every model evaluation, the two
                   of each forward-difference Jacobian and the last one,
                   which recovers p_max, included
    converged    : True when a stop test passed (relative step or
                   gradient cosine), False when the evaluation budget ran
                   out first
    cache_points, cache_integrated, cache_reach, widest_reach :
                   the cache's grid points and points integrated; how far
                   (rad/s) it and the widest trial reach below the data; not
                   part of the report
    """

    params: ThermalModel
    residual_rms: float
    n_iterations: int
    converged: bool
    cache_points: int
    cache_integrated: int
    cache_reach: float
    widest_reach: float

    def to_json_dict(self) -> dict:
        """The fit report: params in kHz, as the config's thermal section."""
        p = self.params
        return {
            "params": {
                "delta_ls_max_khz": rad_per_s_to_khz(p.delta_ls_max),
                "delta_th_khz": rad_per_s_to_khz(p.delta_th),
                "p_max": p.p_max,
            },
            "residual_rms": self.residual_rms,
            "n_iterations": self.n_iterations,
            "converged": self.converged,
        }

    def to_json(self, path: str | Path) -> None:
        with open(path, "w", encoding="ascii", newline="") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")


def _abscissa_rad_per_s(data: ScanResult) -> np.ndarray:
    if data.unit != "khz":
        raise FitDataError(f"fit needs a detuning abscissa in 'khz', got {data.unit!r}")
    # a large finite kHz value may overflow in rad/s
    with np.errstate(over="ignore"):
        deltas = khz_to_rad_per_s(data.abscissa)
    if not np.all(np.isfinite(deltas)):
        raise FitDataError("fit data abscissa is not finite in rad/s")
    return deltas


def fit_spectrum(data: ScanResult, pulse, initial_guess: ThermalModel) -> FitResult:
    """Fit the broadened-spectrum model to a measured detuning scan.

    data must contain at least 10 finite samples spanning both spectrum
    edges; constant data is rejected.  The model curve is the cached bare
    spectrum convolved with the light-shift distribution of the trial
    parameters (fixed-grid rule, matching convolve to ~1e-7), renormalized
    when the guess is.  Residuals are unweighted, and the guess's p_max is
    not used.
    """
    deltas = _abscissa_rad_per_s(data)
    if len(data) < 10:
        raise FitDataError(f"need >= 10 samples to fit, got {len(data)}")
    if not np.all(np.isfinite(data.p1)):
        raise FitDataError("p1 must be finite to fit")
    if np.ptp(data.p1) == 0.0:
        raise FitDataError("data is constant; nothing to fit")

    guess = initial_guess
    # the kernel's support reaches |delta_ls_max| below the data (module docstring)
    reach = 3.0 * abs(guess.delta_ls_max)
    cache = SpectrumCache.from_pulse(pulse, float(deltas.min()) - reach, float(deltas.max()))
    widest = 0.0

    y = np.asarray(data.p1, dtype=float)

    def model(x) -> tuple[ThermalModel, np.ndarray] | None:
        """The thermal model at x = (s, q) with its closed-form p_max, and
        its curve; None where x leaves the domain, g is zero or not
        finite, or a renormalized model has no mass."""
        s, q = x
        with np.errstate(over="ignore"):
            delta_ls_max, delta_th = -float(np.exp(q)), float(np.exp(s))
        try:
            unit = ThermalModel(delta_ls_max, delta_th, 1.0)
        except ValueError:
            return None
        nonlocal widest
        widest = max(widest, -delta_ls_max)
        mass = truncated_mass(unit) if guess.renormalize else 1.0
        g = convolve_on_grid(cache, deltas, unit)
        gg = float(g @ g)
        if not (0.0 < gg < math.inf and mass > 0.0):
            return None
        # p_max = c m, capped at 1, where the scale becomes 1 / m
        c = max(float(g @ y) / gg, 0.0)
        p = min(c * mass, 1.0)
        scale = c if c * mass <= 1.0 else 1.0 / mass
        return ThermalModel(delta_ls_max, delta_th, p, guess.renormalize), scale * g

    def residuals(x):
        fit = model(x)
        return np.full(y.shape, np.nan) if fit is None else fit[1] - y

    # a guess without light shift starts at q = -inf: a rejected start
    with np.errstate(divide="ignore"):
        x0 = np.array([np.log(guess.delta_th), np.log(-guess.delta_ls_max)])
    x, f, nfev, converged = _levenberg_marquardt(residuals, x0, _MAX_EVALS - 1)
    # one more evaluation, within the budget, recovers p_max at x; only a
    # rejected start has none
    fit = model(x)
    if fit is None:
        raise FitDataError("the model at the initial guess is zero or not finite on the data")
    return FitResult(
        params=fit[0],
        residual_rms=float(np.sqrt(np.mean(f**2))),
        n_iterations=nfev + 1,
        converged=converged,
        cache_points=cache.deltas.size,
        cache_integrated=cache.integrated,
        cache_reach=reach,
        widest_reach=widest,
    )


def _jacobian(fun, x, f):
    """Forward differences with step sqrt(eps) max(1, |x_j|), signed like x_j."""
    jac = np.empty((f.size, x.size))
    for j in range(x.size):
        xh = x.copy()
        xh[j] += math.sqrt(_EPS) * max(1.0, abs(x[j])) * (1.0 if x[j] >= 0 else -1.0)
        jac[:, j] = (fun(xh) - f) / (xh[j] - x[j])
    return jac


def _levenberg_marquardt(fun, x0, max_nfev):
    """Minimise |fun(x)|^2 by damped Gauss-Newton steps; return
    (x, fun(x), nfev, converged).

    Each step solves (J^T J + lam D) s = -J^T f (Marquardt, SIAM J. Appl.
    Math. 11, 431 (1963)), D the running largest diagonal of J^T J, 1
    where it is 0, as the unit-diagonal system of J D^-1/2.  A trial whose
    residuals are not finite or do not lower |f|^2 is rejected and
    multiplies lam by 10; an accepted one divides it by 10.  lam stays
    within _DAMPING, so the system is never singular.  Converged means the
    gradient cosine is at most _GTOL, or a step, accepted or rejected, is
    at most _XTOL (|x| + _XTOL) long; the budget, or a start or Jacobian
    that is not finite, ends it unconverged.  nfev counts every call of
    fun, Jacobian columns included, and never exceeds max_nfev.
    """
    x = np.array(x0, dtype=float)
    f = fun(x)
    nfev, cost, lam = 1, float(f @ f), 1e-3
    norms = np.zeros(x.size)
    if not math.isfinite(cost):
        return x, f, nfev, False
    while nfev + x.size < max_nfev:
        jac = _jacobian(fun, x, f)
        nfev += x.size
        if not np.all(np.isfinite(jac)):
            return x, f, nfev, False
        col = np.linalg.norm(jac, axis=0)
        # |f| times the cosine between the residual and each Jacobian column
        cos = np.abs(f @ jac)[col > 0.0] / col[col > 0.0]
        if np.max(cos, initial=0.0) <= _GTOL * math.sqrt(cost):
            return x, f, nfev, True
        norms = np.maximum(norms, col)
        d = np.where(norms > 0.0, norms, 1.0)
        jd = jac / d
        a, g = jd.T @ jd, jd.T @ f
        while True:
            step = np.linalg.solve(a + lam * np.eye(x.size), -g) / d
            small = np.linalg.norm(step) <= _XTOL * (np.linalg.norm(x) + _XTOL)
            trial = x + step
            f_trial = fun(trial)
            nfev += 1
            cost_trial = float(f_trial @ f_trial)
            # a residual that is not finite compares False: rejected
            accepted = cost_trial < cost
            if accepted:
                x, f, cost, lam = trial, f_trial, cost_trial, max(0.1 * lam, _DAMPING[0])
            else:
                lam = min(10.0 * lam, _DAMPING[1])
            if small:
                return x, f, nfev, True
            if accepted:
                break
            if nfev >= max_nfev:
                return x, f, nfev, False
    return x, f, nfev, False
