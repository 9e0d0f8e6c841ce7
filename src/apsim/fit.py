"""Least-squares extraction of thermal parameters from spectra.

The broadened spectrum depends on the pulse only through the bare transfer
curve P1(delta_c), which is independent of the thermal parameters.  The
fitter therefore batch-integrates P1 once onto a cached grid, only where
its spline's error estimate asks for it (SpectrumCache.from_pulse), and
re-runs only the (cheap, vectorized) convolution per optimizer step; that
single reuse is what makes fitting interactive instead of an overnight job.

The model is linear in its scale: it is c g, where g is the curve at
p_max = 1 without renormalization.  Each residual evaluation therefore
solves c = <g, y> / <g, g>, at least 0, in closed form, and reports
p_max = min(c m, 1), where m is the truncated mass of a renormalized
guess and 1 otherwise; no residual divides by m.  The damped
least-squares runs unconstrained on the two nonlinear parameters only,

    s = log(delta_th),  q = log(-delta_ls_max)

(variable projection: Golub & Pereyra, SIAM J. Numer. Anal. 10, 413
(1973); Inverse Problems 19, R1 (2003)).  The guess's p_max is not used.
The optimizer is a port of MINPACK's lmder (More, "The Levenberg-Marquardt
algorithm: implementation and theory", Lecture Notes in Mathematics 630,
1978) with a forward-difference Jacobian: a trust region scaled by the
running maximum of the Jacobian column norms, and More's search for the
damping parameter, done on the singular value decomposition of the
2-column scaled Jacobian.  A trial point whose parameters or residuals are
not finite, whose g is zero, or whose renormalized model has no mass
counts as a rejected step and shrinks the trust region.  Convergence means
one of MINPACK's tests passed (relative reduction 1e-8, relative step
1e-6, gradient cosine 1e-8); spending the budget of 2000 residual
evaluations first returns converged=False with the best parameters found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import json
import logging
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

# MINPACK lmder settings: stop tests, initial trust-region factor
_FTOL = 1e-8
_XTOL = 1e-6
_GTOL = 1e-8
_FACTOR = 100.0

_EPS = float(np.finfo(float).eps)
_DWARF = float(np.finfo(float).tiny)


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
    converged    : True when a stop test passed (relative reduction,
                   relative step or gradient cosine), False when the
                   evaluation budget ran out first
    """

    params: ThermalModel
    residual_rms: float
    n_iterations: int
    converged: bool

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
    if data.unit == "khz":
        # a large finite kHz value may overflow in rad/s
        with np.errstate(over="ignore"):
            deltas = khz_to_rad_per_s(data.abscissa)
        if not np.all(np.isfinite(deltas)):
            raise FitDataError("fit data abscissa is not finite in rad/s")
        return deltas
    if data.unit == "rad/s":
        return np.asarray(data.abscissa, dtype=float)
    raise FitDataError(
        f"fit needs a detuning abscissa in 'khz' or 'rad/s', got {data.unit!r}"
    )


def fit_spectrum(
    data: ScanResult,
    pulse,
    initial_guess: ThermalModel,
) -> FitResult:
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
    # cache footprint: widest shift support the optimizer may explore,
    # sized from the guess (clamped extrapolation beyond is flat); the
    # grid step follows the bare spectrum, not the guess
    margin = 2.0 * abs(guess.delta_ls_max) + 20.0 * guess.delta_th
    cache = SpectrumCache.from_pulse(pulse, float(deltas.min()) - margin, float(deltas.max()))
    logging.getLogger(__name__).info("bare-spectrum cache: %d grid points, %d integrated",
                                     cache.deltas.size, cache.integrated)

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
    x, f, nfev, info = _lmder(residuals, x0, _MAX_EVALS - 1)
    # one more evaluation, within the budget, recovers p_max at x; only a
    # rejected start has none
    fit = model(x)
    if fit is None:
        raise FitDataError("the model at the initial guess is zero or not finite on the data")
    return FitResult(
        params=fit[0],
        residual_rms=float(np.sqrt(np.mean(f**2))),
        n_iterations=nfev + 1,
        converged=info not in (0, 5),
    )


def _jacobian(fun, x, f):
    """Forward differences with step sqrt(eps) max(1, |x_j|), signed like x_j."""
    jac = np.empty((f.size, x.size))
    for j in range(x.size):
        xh = x.copy()
        xh[j] += math.sqrt(_EPS) * max(1.0, abs(x[j])) * (1.0 if x[j] >= 0 else -1.0)
        jac[:, j] = (fun(xh) - f) / (xh[j] - x[j])
    return jac


def _lmder(fun, x0, max_nfev):
    """Minimise |fun(x)|^2 by MINPACK's lmder; return (x, fun(x), nfev, info).

    nfev counts every call of fun, Jacobian columns included, and never
    exceeds max_nfev.  info follows MINPACK: 1-3 reduction or step test
    passed, 4 gradient test, 5 budget spent, 6-8 a tolerance below
    roundoff; 0 means the start or a Jacobian was not finite.
    """
    x = np.array(x0, dtype=float)
    n = x.size
    f = fun(x)
    nfev = 1
    if not np.all(np.isfinite(f)):
        return x, f, nfev, 0
    fnorm = float(np.linalg.norm(f))
    par = 0.0
    first = True
    while True:
        if nfev + n > max_nfev:
            return x, f, nfev, 5
        jac = _jacobian(fun, x, f)
        nfev += n
        if not np.all(np.isfinite(jac)):
            return x, f, nfev, 0
        acnorm = np.linalg.norm(jac, axis=0)
        if first:
            diag = np.where(acnorm == 0.0, 1.0, acnorm)
            xnorm = float(np.linalg.norm(diag * x))
            delta = _FACTOR * xnorm if xnorm != 0.0 else _FACTOR
        # cosine between the residual and each Jacobian column
        gnorm = 0.0
        if fnorm != 0.0:
            live = acnorm != 0.0
            cos = np.abs(jac.T @ f)[live] / (fnorm * acnorm[live])
            gnorm = float(np.max(cos, initial=0.0))
        if gnorm <= _GTOL:
            return x, f, nfev, 4
        diag = np.maximum(diag, acnorm)
        # scaled Jacobian J D^-1 = U S V^T: the step for damping par is
        # D^-1 V w with w = -S U^T f / (S^2 + par)
        u, sv, vt = np.linalg.svd(jac / diag, full_matrices=False)
        grad = sv * (u.T @ f)

        while True:
            par, w = _lm_parameter(sv, grad, delta, par)
            step = (vt.T @ w) / diag
            pnorm = float(np.linalg.norm(w))
            if first:
                delta = min(delta, pnorm)
            trial = x + step
            f_trial = fun(trial)
            nfev += 1
            fnorm1 = float(np.linalg.norm(f_trial))
            if not math.isfinite(fnorm1):
                fnorm1 = math.inf
            actred = 1.0 - (fnorm1 / fnorm) ** 2 if 0.1 * fnorm1 < fnorm else -1.0
            # predicted reduction and scaled directional derivative
            temp1 = float(np.linalg.norm(sv * w)) / fnorm
            temp2 = math.sqrt(par) * pnorm / fnorm
            prered = temp1**2 + temp2**2 / 0.5
            dirder = -(temp1**2 + temp2**2)
            ratio = actred / prered if prered != 0.0 else 0.0
            # update the trust region
            if ratio <= 0.25:
                temp = 0.5 if actred >= 0.0 else 0.5 * dirder / (dirder + 0.5 * actred)
                if 0.1 * fnorm1 >= fnorm or temp < 0.1:
                    temp = 0.1
                delta = temp * min(delta, pnorm / 0.1)
                par /= temp
            elif par == 0.0 or ratio >= 0.75:
                delta = pnorm / 0.5
                par *= 0.5
            if ratio >= 1e-4:
                x, f, fnorm = trial, f_trial, fnorm1
                xnorm = float(np.linalg.norm(diag * x))
                first = False
            # convergence tests, then tolerances below roundoff
            reduced = abs(actred) <= _FTOL and prered <= _FTOL and 0.5 * ratio <= 1.0
            small_step = delta <= _XTOL * xnorm
            if reduced or small_step:
                return x, f, nfev, 3 if reduced and small_step else 1 if reduced else 2
            if nfev >= max_nfev:
                return x, f, nfev, 5
            if abs(actred) <= _EPS and prered <= _EPS and 0.5 * ratio <= 1.0:
                return x, f, nfev, 6
            if delta <= _EPS * xnorm:
                return x, f, nfev, 7
            if gnorm <= _EPS:
                return x, f, nfev, 8
            if ratio >= 1e-4:
                break


def _lm_parameter(sv, grad, delta, par):
    """More's search for the damping par whose step w has |w| near delta.

    sv are the singular values of the scaled Jacobian and grad = S U^T f
    its gradient in the right singular basis; par is the previous value,
    the starting estimate.  Returns (par, w); par = 0 when the
    Gauss-Newton step already lies within 1.1 delta.
    """
    full_rank = bool(np.all(sv > 0.0))
    # Gauss-Newton step (minimum norm where the Jacobian is singular)
    w = -np.divide(grad, sv * sv, out=np.zeros_like(grad), where=sv > 0.0)
    dxnorm = float(np.linalg.norm(w))
    fp = dxnorm - delta
    if fp <= 0.1 * delta:
        return 0.0, w
    parl = 0.0
    if full_rank:
        temp2 = float(np.sum((w / sv) ** 2)) / dxnorm**2
        parl = fp / delta / temp2
    gnorm = float(np.linalg.norm(grad))
    paru = gnorm / delta
    if paru == 0.0:
        paru = _DWARF / min(delta, 0.1)
    par = min(max(par, parl), paru)
    if par == 0.0:
        par = gnorm / dxnorm
    for it in range(1, 11):
        if par == 0.0:
            par = max(_DWARF, 0.001 * paru)
        denom = sv * sv + par
        w = -grad / denom
        dxnorm = float(np.linalg.norm(w))
        temp = fp
        fp = dxnorm - delta
        if abs(fp) <= 0.1 * delta or (parl == 0.0 and fp <= temp < 0.0) or it == 10:
            break
        # Newton correction of the secular equation 1/|w| = 1/delta
        temp2 = float(np.sum(w * w / denom)) / dxnorm**2
        parc = fp / delta / temp2
        if fp > 0.0:
            parl = max(parl, par)
        elif fp < 0.0:
            paru = min(paru, par)
        par = max(parl, par + parc)
    return par, w
