"""Maximum-likelihood fitting: Newton ascent with ridge fallback, plus Wald
inference from the observed information matrix.

The maximizer takes Newton steps using a finite-difference Hessian of the
analytic gradient.  When that Hessian is not negative definite a ridge term
is added (doubling from ``ridge_floor``) until the step is an ascent
direction, and every step is backtracked by halving until the objective does
not decrease.  One maximizer serves all three families.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg
from scipy.special import ndtr

from .data import Dataset, DesignMatrix, binarize_counts, build_design
from .exceptions import (
    DegenerateOutcome,
    DimensionMismatch,
    InvalidSpec,
    NonFiniteObjective,
    RankDeficientDesign,
    SeparationSuspected,
    SingularInformation,
    ZeroStandardError,
)
from .likelihoods import INFLATE_PREFIX, FAMILIES, Family, ModelSpec

# fit calls the unchecked cores of FAMILIES.  The span tracer in
# perfbench/spans.py patches the six checked kernels on this module, as it
# patches fd_hessian and build_design, so they stay names of this module.
from .likelihoods import logit_grad, logit_loglik, poisson_grad, poisson_loglik
from .likelihoods import zip_grad, zip_loglik


@dataclass(frozen=True)
class OptimOptions:
    max_iterations: int = 200
    gradient_tolerance: float = 1e-8
    step_halving_max: int = 30
    ridge_floor: float = 1e-10

    def __post_init__(self):
        limits = (self.max_iterations, self.step_halving_max)
        scales = (self.gradient_tolerance, self.ridge_floor)
        if not all(isinstance(v, numbers.Integral) and v > 0 for v in limits) or not all(
            isinstance(v, numbers.Real) and 0 < v < math.inf for v in scales
        ):
            raise InvalidSpec("iteration limits must be integers > 0, tolerances finite and > 0")


class CoefficientRow(NamedTuple):
    name: str
    estimate: float
    std_error: float
    z_stat: float
    p_value: float
    stars: str


class MaximizeResult(NamedTuple):
    theta: np.ndarray
    value: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class FitResult:
    """Estimated coefficients with Wald inference and fit diagnostics."""

    family: Family
    coefficients: tuple[CoefficientRow, ...]
    log_likelihood: float
    iterations: int
    converged: bool
    covariance: np.ndarray

    def coefficient(self, name: str) -> CoefficientRow:
        for row in self.coefficients:
            if row.name == name:
                return row
        raise KeyError(name)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(row.name for row in self.coefficients)

    @property
    def estimates(self) -> np.ndarray:
        return np.array([row.estimate for row in self.coefficients])

    def to_dict(self) -> dict:
        return {
            "family": self.family.value,
            "converged": self.converged,
            "iterations": self.iterations,
            "log_likelihood": self.log_likelihood,
            "coefficients": [row._asdict() for row in self.coefficients],
            "covariance": self.covariance.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FitResult":
        rows = []
        for c in payload["coefficients"]:
            name, *values, stars = (c[field] for field in CoefficientRow._fields)
            rows.append(CoefficientRow(name, *map(float, values), stars))
        return cls(
            family=Family(payload["family"]),
            coefficients=tuple(rows),
            log_likelihood=float(payload["log_likelihood"]),
            iterations=int(payload["iterations"]),
            converged=bool(payload["converged"]),
            covariance=np.array(payload["covariance"], dtype=np.float64),
        )


def fd_hessian(grad: Callable[[np.ndarray], np.ndarray], theta: np.ndarray) -> np.ndarray:
    """Central finite differences of an analytic gradient, symmetrized.

    Step per coordinate is 1e-5 * (1 + |theta_j|).
    """
    theta = np.asarray(theta, dtype=np.float64)
    k = theta.shape[0]
    H = np.empty((k, k))
    for j in range(k):
        h = 1e-5 * (1.0 + abs(theta[j]))
        up = theta.copy()
        dn = theta.copy()
        up[j] += h
        dn[j] -= h
        H[:, j] = (grad(up) - grad(dn)) / (2.0 * h)
    return 0.5 * (H + H.T)


def _newton_step(H: np.ndarray, g: np.ndarray, ridge_floor: float) -> np.ndarray:
    """Solve for an ascent direction, ridging H toward negative definiteness.

    Tries the raw Hessian first; on failure adds -tau*I with tau doubling
    from ridge_floor until -(H - tau I) admits a Cholesky factor and the
    resulting step satisfies g's > 0.
    """
    k = g.shape[0]
    tau = 0.0
    for _ in range(200):
        A = -(H - tau * np.eye(k))
        try:
            c, low = scipy.linalg.cho_factor(A)
            step = scipy.linalg.cho_solve((c, low), g)
            if np.all(np.isfinite(step)) and g @ step > 0.0:
                return step
        except scipy.linalg.LinAlgError:
            pass
        tau = ridge_floor if tau == 0.0 else 2.0 * tau
    # Hessian hopelessly scaled; fall back to steepest ascent
    return g / max(1.0, np.linalg.norm(g))


def maximize(
    loglik: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    init,
    options: OptimOptions = OptimOptions(),
) -> MaximizeResult:
    """Maximize a log-likelihood by damped Newton ascent.

    Terminates when the max-abs gradient component falls below
    ``gradient_tolerance`` (converged) or after ``max_iterations`` Newton
    steps (not converged, best-so-far point returned).  The sequence of
    accepted objective values is non-decreasing by construction.
    """
    theta = np.array(init, dtype=np.float64)
    f = float(loglik(theta))
    if not np.isfinite(f):
        raise NonFiniteObjective(0)

    iterations = 0
    for iteration in range(1, options.max_iterations + 1):
        g = np.asarray(grad(theta), dtype=np.float64)
        if not np.all(np.isfinite(g)):
            raise NonFiniteObjective(iteration)
        if np.max(np.abs(g)) <= options.gradient_tolerance:
            return MaximizeResult(theta, f, iterations, True)

        H = fd_hessian(grad, theta)
        step = _newton_step(H, g, options.ridge_floor)

        # objective comparisons are meaningless below float rounding noise
        noise = 1e-12 * (1.0 + abs(f))
        alpha = 1.0
        accepted = False
        for _ in range(options.step_halving_max):
            trial = theta + alpha * step
            f_trial = float(loglik(trial))
            if np.isfinite(f_trial) and f_trial >= f - noise:
                theta, f = trial, f_trial
                accepted = True
                break
            alpha *= 0.5
        iterations = iteration
        if not accepted:
            # no non-decreasing step within the halving budget: stalled
            return MaximizeResult(theta, f, iterations, False)

    g = np.asarray(grad(theta), dtype=np.float64)
    converged = bool(np.all(np.isfinite(g)) and np.max(np.abs(g)) <= options.gradient_tolerance)
    return MaximizeResult(theta, f, iterations, converged)


def wald_inference(names, estimates, covariance) -> tuple[CoefficientRow, ...]:
    """Coefficient table from estimates and their covariance.

    z = estimate / std_error, p = 2 (1 - Phi(|z|)); stars follow the
    three-tier legend: p <= 0.001 "***", p <= 0.05 "**", p <= 0.10 "*".
    """
    estimates = np.asarray(estimates, dtype=np.float64)
    covariance = np.asarray(covariance, dtype=np.float64)
    names = tuple(names)
    if covariance.shape != (len(names), len(names)) or estimates.shape[0] != len(names):
        raise DimensionMismatch("coefficient names, estimates, and covariance disagree")
    rows = []
    for j, name in enumerate(names):
        se = float(np.sqrt(covariance[j, j]))
        if se == 0.0:
            raise ZeroStandardError(name)
        z = float(estimates[j]) / se
        p = float(2.0 * ndtr(-abs(z)))  # bit-identical to scipy.stats.norm.sf(|z|)
        rows.append(CoefficientRow(name, float(estimates[j]), se, z, p, _stars(p)))
    return tuple(rows)


def _stars(p: float) -> str:
    if p <= 0.001:
        return "***"
    if p <= 0.05:
        return "**"
    if p <= 0.10:
        return "*"
    return ""


def _check_full_rank(design: DesignMatrix):
    """Reject rank-deficient designs via pivoted QR."""
    X = design.values
    if X.shape[1] == 0:
        return
    _, R, piv = scipy.linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    tol = 1e-10 * diag.max() if diag.size else 0.0
    rank = int(np.sum(diag > tol))
    if rank < X.shape[1]:
        suspects = [design.column_names[j] for j in piv[rank:]]
        raise RankDeficientDesign(suspects)


def fit(model: ModelSpec, dataset: Dataset, options: OptimOptions = OptimOptions()) -> FitResult:
    """Fit a model family to a dataset by maximum likelihood.

    The inputs are checked once; the family's entry in ``FAMILIES`` supplies
    the starting values (see ``FamilyModel.initial_values``), the coefficient
    names and the unchecked cores the maximizer calls.  The covariance is the
    inverse of the negative finite-difference Hessian at the optimum.
    """
    if len(dataset) < 2:
        raise DegenerateOutcome("at least 2 observations are required for a fit")
    counts = dataset.counts()
    if not np.any(counts > 0):
        raise DegenerateOutcome("all counts are zero; likelihood is degenerate")
    family = FAMILIES[model.family]
    if family.inflated and np.all(counts > 0):
        raise DegenerateOutcome("no zero counts; the zero-inflation part is not identified")

    X = build_design(dataset, model.count_covariates, model.add_intercept)
    _check_full_rank(X)
    Z = None
    if family.inflated:
        inflation = model.inflation_covariates or model.count_covariates
        Z = build_design(dataset, inflation, model.add_intercept)
        _check_full_rank(Z)
    data = family.prepare(X, Z, binarize_counts(dataset) if family.binary else counts)
    kx = X.k
    objective = lambda th: family.loglik(th[:kx], th[kx:], data)
    score = lambda th: family.grad(th[:kx], th[kx:], data)

    init = family.initial_values(counts, X, Z, model.add_intercept)
    result = maximize(objective, score, init, options)

    if family.binary and not result.converged:
        if float(np.max(np.abs(X.values @ result.theta))) > 30.0:
            raise SeparationSuspected()

    covariance = _observed_covariance(score, result.theta)
    rows = wald_inference(family.names(X, Z), result.theta, covariance)
    return FitResult(
        family=model.family,
        coefficients=rows,
        log_likelihood=result.value,
        iterations=result.iterations,
        converged=result.converged,
        covariance=covariance,
    )


def _observed_covariance(score, theta: np.ndarray) -> np.ndarray:
    """Inverse of the negative FD Hessian, validated symmetric PSD."""
    H = fd_hessian(score, theta)
    info = -H
    try:
        cov = scipy.linalg.inv(info)
    except scipy.linalg.LinAlgError:
        raise SingularInformation() from None
    cov = 0.5 * (cov + cov.T)
    if not np.all(np.isfinite(cov)):
        raise SingularInformation()
    eigs = np.linalg.eigvalsh(cov)
    if eigs.min() < -1e-8 * max(1.0, abs(eigs.max())) or np.any(np.diag(cov) <= 0.0):
        raise SingularInformation()
    return cov
