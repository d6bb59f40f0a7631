"""Maximum-likelihood fitting: Newton ascent with ridge fallback, plus Wald
inference from the observed information matrix.

The maximizer takes Newton steps using a finite-difference Hessian of the
analytic gradient, whose points a stacked score evaluates in one call.
When that Hessian is not negative definite a ridge term is added (doubling
from ``ridge_floor``) until the step is an ascent direction, and every step is
backtracked by halving until the objective does not decrease.  One maximizer
serves all three families.  Options and saved fits are read by the rules of
:mod:`geocount.exceptions`; a bad value is ``InvalidSpec``.  scipy is imported
by the functions that call it, so that ``import geocount`` costs only numpy's
start-up.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .data import INFLATE_PREFIX, Dataset, DesignMatrix, _column, binarize_counts, build_design
from .data import reject_duplicates
from .exceptions import (
    DegenerateOutcome,
    DimensionMismatch,
    DomainError,
    InvalidSpec,
    NonFiniteObjective,
    RankDeficientDesign,
    SeparationSuspected,
    SingularInformation,
    ZeroStandardError,
    Checked,
    is_kind,
    must_be,
    read_object,
    rule,
)
from .likelihoods import FAMILIES, Family, ModelSpec

# fit calls the unchecked cores of FAMILIES.  The span tracer in
# perfbench/spans.py patches the six checked kernels on this module, as it
# patches fd_hessian and build_design, so they stay names of this module.
from .likelihoods import logit_grad, logit_loglik, poisson_grad, poisson_loglik
from .likelihoods import zip_grad, zip_loglik


#: Most points x observations one core call of ``fit``'s score covers.  Up to
#: n = 64 one call takes every point of a k <= 32 Hessian.  From n = 2,049 up a
#: call takes one point: blocks of 8 or more rows at n = 2,947, and of 2 or more
#: at n = 30,000, ran slower than one row at a time (BENCH_stacked_score.json).
SCORE_BLOCK_ELEMENTS = 4096

_LIMIT = (int, lambda v: v > 0, "an integer > 0")
_SCALE = (float, lambda v: 0.0 < v < math.inf, "a finite number > 0")


@dataclass(frozen=True)
class OptimOptions(Checked):
    max_iterations: int = rule(*_LIMIT, default=200)
    gradient_tolerance: float = rule(*_SCALE, default=1e-8)
    step_halving_max: int = rule(*_LIMIT, default=30)
    ridge_floor: float = rule(*_SCALE, default=1e-10)


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

    def __post_init__(self):
        reject_duplicates(self.names, lambda name: InvalidSpec(
            f"fit result: coefficient name {name!r} appears more than once"))

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
    def from_dict(cls, payload) -> "FitResult":
        """The result a :meth:`to_dict` document holds, names unique; else ``InvalidSpec``."""
        doc = read_object(
            payload, "fit result", family=str, coefficients=list, log_likelihood=float,
            iterations=int, converged=bool, covariance=list,
        )
        row = dict(zip(CoefficientRow._fields, (str, float, float, float, float, str)))
        rows = (CoefficientRow(**read_object(c, "fit result coefficient", **row))
                for c in doc["coefficients"])
        doc["coefficients"] = tuple(rows)
        k, covariance = len(doc["coefficients"]), doc["covariance"]
        if not (is_kind(covariance, ((float,),)) and len(covariance) == k
                and all(len(r) == k for r in covariance)):
            raise InvalidSpec(f"fit result: 'covariance' must be a {k} x {k} matrix of numbers")
        doc["covariance"] = np.array(covariance, dtype=np.float64).reshape(k, k)
        try:
            doc["family"] = Family(doc["family"])
        except ValueError as exc:
            raise InvalidSpec(f"fit result: {exc}") from None
        return cls(**doc)


def _numbers(convert, value, where: str) -> np.ndarray:
    """``convert(value, dtype=float64)``, ``np.asarray`` or ``np.array``; a value that is not
    numbers is ``InvalidSpec: <where> must be a list of numbers, got <value>``."""
    try:
        return convert(value, dtype=np.float64)
    except (ValueError, TypeError):
        message = f"{where} must be a list of numbers, got {reprlib.repr(value)}"
        raise InvalidSpec(message) from None


def fd_hessian(score: Callable[[np.ndarray], np.ndarray], theta: np.ndarray) -> np.ndarray:
    """Central finite differences of a stacked analytic score, symmetrized.

    Step per coordinate is h_j = 1e-5 * (1 + |theta_j|).  ``score`` takes the
    k points theta + h_j e_j, then the k points theta - h_j e_j, in one (2k, k)
    stack and returns the gradients at them, one row per point.
    """
    theta = _numbers(np.asarray, theta, "fd_hessian: theta")
    k = theta.shape[0]
    h = 1e-5 * (1.0 + np.abs(theta))
    points = np.full((2, k, k), theta)
    diagonal = np.arange(k)
    points[0, diagonal, diagonal] = theta + h
    points[1, diagonal, diagonal] = theta - h
    G = np.asarray(score(points.reshape(2 * k, k)), dtype=np.float64)
    columns = (G[:k] - G[k:]) / (2.0 * h)[:, None]  # row j is column j of H
    return 0.5 * (columns.T + columns)


def _newton_step(H: np.ndarray, g: np.ndarray, ridge_floor: float) -> np.ndarray:
    """Solve for an ascent direction, ridging H toward negative definiteness.

    Tries the raw Hessian first; on failure adds -tau*I with tau doubling
    from ridge_floor until -(H - tau I) admits a Cholesky factor and the
    resulting step satisfies g's > 0.  LAPACK's dpotrf/dpotrs are called as
    ``scipy.linalg.cho_factor``/``cho_solve`` call them, without those
    wrappers' input checks: H and g are finite here.
    """
    from scipy.linalg.lapack import dpotrf, dpotrs
    identity = np.eye(g.shape[0])
    tau = 0.0
    for _ in range(200):
        factor, info = dpotrf(-(H - tau * identity), clean=0)
        if info == 0:  # info > 0: not positive definite, so ridge further
            step, _ = dpotrs(factor, g)
            if np.all(np.isfinite(step)) and g @ step > 0.0:
                return step
        tau = ridge_floor if tau == 0.0 else 2.0 * tau
    # Hessian hopelessly scaled; fall back to steepest ascent
    return g / max(1.0, np.linalg.norm(g))


def maximize(
    loglik: Callable[[np.ndarray], float],
    score: Callable[[np.ndarray], np.ndarray],
    init,
    options: OptimOptions = OptimOptions(),
) -> MaximizeResult:
    """Maximize a log-likelihood by damped Newton ascent.

    ``score`` is stacked: it takes an (m, k) array of points, one per row, and
    returns the (m, k) gradients of ``loglik`` at them.  The gradient at the
    current point is the m = 1 call; each Hessian is one m = 2k call through
    :func:`fd_hessian`.

    Terminates when the max-abs gradient component falls below
    ``gradient_tolerance`` (converged), or after ``max_iterations`` Newton
    steps or a step that no halving makes non-decreasing (not converged,
    best-so-far point returned).  The sequence of accepted objective values is
    non-decreasing by construction.  A non-finite objective at the start, or
    gradient or Hessian before a step, raises ``NonFiniteObjective``.
    """
    grad = lambda th: np.asarray(score(th[None]), dtype=np.float64)[0]
    theta = _numbers(np.array, init, "maximize: init")
    options = must_be(options, OptimOptions, "maximize: options")
    f = float(loglik(theta))
    if not np.isfinite(f):
        raise NonFiniteObjective(0)

    for steps in range(options.max_iterations + 1):
        g = grad(theta)
        finite = np.all(np.isfinite(g))
        if finite and np.max(np.abs(g)) <= options.gradient_tolerance:
            return MaximizeResult(theta, f, steps, True)
        if steps == options.max_iterations:
            return MaximizeResult(theta, f, steps, False)
        if not finite:
            raise NonFiniteObjective(steps + 1)
        H = fd_hessian(score, theta)
        if not np.all(np.isfinite(H)):
            raise NonFiniteObjective(steps + 1)
        step = _newton_step(H, g, options.ridge_floor)

        # objective comparisons are meaningless below float rounding noise
        noise = 1e-12 * (1.0 + abs(f))
        for halvings in range(options.step_halving_max):
            trial = theta + 0.5**halvings * step
            f_trial = float(loglik(trial))
            if np.isfinite(f_trial) and f_trial >= f - noise:
                theta, f = trial, f_trial
                break
        else:  # no non-decreasing step within the halving budget: stalled
            return MaximizeResult(theta, f, steps + 1, False)


def wald_inference(names, estimates, covariance) -> tuple[CoefficientRow, ...]:
    """Coefficient table from estimates and their covariance.

    z = estimate / std_error, p = 2 (1 - Phi(|z|)); stars follow the
    three-tier legend: p <= 0.001 "***", p <= 0.05 "**", p <= 0.10 "*".  A
    negative or NaN variance raises ``DomainError``, a zero one ``ZeroStandardError``.
    """
    from scipy.special import ndtr
    estimates = _column(estimates, "estimates", np.float64)
    covariance = _column(covariance, "covariance", np.float64)
    names = tuple(names)
    if covariance.shape != (len(names), len(names)) or estimates.shape != (len(names),):
        raise DimensionMismatch("coefficient names, estimates, and covariance disagree")
    rows = []
    for j, name in enumerate(names):
        variance = float(covariance[j, j])
        if not variance >= 0.0:
            raise DomainError(f"coefficient {name!r} has variance {variance}; it must be >= 0")
        se = math.sqrt(variance)
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


def _pivoted_qr_diagonal(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(diag(R), pivots) of ``scipy.linalg.qr(X, mode="economic", pivoting=True)``.

    LAPACK's dgeqp3 is called as that wrapper calls it, with the workspace size
    its query returns, so the pivots are the same; Q is not formed.  X is finite
    (a Dataset refuses non-finite covariates) and has at least one row.
    """
    from scipy.linalg.lapack import dgeqp3
    lwork = int(dgeqp3(X, lwork=-1)[3][0])
    qr, pivots, _, _, _ = dgeqp3(X, lwork=lwork)
    return np.diag(qr), pivots - 1  # dgeqp3's pivots are 1-based


def _check_full_rank(design: DesignMatrix, prefix: str = ""):
    """Reject rank-deficient designs via pivoted QR, naming columns as ``prefix + name``."""
    X = design.values
    diag, piv = _pivoted_qr_diagonal(X)
    diag = np.abs(diag)
    rank = int(np.sum(diag > 1e-10 * diag.max()))
    if rank < X.shape[1]:
        suspects = [prefix + design.column_names[j] for j in piv[rank:]]
        raise RankDeficientDesign(suspects)


def fit(model: ModelSpec, dataset: Dataset, options: OptimOptions = OptimOptions()) -> FitResult:
    """Fit a model family to a dataset by maximum likelihood.

    The inputs are checked once; the family's entry in ``FAMILIES`` supplies
    the starting values (see ``FamilyModel.initial_values``), the coefficient
    names and the unchecked cores, which the score calls on blocks of at most
    ``max(1, SCORE_BLOCK_ELEMENTS // n)`` points, with a memo when a block is one
    point (see ``FamilyModel``).  The covariance is the inverse of the negative
    finite-difference Hessian at the optimum.
    """
    if len(must_be(dataset, Dataset, "fit: dataset")) < 2:
        raise DegenerateOutcome("at least 2 observations are required for a fit")
    counts = dataset.counts()
    if not np.any(counts > 0):
        raise DegenerateOutcome("all counts are zero; likelihood is degenerate")
    family = FAMILIES[must_be(model, ModelSpec, "fit: model").family]
    if family.inflated and np.all(counts > 0):
        raise DegenerateOutcome("no zero counts; the zero-inflation part is not identified")

    X = build_design(dataset, model.count_covariates, model.add_intercept)
    _check_full_rank(X)
    Z = None
    if family.inflated:
        inflation = model.inflation_covariates or model.count_covariates
        Z = X  # the same covariates make the same design
        if inflation != model.count_covariates:
            Z = build_design(dataset, inflation, model.add_intercept)
            _check_full_rank(Z, INFLATE_PREFIX)
    data = family.prepare(X, Z, binarize_counts(dataset) if family.binary else counts)
    kx, block = X.k, max(1, SCORE_BLOCK_ELEMENTS // len(dataset))
    objective = lambda th: family.loglik(th[:kx], th[kx:], data)
    memo = {} if block == 1 else None  # serves one-row calls only
    score = lambda points: np.concatenate([
        family.grad(points[i : i + block, :kx], points[i : i + block, kx:], data, memo)
        for i in range(0, len(points), block)
    ])

    init = family.initial_values(counts, X, Z, model.add_intercept)
    # an overflow ends in a typed error or a refused trial step, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        result = maximize(objective, score, init, must_be(options, OptimOptions, "fit: options"))
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
    """Inverse of the negative FD Hessian of the stacked ``score``, validated
    finite, symmetric and PSD."""
    import scipy.linalg
    H = fd_hessian(score, theta)
    if not np.all(np.isfinite(H)):
        raise SingularInformation()
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
