"""Log-likelihoods, analytic scores, and moments for the three model families.

Families
--------
logit
    Binary presence model: P(y=1 | x) = sigma(x'beta) with sigma the
    logistic function, arising from a latent index with logistic error.
poisson
    Count model with log link: lambda = exp(x'beta), so that
    E(y | x) = Var(y | x) = lambda.
zip
    Zero-inflated Poisson: with probability p = sigma(z'gamma) the outcome
    is a structural zero, otherwise a Poisson(lambda) draw with
    lambda = exp(x'beta).  The mixture satisfies

        P(0) = p + (1 - p) exp(-lambda)
        P(y) = (1 - p) * Poisson(y; lambda)          for y > 0

    and is over-dispersed relative to Poisson(lambda) whenever p > 0:
    E(y) = (1 - p) lambda and Var(y) = (1 - p) lambda (1 + p lambda).

All likelihood terms are evaluated in log space with log-sum-exp so that
extreme linear predictors (|x'beta| up to 1e4) neither overflow nor produce
-inf from underflowing probabilities.

Each family is declared once, in :data:`FAMILIES`.  The public functions
check their inputs, then call the family's unchecked core; ``fit`` checks
once and calls the cores inside its Newton loop.  The fields of
:class:`ModelSpec` and :class:`Params` declare their rules (``exceptions.rule``).
scipy is imported by the functions that call it, so that ``import geocount``
costs only numpy's start-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .data import INFLATE_PREFIX, DesignMatrix, _column
from .exceptions import FINITE_NUMBERS, Checked, DimensionMismatch, DomainError, InvalidSpec
from .exceptions import NegativeCount, is_number, must_be, rule


class Family(str, Enum):
    LOGIT = "logit"
    POISSON = "poisson"
    ZIP = "zip"


_FAMILY_NAMES = [family.value for family in Family]


@dataclass(frozen=True)
class ModelSpec(Checked):
    """Model family plus covariate selections.

    ``count_covariates`` drive the count (or presence) component;
    ``inflation_covariates`` drive the ZIP structural-zero probability and
    default to the count set when left empty.  A count covariate's name may
    not start with ``INFLATE_PREFIX``, which marks the inflation coefficients.
    """

    family: Family = rule(str, lambda v: v in _FAMILY_NAMES, f"one of {_FAMILY_NAMES}")
    count_covariates: tuple[str, ...] = rule((str,), wording="a list of names", default=())
    inflation_covariates: tuple[str, ...] = rule((str,), wording="a list of names", default=())
    add_intercept: bool = rule(bool, default=True)

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "family", Family(self.family))
        for name in self.count_covariates:
            if name.startswith(INFLATE_PREFIX):
                raise InvalidSpec(f"count covariate {name!r} starts with {INFLATE_PREFIX!r}")
        if self.inflation_covariates and not FAMILIES[self.family].inflated:
            raise InvalidSpec("inflation_covariates are only meaningful for the ZIP family")


@dataclass(frozen=True)
class Params(Checked):
    """Coefficient vectors: beta for the count component, gamma for inflation."""

    beta: np.ndarray = rule(*FINITE_NUMBERS)
    gamma: np.ndarray | None = rule(*FINITE_NUMBERS, default=None)

    def __post_init__(self):
        super().__post_init__()
        for name in ("beta", "gamma"):
            if (value := getattr(self, name)) is not None:
                object.__setattr__(self, name, np.array(value))


class ZipPrediction(NamedTuple):
    """Per-row ZIP prediction: mixture mean and structural-zero probability."""

    mean: np.ndarray
    inflation_probability: np.ndarray


class Prepared(NamedTuple):
    """Checked data, and what a family's cores derive from it and keep between calls."""

    X: np.ndarray
    Z: np.ndarray | None  # None for a family without an inflation design
    y: np.ndarray  # float64 outcome
    zeros: np.ndarray  # the indices of the y == 0 rows
    log_y_factorial: np.ndarray  # gammaln(y + 1)
    memo: dict  # see _recall; a _replace copy with another design needs memo={}


def _design(D) -> np.ndarray:
    if D is not None:  # a missing design fails the dimension check
        D = D.values if isinstance(D, DesignMatrix) else _column(D, "design matrix", np.float64)
    if D is None or D.ndim != 2:
        raise DimensionMismatch("design matrix must be two-dimensional")
    return D


def _coef(coef, D: np.ndarray) -> np.ndarray:
    coef = _column(coef, "coefficients", np.float64)
    if coef.ndim != 1 or coef.shape[0] != D.shape[1]:
        raise DimensionMismatch(
            f"coefficient length {coef.shape} does not match design width {D.shape[1]}"
        )
    return coef


def _coefficients(beta, gamma, X: np.ndarray, Z: np.ndarray | None):
    """(beta, gamma) checked against the design widths; gamma is None without Z."""
    if Z is None:
        return _coef(beta, X), None
    if gamma is None:
        raise DimensionMismatch("ZIP requires gamma and an inflation design matrix")
    return _coef(beta, X), _coef(gamma, Z)


def log_sigmoid(t: np.ndarray) -> np.ndarray:
    """log sigma(t), computed without overflow for any finite t."""
    return -np.logaddexp(0.0, -np.asarray(t, dtype=np.float64))


def _products(D: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """(m, len(D)) block whose row r is ``D @ vectors[r]``.

    ``matmul`` over the stack of (k, 1) columns makes one matrix-vector
    product per row, the call ``D @ vectors[r]`` makes, so every row has that
    call's bits; a product with the (k, m) matrix of the rows would not.
    """
    return np.matmul(D, vectors[:, :, None])[:, :, 0]


def _logit_loglik(beta, gamma, d: Prepared) -> float:
    eta = d.X @ beta
    # y=1 contributes log sigma(eta), y=0 contributes log sigma(-eta)
    eta[d.zeros] *= -1.0
    return float(np.sum(log_sigmoid(eta)))


def _logit_grad(beta, gamma, d: Prepared) -> np.ndarray:
    from scipy.special import expit
    return _products(d.X.T, d.y - expit(_products(d.X, beta)))


def _poisson_loglik(beta, gamma, d: Prepared) -> float:
    eta = d.X @ beta
    return float(np.sum(-np.exp(eta) + d.y * eta - d.log_y_factorial))


def _poisson_grad(beta, gamma, d: Prepared) -> np.ndarray:
    return _products(d.X.T, d.y - np.exp(_products(d.X, beta)))


def _zip_loglik(beta, gamma, d: Prepared) -> float:
    eta = d.X @ beta
    lam = np.exp(eta)
    psi = d.Z @ gamma
    log_one_minus_p = -np.logaddexp(0.0, psi)
    # every row as y > 0, then the zero rows overwritten with their own branch
    terms = log_one_minus_p + d.y * eta - lam - d.log_y_factorial
    z = d.zeros
    terms[z] = np.logaddexp(psi.take(z), -lam.take(z)) + log_one_minus_p.take(z)
    return float(np.sum(terms))


def _recall(memo: dict, slot: str, coefficients: np.ndarray, compute):
    """``compute()`` for the stack ``coefficients``, kept in ``memo[slot]`` under the stack's
    bytes and returned again while the next call's stack has the same bytes (a slot's rows
    have one width, so stacks of other heights never share a key)."""
    key = coefficients.tobytes()
    kept = memo.get(slot)
    if kept is None or kept[0] != key:
        memo[slot] = kept = key, compute()
    return kept[1]


def _zip_grad(beta, gamma, d: Prepared) -> np.ndarray:
    from scipy.special import expit
    z = d.zeros
    # each half, with its zero rows, depends on its own coefficients only: a point that
    # moves only beta keeps the gamma half, and one that moves only gamma the beta half
    lam, lam_z, one_minus_e = _recall(d.memo, "beta", beta, lambda: (
        lam := np.exp(_products(d.X, beta)), lam_z := lam.take(z, axis=1), -np.expm1(-lam_z)))
    p, psi_z, one_minus_p = _recall(d.memo, "gamma", gamma, lambda: (
        p := expit(psi := _products(d.Z, gamma)), psi.take(z, axis=1), 1.0 - p.take(z, axis=1)))
    # y>0 gives (y - lambda) for beta and -p for gamma, computed on every row; the zero
    # rows are then overwritten with -lambda * (1-p)e^{-lam}/D and p(1-p)(1-e^{-lam})/D
    w_beta, w_gamma = d.y - lam, -p
    w_beta[:, z] = -lam_z * expit(-(psi_z + lam_z))
    w_gamma[:, z] = one_minus_p * one_minus_e * expit(psi_z + lam_z)
    return np.concatenate([_products(d.X.T, w_beta), _products(d.Z.T, w_gamma)], axis=1)


def _logit_predict(beta, gamma, X, Z) -> np.ndarray:
    from scipy.special import expit
    return expit(X @ beta)


def _zip_predict(beta, gamma, X, Z) -> ZipPrediction:
    from scipy.special import expit
    lam = np.exp(X @ beta)
    p = expit(Z @ gamma)
    return ZipPrediction(mean=(1.0 - p) * lam, inflation_probability=p)


@dataclass(frozen=True)
class FamilyModel:
    """Everything that differs between the families, stated once per family.

    The unchecked cores ``loglik(beta, gamma, prepared)``, ``grad`` and
    ``predict(beta, gamma, X, Z)`` trust their inputs.  ``grad`` is stacked: it
    takes m points as coefficient rows, beta (m, kx) and gamma (m, kz), and
    returns their (m, k) scores, in beta and then gamma; one point is the
    m = 1 call.  gamma and Z are None unless ``inflated``.
    """

    loglik: Callable[..., float]
    grad: Callable[..., np.ndarray]
    predict: Callable
    binary: bool = False  # outcome is 0/1 (count > 0), and every coefficient starts at 0
    inflated: bool = False  # takes an inflation design Z and coefficients gamma

    def prepare(self, X, Z, y) -> Prepared:
        """Check the designs and the outcome once and derive what the cores need."""
        from scipy.special import gammaln
        Xv, Zv = _design(X), _design(Z) if self.inflated else None
        y = _column(y, "outcome", np.float64)
        if y.ndim != 1:
            raise DimensionMismatch("outcome must be one-dimensional")
        for D in (Xv, Zv):
            if D is not None and y.shape[0] != D.shape[0]:
                raise DimensionMismatch(
                    f"outcome length {y.shape[0]} does not match design rows {D.shape[0]}"
                )
        if self.binary and not np.all((y == 0) | (y == 1)):
            raise DomainError("logit outcome must be a 0/1 vector")
        if not self.binary and (np.any(y < 0) or np.any(y != np.round(y))):
            raise NegativeCount()
        return Prepared(Xv, Zv, y, np.flatnonzero(y == 0), gammaln(y + 1.0), {})

    def initial_values(self, counts: np.ndarray, X: DesignMatrix, Z, add_intercept: bool):
        """Zeros; with an intercept, log(mean count + 0.01) for a count model's and
        the logit of the zero fraction, clamped to [0.01, 0.99], for the inflation one."""
        init = np.zeros(X.k + (Z.k if self.inflated else 0))
        if add_intercept and not self.binary:
            init[0] = float(np.log(counts.mean() + 0.01))
        if add_intercept and self.inflated:
            q = float(np.clip(np.mean(counts == 0), 0.01, 0.99))
            init[X.k] = float(np.log(q / (1.0 - q)))
        return init

    def names(self, X: DesignMatrix, Z) -> tuple[str, ...]:
        inflation = tuple(INFLATE_PREFIX + c for c in Z.column_names) if self.inflated else ()
        return X.column_names + inflation


FAMILIES = {
    Family.LOGIT: FamilyModel(_logit_loglik, _logit_grad, _logit_predict, binary=True),
    Family.POISSON: FamilyModel(_poisson_loglik, _poisson_grad, lambda b, g, X, Z: np.exp(X @ b)),
    Family.ZIP: FamilyModel(_zip_loglik, _zip_grad, _zip_predict, inflated=True),
}


def _family_model(family) -> FamilyModel:
    """The ``FAMILIES`` entry of a family or its name; any other value raises ``InvalidSpec``."""
    try:
        return FAMILIES[Family(family)]
    except ValueError:
        raise InvalidSpec(f"family must be one of {_FAMILY_NAMES}, got {family!r}") from None


def _checked(family, core: str, beta, gamma, X, Z, y):
    """Prepare the family's data, check the coefficients, then run one core."""
    entry = _family_model(family)
    data = entry.prepare(X, Z, y)
    beta, gamma = _coefficients(beta, gamma, data.X, data.Z)
    if core == "grad":  # the one point as a stack of one row
        return entry.grad(beta[None], None if gamma is None else gamma[None], data)[0]
    return entry.loglik(beta, gamma, data)


def logit_loglik(beta, X, y01) -> float:
    """Bernoulli log-likelihood with logistic link.

    Returns sum_i [ y_i log sigma(x_i'beta) + (1-y_i) log(1-sigma(x_i'beta)) ].
    """
    return _checked(Family.LOGIT, "loglik", beta, None, X, None, y01)


def logit_grad(beta, X, y01) -> np.ndarray:
    """Score of :func:`logit_loglik`: X'(y - sigma(X beta))."""
    return _checked(Family.LOGIT, "grad", beta, None, X, None, y01)


def poisson_loglik(beta, X, y) -> float:
    """Poisson log-likelihood with log link lambda_i = exp(x_i'beta).

    log(y!) is evaluated through the log-gamma function so large counts
    cannot overflow.
    """
    return _checked(Family.POISSON, "loglik", beta, None, X, None, y)


def poisson_grad(beta, X, y) -> np.ndarray:
    """Score of :func:`poisson_loglik`: X'(y - lambda)."""
    return _checked(Family.POISSON, "grad", beta, None, X, None, y)


def _check_zip_parameters(p, lam) -> None:
    """Refuse (``DomainError``) a p not a number within [0, 1] or a lambda not a number > 0."""
    if not (is_number(p) and 0.0 <= p <= 1.0):
        raise DomainError(f"mixing probability p must be a number within [0, 1], got {p!r}")
    if not (is_number(lam) and lam > 0.0):
        raise DomainError(f"lambda must be a number > 0, got {lam!r}")


def zip_pmf(p: float, lam: float, y) -> float | np.ndarray:
    """Zero-inflated Poisson probability mass at y.

    p + (1-p) * Poisson(0; lam) at zero, (1-p) * Poisson(y; lam) above.
    """
    from scipy.special import gammaln
    _check_zip_parameters(p, lam)
    y_arr = _column(y, "y", np.float64)
    if np.any(y_arr < 0) or np.any(y_arr != np.round(y_arr)):
        raise DomainError("y must be a nonnegative integer")
    poisson = np.exp(y_arr * np.log(lam) - lam - gammaln(y_arr + 1.0))
    out = np.where(y_arr == 0, p + (1.0 - p) * poisson, (1.0 - p) * poisson)
    if np.isscalar(y) or y_arr.ndim == 0:
        return float(out)
    return out


def zip_loglik(beta, gamma, X, Z, y) -> float:
    """Observed-data ZIP log-likelihood.

    sum_i log[ p_i 1(y_i = 0) + (1 - p_i) Poisson(y_i; lambda_i) ] with
    p_i = sigma(z_i'gamma) and lambda_i = exp(x_i'beta).  Writing
    p = e^psi / (1 + e^psi), the zero term reduces to

        logaddexp(psi, -lambda) - logaddexp(0, psi)

    which never underflows for p near 0 or 1.
    """
    return _checked(Family.ZIP, "loglik", beta, gamma, X, Z, y)


def zip_grad(beta, gamma, X, Z, y) -> np.ndarray:
    """Score of :func:`zip_loglik` for the stacked vector (beta, gamma).

    For zero observations the weights reduce to stable logistic forms:
    with D = p + (1-p)e^{-lambda},

        (1-p) e^{-lambda} / D = sigma(-(psi + lambda))
        p / D                 = sigma(psi + lambda)
    """
    return _checked(Family.ZIP, "grad", beta, gamma, X, Z, y)


def zip_moments(p: float, lam: float) -> tuple[float, float]:
    """Mean and variance of the ZIP(p, lambda) mixture.

    mean = (1-p) lambda, variance = (1-p) lambda (1 + p lambda); the
    variance exceeds the mean strictly whenever p > 0.
    """
    _check_zip_parameters(p, lam)
    mean = (1.0 - p) * lam
    variance = (1.0 - p) * lam * (1.0 + p * lam)
    return mean, variance


def loglik(family: Family, params: Params, X, Z=None, y=None) -> float:
    """Family-dispatched log-likelihood."""
    params = must_be(params, Params, "loglik: params")
    return _checked(family, "loglik", params.beta, params.gamma, X, Z, y)


def grad_loglik(family: Family, params: Params, X, Z=None, y=None) -> np.ndarray:
    """Analytic score of the family log-likelihood.

    Returned with respect to the concatenated parameter vector: beta,
    followed by gamma for ZIP.
    """
    params = must_be(params, Params, "grad_loglik: params")
    return _checked(family, "grad", params.beta, params.gamma, X, Z, y)


def predict(family: Family, params: Params, X, Z=None):
    """Per-row predictions.

    logit: P(y=1); poisson: lambda; zip: mixture mean (1-p) lambda with the
    structural-zero probability reported alongside.
    """
    entry = _family_model(family)
    params = must_be(params, Params, "predict: params")
    Xv, Zv = _design(X), _design(Z) if entry.inflated else None
    return entry.predict(*_coefficients(params.beta, params.gamma, Xv, Zv), Xv, Zv)
