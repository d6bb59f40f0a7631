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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np
from scipy.special import expit, gammaln

from .data import DesignMatrix
from .exceptions import DimensionMismatch, DomainError, InvalidSpec, NegativeCount


class Family(str, Enum):
    LOGIT = "logit"
    POISSON = "poisson"
    ZIP = "zip"


@dataclass(frozen=True)
class ModelSpec:
    """Model family plus covariate selections.

    ``count_covariates`` drive the count (or presence) component;
    ``inflation_covariates`` drive the ZIP structural-zero probability and
    default to the count set when left empty.
    """

    family: Family
    count_covariates: tuple[str, ...] = ()
    inflation_covariates: tuple[str, ...] = ()
    add_intercept: bool = True

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        object.__setattr__(self, "count_covariates", tuple(self.count_covariates))
        object.__setattr__(self, "inflation_covariates", tuple(self.inflation_covariates))
        if self.inflation_covariates and self.family is not Family.ZIP:
            raise InvalidSpec("inflation_covariates are only meaningful for the ZIP family")


@dataclass(frozen=True)
class Params:
    """Coefficient vectors: beta for the count component, gamma for inflation."""

    beta: np.ndarray
    gamma: np.ndarray | None = None

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=np.float64)
        if not np.all(np.isfinite(beta)):
            raise ValueError("beta contains non-finite entries")
        object.__setattr__(self, "beta", beta)
        if self.gamma is not None:
            gamma = np.asarray(self.gamma, dtype=np.float64)
            if not np.all(np.isfinite(gamma)):
                raise ValueError("gamma contains non-finite entries")
            object.__setattr__(self, "gamma", gamma)


class ZipPrediction(NamedTuple):
    """Per-row ZIP prediction: mixture mean and structural-zero probability."""

    mean: np.ndarray
    inflation_probability: np.ndarray


def _values(X) -> np.ndarray:
    if isinstance(X, DesignMatrix):
        return X.values
    return np.asarray(X, dtype=np.float64)


def _check_xy(X: np.ndarray, coef: np.ndarray, y: np.ndarray):
    if X.ndim != 2:
        raise DimensionMismatch("design matrix must be two-dimensional")
    if coef.ndim != 1 or coef.shape[0] != X.shape[1]:
        raise DimensionMismatch(
            f"coefficient length {coef.shape} does not match design width {X.shape[1]}"
        )
    if y.shape[0] != X.shape[0]:
        raise DimensionMismatch(
            f"outcome length {y.shape[0]} does not match design rows {X.shape[0]}"
        )


def _check_counts(y: np.ndarray):
    if np.any(y < 0) or np.any(y != np.round(y)):
        raise NegativeCount()


def log_sigmoid(t: np.ndarray) -> np.ndarray:
    """log sigma(t), computed without overflow for any finite t."""
    return -np.logaddexp(0.0, -np.asarray(t, dtype=np.float64))


def logit_loglik(beta, X, y01) -> float:
    """Bernoulli log-likelihood with logistic link.

    Returns sum_i [ y_i log sigma(x_i'beta) + (1-y_i) log(1-sigma(x_i'beta)) ].
    """
    Xv = _values(X)
    beta = np.asarray(beta, dtype=np.float64)
    y = np.asarray(y01)
    _check_xy(Xv, beta, y)
    if not np.all((y == 0) | (y == 1)):
        raise DomainError("logit outcome must be a 0/1 vector")
    eta = Xv @ beta
    # y=1 contributes log sigma(eta), y=0 contributes log sigma(-eta)
    signed = np.where(y == 1, eta, -eta)
    return float(np.sum(log_sigmoid(signed)))


def logit_grad(beta, X, y01) -> np.ndarray:
    """Score of :func:`logit_loglik`: X'(y - sigma(X beta))."""
    Xv = _values(X)
    beta = np.asarray(beta, dtype=np.float64)
    y = np.asarray(y01, dtype=np.float64)
    _check_xy(Xv, beta, y)
    return Xv.T @ (y - expit(Xv @ beta))


def poisson_loglik(beta, X, y) -> float:
    """Poisson log-likelihood with log link lambda_i = exp(x_i'beta).

    log(y!) is evaluated through the log-gamma function so large counts
    cannot overflow.
    """
    Xv = _values(X)
    beta = np.asarray(beta, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_xy(Xv, beta, y)
    _check_counts(y)
    eta = Xv @ beta
    return float(np.sum(-np.exp(eta) + y * eta - gammaln(y + 1.0)))


def poisson_grad(beta, X, y) -> np.ndarray:
    """Score of :func:`poisson_loglik`: X'(y - lambda)."""
    Xv = _values(X)
    beta = np.asarray(beta, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_xy(Xv, beta, y)
    _check_counts(y)
    return Xv.T @ (y - np.exp(Xv @ beta))


def zip_pmf(p: float, lam: float, y) -> float | np.ndarray:
    """Zero-inflated Poisson probability mass at y.

    p + (1-p) * Poisson(0; lam) at zero, (1-p) * Poisson(y; lam) above.
    """
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"mixing probability p={p} outside [0, 1]")
    if not lam > 0.0:
        raise DomainError(f"lambda={lam} must be positive")
    y_arr = np.asarray(y, dtype=np.float64)
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
    Xv, Zv = _values(X), _values(Z)
    beta = np.asarray(beta, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_xy(Xv, beta, y)
    _check_xy(Zv, gamma, y)
    _check_counts(y)
    eta = Xv @ beta
    lam = np.exp(eta)
    psi = Zv @ gamma
    zero = y == 0
    log_one_minus_p = -np.logaddexp(0.0, psi)
    terms = np.where(
        zero,
        np.logaddexp(psi, -lam) - np.logaddexp(0.0, psi),
        log_one_minus_p + y * eta - lam - gammaln(y + 1.0),
    )
    return float(np.sum(terms))


def zip_grad(beta, gamma, X, Z, y) -> np.ndarray:
    """Score of :func:`zip_loglik` for the stacked vector (beta, gamma).

    For zero observations the weights reduce to stable logistic forms:
    with D = p + (1-p)e^{-lambda},

        (1-p) e^{-lambda} / D = sigma(-(psi + lambda))
        p / D                 = sigma(psi + lambda)
    """
    Xv, Zv = _values(X), _values(Z)
    beta = np.asarray(beta, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_xy(Xv, beta, y)
    _check_xy(Zv, gamma, y)
    _check_counts(y)
    eta = Xv @ beta
    lam = np.exp(eta)
    psi = Zv @ gamma
    p = expit(psi)
    zero = y == 0

    # beta weights: y>0 gives (y - lambda); y=0 gives -lambda * (1-p)e^{-lam}/D
    w_beta = np.where(zero, -lam * expit(-(psi + lam)), y - lam)
    # gamma weights: y>0 gives -p; y=0 gives p(1-p)(1-e^{-lam})/D
    w_gamma = np.where(zero, (1.0 - p) * (-np.expm1(-lam)) * expit(psi + lam), -p)
    return np.concatenate([Xv.T @ w_beta, Zv.T @ w_gamma])


def zip_moments(p: float, lam: float) -> tuple[float, float]:
    """Mean and variance of the ZIP(p, lambda) mixture.

    mean = (1-p) lambda, variance = (1-p) lambda (1 + p lambda); the
    variance exceeds the mean strictly whenever p > 0.
    """
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"mixing probability p={p} outside [0, 1]")
    if not lam > 0.0:
        raise DomainError(f"lambda={lam} must be positive")
    mean = (1.0 - p) * lam
    variance = (1.0 - p) * lam * (1.0 + p * lam)
    return mean, variance


def _zip_predict(beta, gamma, X, Z) -> ZipPrediction:
    Zv = _values(Z)
    if gamma.shape[0] != Zv.shape[1]:
        raise DimensionMismatch("gamma length does not match inflation design width")
    lam = np.exp(_values(X) @ beta)
    p = expit(Zv @ gamma)
    return ZipPrediction(mean=(1.0 - p) * lam, inflation_probability=p)


# family -> (loglik, grad, predict); the ZIP entries also take gamma and Z.
_FAMILIES = {
    Family.LOGIT: (logit_loglik, logit_grad, lambda beta, X: expit(_values(X) @ beta)),
    Family.POISSON: (poisson_loglik, poisson_grad, lambda beta, X: np.exp(_values(X) @ beta)),
    Family.ZIP: (zip_loglik, zip_grad, _zip_predict),
}


def _dispatch(family: Family, params: Params, X, Z):
    """The family's table entry and the leading arguments its functions take."""
    family = Family(family)
    if family is not Family.ZIP:
        return _FAMILIES[family], (params.beta, X)
    if params.gamma is None or Z is None:
        raise DimensionMismatch("ZIP requires gamma and an inflation design matrix")
    return _FAMILIES[family], (params.beta, params.gamma, X, Z)


def loglik(family: Family, params: Params, X, Z=None, y=None) -> float:
    """Family-dispatched log-likelihood."""
    (kernel, _, _), args = _dispatch(family, params, X, Z)
    return kernel(*args, y)


def grad_loglik(family: Family, params: Params, X, Z=None, y=None) -> np.ndarray:
    """Analytic score of the family log-likelihood.

    Returned with respect to the concatenated parameter vector: beta,
    followed by gamma for ZIP.
    """
    (_, kernel, _), args = _dispatch(family, params, X, Z)
    return kernel(*args, y)


def predict(family: Family, params: Params, X, Z=None):
    """Per-row predictions.

    logit: P(y=1); poisson: lambda; zip: mixture mean (1-p) lambda with the
    structural-zero probability reported alongside.
    """
    (_, _, kernel), args = _dispatch(family, params, X, Z)
    if params.beta.shape[0] != _values(X).shape[1]:
        raise DimensionMismatch("beta length does not match design width")
    return kernel(*args)
