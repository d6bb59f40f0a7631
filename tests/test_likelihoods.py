"""Likelihood, score, and moment tests for the three model families.

Expected values come from independent oracles: closed-form evaluation,
scipy.stats.poisson for mass functions, central finite differences of the
log-likelihood for scores, and Monte Carlo for mixture moments.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import expit, gammaln

from geocount import (
    Family,
    ModelSpec,
    Params,
    grad_loglik,
    loglik,
    logit_loglik,
    poisson_loglik,
    predict,
    zip_loglik,
    zip_moments,
    zip_pmf,
)
from geocount.exceptions import DimensionMismatch, DomainError, InvalidSpec, NegativeCount
from geocount.likelihoods import FAMILIES, _products, logit_grad, poisson_grad, zip_grad


def fd_gradient(f, theta, h=1e-6):
    """Central finite differences of a scalar function (independent oracle)."""
    theta = np.asarray(theta, dtype=float)
    g = np.empty_like(theta)
    for j in range(theta.size):
        up, dn = theta.copy(), theta.copy()
        up[j] += h
        dn[j] -= h
        g[j] = (f(up) - f(dn)) / (2.0 * h)
    return g


def random_instance(rng, family):
    """Small random dataset on standardized covariates plus true-ish params."""
    n = int(rng.integers(5, 30))
    k = int(rng.integers(1, 4))
    X = np.column_stack([np.ones(n), rng.standard_normal((n, k))])
    beta = rng.uniform(-1.0, 1.0, size=k + 1)
    if family == "logit":
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-X @ beta))).astype(float)
        return X, None, y, beta, None
    lam = np.exp(X @ beta)
    if family == "poisson":
        return X, None, rng.poisson(lam).astype(float), beta, None
    Z = np.column_stack([np.ones(n), rng.standard_normal((n, k))])
    gamma = rng.uniform(-1.0, 1.0, size=k + 1)
    p = 1.0 / (1.0 + np.exp(-(Z @ gamma)))
    y = np.where(rng.random(n) < p, 0.0, rng.poisson(lam)).astype(float)
    return X, Z, y, beta, gamma


class TestLogitLoglik:
    def test_zero_beta_symmetry(self):
        X = np.ones((4, 1))
        y = np.array([1, 0, 1, 0])
        assert logit_loglik(np.zeros(1), X, y) == pytest.approx(4 * math.log(0.5), abs=1e-12)

    def test_closed_form_single_obs(self):
        # sigma(ln 3) = 0.75
        value = logit_loglik(np.array([math.log(3.0)]), np.array([[1.0]]), np.array([1]))
        assert value == pytest.approx(math.log(0.75), abs=1e-12)

    def test_monotone_and_bounded_for_all_ones(self):
        X = np.ones((6, 1))
        y = np.ones(6)
        values = [logit_loglik(np.array([b]), X, y) for b in [-2.0, 0.0, 2.0, 10.0, 100.0]]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v <= 0.0 for v in values)

    def test_no_overflow_at_extreme_linear_predictor(self):
        X = np.array([[1.0], [-1.0]])
        y = np.array([1, 0])
        value = logit_loglik(np.array([1e4]), X, y)
        assert math.isfinite(value)
        assert value == pytest.approx(0.0, abs=1e-12)
        value = logit_loglik(np.array([-1e4]), X, y)
        assert math.isfinite(value)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            logit_loglik(np.zeros(2), np.ones((3, 1)), np.array([1, 0, 1]))

    def test_non_binary_outcome(self):
        with pytest.raises(DomainError):
            logit_loglik(np.zeros(1), np.ones((2, 1)), np.array([0, 2]))


class TestPoissonLoglik:
    def test_zero_beta_all_zero_counts(self):
        X = np.ones((2, 1))
        assert poisson_loglik(np.zeros(1), X, np.zeros(2)) == pytest.approx(-2.0, abs=1e-12)

    def test_single_obs_matches_pmf_oracle(self):
        value = poisson_loglik(np.array([math.log(2.0)]), np.array([[1.0]]), np.array([3]))
        assert value == pytest.approx(stats.poisson.logpmf(3, 2.0), abs=1e-10)

    def test_matches_pmf_oracle_random(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            X, _, y, beta, _ = random_instance(rng, "poisson")
            expected = stats.poisson.logpmf(y, np.exp(X @ beta)).sum()
            assert poisson_loglik(beta, X, y) == pytest.approx(expected, rel=1e-10)

    def test_mean_variance_restriction_on_simulated_data(self):
        # Var(y|x) = E(y|x) = lambda: constant-lambda draws have mean ~ variance
        rng = np.random.default_rng(2)
        y = rng.poisson(3.1, size=200_000).astype(float)
        assert y.mean() == pytest.approx(y.var(), rel=0.02)

    @pytest.mark.parametrize("y", [[1, -1], [2.0000000001, 1.0]], ids=["negative", "non-integer"])
    def test_negative_count(self, y):
        with pytest.raises(NegativeCount):
            poisson_loglik(np.zeros(1), np.ones((2, 1)), np.array(y))

    def test_large_count_uses_log_gamma(self):
        value = poisson_loglik(np.array([math.log(5.0)]), np.array([[1.0]]), np.array([400]))
        assert math.isfinite(value)
        assert value == pytest.approx(stats.poisson.logpmf(400, 5.0), rel=1e-12)


class TestZipPmf:
    def test_reduces_to_poisson_at_p_zero(self):
        for lam in [0.3, 1.0, 7.5]:
            for y in range(12):
                assert zip_pmf(0.0, lam, y) == pytest.approx(
                    stats.poisson.pmf(y, lam), abs=1e-14
                )

    def test_degenerate_at_p_one(self):
        assert zip_pmf(1.0, 2.0, 0) == pytest.approx(1.0, abs=1e-15)
        for y in range(1, 6):
            assert zip_pmf(1.0, 2.0, y) == pytest.approx(0.0, abs=1e-15)

    def test_half_mixture_closed_form(self):
        assert zip_pmf(0.5, 1.0, 0) == pytest.approx(0.5 + 0.5 * math.exp(-1.0), abs=1e-14)

    def test_sums_to_one_over_grid(self):
        # tail above y=200 is < 1e-12 for lambda <= 20
        y = np.arange(201)
        for p in np.linspace(0.0, 1.0, 11):
            for lam in np.linspace(0.25, 20.0, 12):
                total = zip_pmf(float(p), float(lam), y).sum()
                assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "p,lam,y",
        [(-0.1, 1.0, 0), (1.1, 1.0, 0), (0.5, 0.0, 0), (0.5, -2.0, 0), (0.5, 1.0, 2.0000000001)],
        ids=["-0.1-1.0", "1.1-1.0", "0.5-0.0", "0.5--2.0", "non-integer-y"],
    )
    def test_domain_errors(self, p, lam, y):
        with pytest.raises(DomainError):
            zip_pmf(p, lam, y)

    @pytest.mark.parametrize(
        "p, lam, y, error",
        [
            ("0.5", 1.0, 0, DomainError),
            (0.5, "1.0", 0, DomainError),
            (True, 1.0, 0, DomainError),
            (0.5, 1.0, "a", InvalidSpec),
            (0.5, 1.0, [True, False], InvalidSpec),
            (0.5, 1.0, [0, 2**70], InvalidSpec),
            (0.5, 1.0, [[0, 1], [2]], InvalidSpec),
        ],
        ids=["p-string", "lambda-string", "p-bool", "y-string", "y-bools", "y-beyond-int64",
             "y-ragged"],
    )
    def test_arguments_that_are_not_numbers(self, p, lam, y, error):
        with pytest.raises(error):
            zip_pmf(p, lam, y)


class TestZipLoglik:
    def test_reduces_to_poisson_at_gamma_minus_40(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            X, _, y, beta, _ = random_instance(rng, "poisson")
            Z = np.ones((len(y), 1))
            zip_value = zip_loglik(beta, np.array([-40.0]), X, Z, y)
            assert zip_value == pytest.approx(poisson_loglik(beta, X, y), abs=1e-10)

    def test_single_zero_obs_matches_pmf_oracle(self):
        # p = 0.5, lambda = 1, y = 0: log(0.5 + 0.5 e^{-1})
        value = zip_loglik(
            np.array([0.0]), np.array([0.0]), np.array([[1.0]]), np.array([[1.0]]), np.array([0])
        )
        assert value == pytest.approx(math.log(0.5 + 0.5 * math.exp(-1.0)), abs=1e-12)

    def test_two_term_example(self):
        # p = 0.25, lambda = 2, y = [0, 2]
        beta = np.array([math.log(2.0)])
        gamma = np.array([math.log(0.25 / 0.75)])
        X = np.ones((2, 1))
        expected = math.log(0.25 + 0.75 * math.exp(-2.0)) + math.log(
            0.75 * math.exp(-2.0) * 2.0
        )
        assert zip_loglik(beta, gamma, X, X, np.array([0, 2])) == pytest.approx(
            expected, abs=1e-12
        )

    def test_matches_pmf_oracle_random(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            X, Z, y, beta, gamma = random_instance(rng, "zip")
            lam = np.exp(X @ beta)
            p = 1.0 / (1.0 + np.exp(-(Z @ gamma)))
            expected = sum(
                math.log(
                    (pi if yi == 0 else 0.0) + (1 - pi) * stats.poisson.pmf(yi, li)
                )
                for yi, pi, li in zip(y, p, lam)
            )
            assert zip_loglik(beta, gamma, X, Z, y) == pytest.approx(expected, rel=1e-9)

    def test_extreme_inflation_is_finite(self):
        X = np.ones((3, 1))
        y = np.array([0, 0, 0])
        for g in [-500.0, 500.0]:
            assert math.isfinite(zip_loglik(np.array([0.0]), np.array([g]), X, X, y))

    def test_reorder_invariance(self):
        rng = np.random.default_rng(6)
        X, Z, y, beta, gamma = random_instance(rng, "zip")
        base = zip_loglik(beta, gamma, X, Z, y)
        for _ in range(5):
            perm = rng.permutation(len(y))
            assert zip_loglik(beta, gamma, X[perm], Z[perm], y[perm]) == pytest.approx(
                base, abs=1e-9
            )

    @pytest.mark.parametrize("family", ["logit", "poisson"])
    def test_reorder_invariance_other_families(self, family):
        rng = np.random.default_rng(60)
        X, _, y, beta, _ = random_instance(rng, family)
        ll = logit_loglik if family == "logit" else poisson_loglik
        base = ll(beta, X, y)
        for _ in range(5):
            perm = rng.permutation(len(y))
            assert ll(beta, X[perm], y[perm]) == pytest.approx(base, abs=1e-9)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: poisson_loglik(np.zeros(2), np.ones((3, 1)), np.zeros(3)),
            lambda: zip_loglik(np.zeros(1), np.zeros(1), np.ones((3, 1)), np.ones((2, 1)), np.zeros(3)),
            lambda: zip_loglik(np.zeros(1), np.zeros(2), np.ones((3, 1)), np.ones((3, 1)), np.zeros(3)),
            # no gamma for Z; without its own check, the coefficient parse raises InvalidSpec
            lambda: zip_loglik(np.zeros(1), None, np.ones((3, 1)), np.ones((3, 1)), np.zeros(3)),
        ],
    )
    def test_dimension_mismatches(self, call):
        with pytest.raises(DimensionMismatch):
            call()


class TestZipMoments:
    def test_poisson_reduction(self):
        assert zip_moments(0.0, 3.0) == (3.0, 3.0)

    def test_degenerate(self):
        assert zip_moments(1.0, 5.0) == (0.0, 0.0)

    def test_closed_form(self):
        mean, var = zip_moments(0.3, 2.0)
        assert mean == pytest.approx(1.4, abs=1e-15)
        assert var == pytest.approx(2.24, abs=1e-15)

    def test_monte_carlo_oracle(self):
        # 1e6 mixture draws; tolerance 3 MC standard errors of each estimator
        rng = np.random.default_rng(7)
        n = 1_000_000
        p, lam = 0.3, 2.0
        draws = rng.poisson(lam, size=n).astype(float)
        draws[rng.random(n) < p] = 0.0
        mean, var = zip_moments(p, lam)
        se_mean = draws.std(ddof=1) / math.sqrt(n)
        centered = draws - draws.mean()
        m4 = np.mean(centered**4)
        s2 = draws.var(ddof=1)
        se_var = math.sqrt(max(m4 - s2**2, 0.0) / n)
        assert abs(draws.mean() - mean) < 3 * se_mean
        assert abs(s2 - var) < 3 * se_var

    def test_strict_overdispersion_when_p_positive(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            p = float(rng.uniform(1e-6, 1.0))
            lam = float(rng.uniform(1e-3, 20.0))
            mean, var = zip_moments(p, lam)
            assert var > mean

    def test_variance_equals_mean_iff_p_zero(self):
        mean, var = zip_moments(0.0, 4.2)
        assert var == mean

    def test_domain_error(self):
        with pytest.raises(DomainError):
            zip_moments(1.5, 1.0)

    @pytest.mark.parametrize("p, lam", [([0.5], 1.0), (0.5, "2"), (np.array([0.5]), 1.0)])
    def test_arguments_that_are_not_numbers(self, p, lam):
        with pytest.raises(DomainError, match="must be a number"):
            zip_moments(p, lam)


class TestGradLoglik:
    def test_logit_balanced_zero_gradient(self):
        X = np.ones((8, 1))
        y = np.array([1, 1, 1, 1, 0, 0, 0, 0])
        g = grad_loglik(Family.LOGIT, Params(beta=np.zeros(1)), X, y=y)
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    @pytest.mark.parametrize("family", ["logit", "poisson", "zip"])
    def test_matches_finite_differences(self, family):
        rng = np.random.default_rng(9)
        for _ in range(25):
            X, Z, y, beta, gamma = random_instance(rng, family)
            if family == "zip":
                params = Params(beta=beta, gamma=gamma)
                kx = beta.size
                analytic = grad_loglik(Family.ZIP, params, X, Z, y)
                f = lambda th: zip_loglik(th[:kx], th[kx:], X, Z, y)
                numeric = fd_gradient(f, np.concatenate([beta, gamma]))
            elif family == "poisson":
                analytic = grad_loglik(Family.POISSON, Params(beta=beta), X, y=y)
                numeric = fd_gradient(lambda th: poisson_loglik(th, X, y), beta)
            else:
                analytic = grad_loglik(Family.LOGIT, Params(beta=beta), X, y=y)
                numeric = fd_gradient(lambda th: logit_loglik(th, X, y), beta)
            err = np.linalg.norm(analytic - numeric) / max(1.0, np.linalg.norm(numeric))
            assert err <= 1e-5

    def test_zip_gradient_stable_at_extreme_inflation(self):
        X = np.ones((4, 1))
        y = np.array([0, 0, 1, 2])
        for g0 in [-200.0, 200.0]:
            g = grad_loglik(
                Family.ZIP, Params(beta=np.array([0.5]), gamma=np.array([g0])), X, X, y
            )
            assert np.all(np.isfinite(g))


class TestPredict:
    def test_logit_zero_beta(self):
        p = predict(Family.LOGIT, Params(beta=np.zeros(2)), np.column_stack([np.ones(3), np.arange(3.0)]))
        np.testing.assert_allclose(p, 0.5)

    def test_poisson_intercept_only(self):
        lam = predict(Family.POISSON, Params(beta=np.array([math.log(2.0)])), np.ones((4, 1)))
        np.testing.assert_allclose(lam, 2.0)

    def test_zip_mean_matches_moments(self):
        # p = 0.5, lambda = 4 -> mean 2
        params = Params(beta=np.array([math.log(4.0)]), gamma=np.array([0.0]))
        pred = predict(Family.ZIP, params, np.ones((3, 1)), np.ones((3, 1)))
        expected_mean, _ = zip_moments(0.5, 4.0)
        np.testing.assert_allclose(pred.mean, expected_mean, rtol=1e-12)
        np.testing.assert_allclose(pred.inflation_probability, 0.5, rtol=1e-12)


class TestModelSpec:
    def test_inflation_requires_zip(self):
        with pytest.raises(ValueError):
            ModelSpec(family=Family.POISSON, inflation_covariates=("x",))

    def test_zip_allows_inflation(self):
        spec = ModelSpec(family="zip", count_covariates=("a",), inflation_covariates=("b",))
        assert spec.family is Family.ZIP

    def test_unknown_family(self):
        with pytest.raises(InvalidSpec, match="ModelSpec family must be one of"):
            ModelSpec(family="foo")

    def test_family_array_is_refused(self):
        # an array is not compared with each family name, which numpy cannot make a bool
        with pytest.raises(InvalidSpec, match="ModelSpec family must be one of"):
            ModelSpec(family=np.array(["zip", "zip"]))

    @pytest.mark.parametrize("field", ["count_covariates", "inflation_covariates"])
    @pytest.mark.parametrize(
        "names, message",
        [("ab", " must be a list of names"), (None, " must be a list of names"),
         (("a", 1), "[1] must be a string, got 1")],
        ids=["string", "none", "number"],
    )
    def test_covariates_must_be_a_list_of_names(self, field, names, message):
        with pytest.raises(InvalidSpec, match=re.escape(f"ModelSpec {field}{message}")):
            ModelSpec(family="zip", **{field: names})

    @pytest.mark.parametrize("flag", ["no", 1, None])
    def test_add_intercept_must_be_true_or_false(self, flag):
        with pytest.raises(InvalidSpec, match="ModelSpec add_intercept must be true or false"):
            ModelSpec(family="poisson", add_intercept=flag)


class TestDispatch:
    def test_loglik_matches_direct(self):
        rng = np.random.default_rng(10)
        X, Z, y, beta, gamma = random_instance(rng, "zip")
        params = Params(beta=beta, gamma=gamma)
        assert loglik(Family.ZIP, params, X, Z, y) == zip_loglik(beta, gamma, X, Z, y)

    def test_zip_requires_gamma(self):
        with pytest.raises(DimensionMismatch):
            loglik(Family.ZIP, Params(beta=np.zeros(1)), np.ones((2, 1)), y=np.zeros(2))

    @pytest.mark.parametrize("family", ["nb", None, ["logit"]])
    @pytest.mark.parametrize("call", [loglik, grad_loglik, predict], ids=lambda f: f.__name__)
    def test_unknown_family_is_invalid_spec(self, call, family):
        message = f"family must be one of ['logit', 'poisson', 'zip'], got {family!r}"
        with pytest.raises(InvalidSpec, match=re.escape(message)):
            call(family, Params(beta=np.zeros(1)), np.ones((2, 1)))


class TestParams:
    @pytest.mark.parametrize(
        "kwargs", [{"beta": [0.0, math.nan]}, {"beta": [0.0], "gamma": [math.inf]}]
    )
    def test_non_finite_coefficients(self, kwargs):
        with pytest.raises(InvalidSpec):
            Params(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [({"beta": ["1"]}, "beta[0] must be a number, got '1'"),
         ({"beta": [True]}, "beta[0] must be a number, got True"),
         ({"beta": [0.5, True]}, "beta[1] must be a number, got True"),
         ({"beta": [0.0], "gamma": ["1"]}, "gamma[0] must be a number, got '1'")],
        ids=["string", "bool", "bool-among-numbers", "gamma-string"],
    )
    def test_strings_and_bools_are_refused(self, kwargs, message):
        with pytest.raises(InvalidSpec, match=re.escape(f"Params {message}")):
            Params(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [({"beta": 1.0}, "beta must be finite numbers"),
         ({"beta": [[1.0]]}, "beta[0] must be a number, got [1.0]"),
         ({"beta": np.zeros((1, 1))}, "beta must be finite numbers"),
         ({"beta": [0.0], "gamma": 1}, "gamma must be finite numbers")],
        ids=["number", "nested-list", "2-d-array", "gamma-number"],
    )
    def test_coefficients_must_be_one_dimensional(self, kwargs, message):
        with pytest.raises(InvalidSpec, match=re.escape(f"Params {message}")):
            Params(**kwargs)


def stack(coefficients, m=1):
    """``coefficients`` as a stack of m rows scaled 1, 1.1, 1.2, ...; None stays None."""
    if coefficients is None:
        return None
    return coefficients * (1.0 + 0.1 * np.arange(m))[:, None]


class TestKernelsAreCheckedCores:
    """Each public function is its family's table core on the prepared inputs."""

    KERNELS = {
        "logit": (logit_loglik, logit_grad),
        "poisson": (poisson_loglik, poisson_grad),
        "zip": (zip_loglik, zip_grad),
    }

    @settings(max_examples=100, deadline=None)
    @given(family=st.sampled_from(["logit", "poisson", "zip"]), seed=st.integers(0, 2**32 - 1))
    def test_public_kernel_equals_core(self, family, seed):
        X, Z, y, beta, gamma = random_instance(np.random.default_rng(seed), family)
        entry = FAMILIES[Family(family)]
        data = entry.prepare(X, Z, y)
        value = entry.loglik(beta, gamma, data)
        score = entry.grad(stack(beta), stack(gamma), data)[0]

        kernel_loglik, kernel_grad = self.KERNELS[family]
        args = (beta, gamma, X, Z, y) if family == "zip" else (beta, X, y)
        assert kernel_loglik(*args) == value
        assert np.array_equal(kernel_grad(*args), score)

        params = Params(beta=beta, gamma=gamma)
        assert loglik(family, params, X, Z, y) == value
        assert np.array_equal(grad_loglik(family, params, X, Z, y), score)
        expected = entry.predict(beta, gamma, X, Z)
        assert np.array_equal(np.asarray(predict(family, params, X, Z)), np.asarray(expected))


# The kernels' arithmetic as it was written before the family table, one
# function per kernel, without the input checks.  The cores must keep every
# floating-point operation, so the two agree bit for bit.


def arithmetic_oracle(family, beta, gamma, X, Z, y):
    """(loglik, score) evaluated as the pre-table kernels did."""
    eta = X @ beta
    if family == "logit":
        signed = np.where(y == 1, eta, -eta)
        return float(np.sum(-np.logaddexp(0.0, -signed))), X.T @ (y - expit(eta))
    if family == "poisson":
        value = float(np.sum(-np.exp(eta) + y * eta - gammaln(y + 1.0)))
        return value, X.T @ (y - np.exp(eta))
    lam = np.exp(eta)
    psi = Z @ gamma
    zero = y == 0
    terms = np.where(
        zero,
        np.logaddexp(psi, -lam) - np.logaddexp(0.0, psi),
        -np.logaddexp(0.0, psi) + y * eta - lam - gammaln(y + 1.0),
    )
    p = expit(psi)
    w_beta = np.where(zero, -lam * expit(-(psi + lam)), y - lam)
    w_gamma = np.where(zero, (1.0 - p) * (-np.expm1(-lam)) * expit(psi + lam), -p)
    return float(np.sum(terms)), np.concatenate([X.T @ w_beta, Z.T @ w_gamma])


class TestCoresKeepTheArithmetic:
    @settings(max_examples=100, deadline=None)
    @given(
        family=st.sampled_from(["logit", "poisson", "zip"]),
        scale=st.sampled_from([1.0, 8.0, 40.0]),  # 40 reaches |x'beta| of a few hundred
        rows=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_cores_equal_the_pre_table_kernels(self, family, scale, rows, seed):
        X, Z, y, beta, gamma = random_instance(np.random.default_rng(seed), family)
        beta = beta * scale
        entry = FAMILIES[Family(family)]
        data = entry.prepare(X, Z, y)
        value, score = arithmetic_oracle(family, beta, gamma, X, Z, y)
        # exact comparison; an overflow to inf or NaN must match too
        np.testing.assert_array_equal(entry.loglik(beta, gamma, data), value)
        # each row of a stacked score call is the one-point score at that row
        betas, gammas = stack(beta, rows), stack(gamma, rows)
        scores = entry.grad(betas, gammas, data)
        assert scores.shape == (rows, X.shape[1] + (0 if Z is None else Z.shape[1]))
        for r in range(rows):
            point = (betas[r], None if gamma is None else gammas[r])
            np.testing.assert_array_equal(scores[r], arithmetic_oracle(family, *point, X, Z, y)[1])
        np.testing.assert_array_equal(scores[0], score)


class TestEntryPointInputs:
    """A design, outcome or coefficient list numpy cannot read as float numbers is
    refused, never converted."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: logit_loglik([0.1], [[1.0], [1.0, 2.0]], [0, 1]),
             "design matrix must be a rectangular array, got [[1.0], [1.0, 2.0]]"),
            (lambda: logit_loglik([0.1], "ab", [0, 1]),
             "design matrix must be float64 values, got <U2"),
            (lambda: logit_loglik([0.1], [[1.0], [2.0]], ["0", "1"]),
             "outcome must be float64 values, got <U1"),
            (lambda: poisson_loglik([0.1], [[1.0], [2.0]], [[1, 2], [3]]),
             "outcome must be a rectangular array, got [[1, 2], [3]]"),
            (lambda: logit_loglik(["0.1"], [[1.0]], [1]),
             "coefficients must be float64 values, got <U3"),
            (lambda: logit_loglik([0.1, [1]], [[1.0]], [1]),
             "coefficients must be a rectangular array, got [0.1, [1]]"),
        ],
        ids=["ragged-design", "string-design", "string-outcome", "ragged-outcome",
             "string-coefficients", "ragged-coefficients"],
    )
    def test_unreadable_input_is_invalid_spec(self, call, message):
        with pytest.raises(InvalidSpec, match=re.escape(message)):
            call()

    @pytest.mark.parametrize(
        "call",
        [
            lambda: poisson_grad([0.1], [[1.0], [2.0]], [[1], [2]]),
            lambda: logit_loglik([0.1], [[1.0]], 1),
        ],
        ids=["column-outcome", "scalar-outcome"],
    )
    def test_outcome_that_is_not_one_dimensional(self, call):
        with pytest.raises(DimensionMismatch, match="outcome must be one-dimensional"):
            call()


class TestProductsAreOneProductPerRow:
    """Row r of ``_products(D, V)`` has the bytes of ``D @ V[r]``, for a design and for its
    transpose, on contiguous or strided rows: the oracle below uses ``_products`` itself, so
    this property is what ties its bits to plain matrix-vector products."""

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.one_of(st.integers(1, 70), st.integers(70, 3000)),
        k=st.integers(1, 6),
        m=st.integers(1, 5),
        transpose=st.booleans(),
        strided=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_row_is_its_own_product(self, n, k, m, transpose, strided, seed):
        rng = np.random.default_rng(seed)
        D = rng.standard_normal((n, k))
        D = D.T if transpose else D
        width = D.shape[1]
        V = rng.standard_normal((m, width + 2 * strided))[:, :width]
        got = _products(D, V)
        assert got.shape == (m, D.shape[0])
        for r in range(m):
            assert got[r].tobytes() == (D @ V[r]).tobytes()


# The ZIP cores as they were before each branch ran on its own rows and before the memo:
# both branches on every row, one kept by ``np.where``.  The cores must equal them byte for
# byte, on a fresh ``prepare`` or on one ``Prepared`` (and so one memo) reused across calls,
# in any order of calls.


def where_zip_loglik(beta, gamma, d):
    eta = d.X @ beta
    lam = np.exp(eta)
    psi = d.Z @ gamma
    log_one_minus_p = -np.logaddexp(0.0, psi)
    terms = np.where(
        d.y == 0,
        np.logaddexp(psi, -lam) + log_one_minus_p,
        log_one_minus_p + d.y * eta - lam - d.log_y_factorial,
    )
    return float(np.sum(terms))


def where_zip_grad(beta, gamma, d):
    lam = np.exp(_products(d.X, beta))
    psi = _products(d.Z, gamma)
    p = expit(psi)
    zero = d.y == 0
    w_beta = np.where(zero, -lam * expit(-(psi + lam)), d.y - lam)
    w_gamma = np.where(zero, (1.0 - p) * (-np.expm1(-lam)) * expit(psi + lam), -p)
    return np.concatenate([_products(d.X.T, w_beta), _products(d.Z.T, w_gamma)], axis=1)


@st.composite
def zip_counts(draw, n):
    """n counts with a drawn zero pattern, some of them large."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mean = draw(st.sampled_from([0.3, 2.0, 1e3, 1e9]))
    y = rng.poisson(mean, size=n).astype(float)
    pattern = draw(st.sampled_from(["mixed", "no zero", "one zero", "one positive"]))
    if pattern == "mixed":
        y[rng.random(n) < 0.5] = 0.0
    else:
        y = np.maximum(y, 1.0)
        if pattern == "one zero":
            y[draw(st.integers(0, n - 1))] = 0.0
        elif pattern == "one positive":
            y = np.where(np.arange(n) == draw(st.integers(0, n - 1)), y, 0.0)
    return y, pattern


class TestZipCoresMatchTheWhereOracle:
    """``_zip_grad`` and ``_zip_loglik`` equal the both-branches oracle byte for byte: on one
    row or a stack, and through a ``Prepared``'s memo whatever its calls hit or miss."""

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        n=st.one_of(st.integers(1, 70), st.integers(70, 5000)),
        kx=st.integers(1, 4),
        kz=st.integers(1, 3),
        scale=st.sampled_from([0.3, 1.0, 6.0, 40.0]),  # 40 overflows lambda to inf
        seed=st.integers(0, 2**32 - 1),
    )
    def test_cores_equal_the_oracle(self, data, n, kx, kz, scale, seed):
        rng = np.random.default_rng(seed)
        y, pattern = data.draw(zip_counts(n))
        entry = FAMILIES[Family.ZIP]
        X, Z = rng.standard_normal((n, kx)), rng.standard_normal((n, kz))
        d = entry.prepare(X, Z, y)
        k = kx + kz
        theta = scale * rng.standard_normal(k) / np.sqrt(k)
        event(pattern)
        with np.errstate(all="ignore"):
            got = entry.loglik(theta[:kx], theta[kx:], d)
            assert np.float64(got).tobytes() == np.float64(
                where_zip_loglik(theta[:kx], theta[kx:], d)).tobytes()

            # a stack of 1 to 2k rows: the points of an FD Hessian, in its order
            points = np.full((2, k, k), theta)
            points[0, np.arange(k), np.arange(k)] += 1e-5
            points[1, np.arange(k), np.arange(k)] -= 1e-5
            points = points.reshape(2 * k, k)
            rows = data.draw(st.integers(1, 2 * k), label="rows")
            reuse = data.draw(st.booleans(), label="one Prepared reused across the calls")
            stack_data = d if reuse else entry.prepare(X, Z, y)
            stacked = entry.grad(points[:rows, :kx], points[:rows, kx:], stack_data)
            assert stacked.tobytes() == where_zip_grad(points[:rows, :kx], points[:rows, kx:],
                                                       d).tobytes()

            # calls on one Prepared: the same point again, a point that moves one coordinate
            # of beta or of gamma, as an FD point does, or one of each; a stack of 2 to 2k
            # points, the last stack again (its copy, so the memo must match its bytes), or
            # one row equal to the last stack's first row (whose key must not match the
            # stack's); or the same point on a Prepared of other designs, with its own memo
            other = entry.prepare(rng.standard_normal((n, kx)), rng.standard_normal((n, kz)), y)
            beta, gamma = theta[:kx][None], theta[kx:][None]
            last = points
            kinds = ["same", "beta", "gamma", "both", "stack", "the same stack again",
                     "the last stack's first row", "other design"]
            moves = data.draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=10),
                              label="moves")
            for move in ["same", *moves]:
                event(f"memo call: {move}")
                if move in ("beta", "both"):
                    beta = beta + 1e-5 * (np.arange(kx) == rng.integers(kx))
                if move in ("gamma", "both"):
                    gamma = gamma + 1e-5 * (np.arange(kz) == rng.integers(kz))
                if move == "stack":
                    last = points[: rng.integers(2, 2 * k + 1)]
                b, g = beta, gamma
                if move in ("stack", "the same stack again"):
                    b, g = last[:, :kx].copy(), last[:, kx:].copy()
                elif move == "the last stack's first row":
                    b, g = last[:1, :kx].copy(), last[:1, kx:].copy()
                on = other if move == "other design" else d
                assert entry.grad(b, g, on).tobytes() == where_zip_grad(b, g, on).tobytes()
