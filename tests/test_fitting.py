"""Optimizer, fit, and Wald-inference tests.

Closed-form MLEs (intercept-only logit and Poisson), finite differences of
the log-likelihood itself, and fixed-seed Monte Carlo generation serve as
the independent oracles.
"""

import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from geocount import (
    CountyObservation,
    Dataset,
    Family,
    ModelSpec,
    OptimOptions,
    fit,
    maximize,
    predict,
    wald_inference,
)
from geocount import Params, binarize_counts, build_design
from geocount.fitting import INFLATE_PREFIX, _observed_covariance, _stars
from geocount.likelihoods import (
    logit_grad,
    logit_loglik,
    poisson_grad,
    poisson_loglik,
    zip_grad,
    zip_loglik,
)
from geocount.exceptions import (
    GeocountError,
    NonFiniteObjective,
    RankDeficientDesign,
    SeparationSuspected,
    ZeroStandardError,
)


def dataset_from_arrays(counts, columns=None, schema=()):
    columns = columns if columns is not None else np.empty((len(counts), 0))
    obs = tuple(
        CountyObservation(
            id=f"c{i}",
            centroid=(40.0 + 0.001 * i, -90.0),
            count=int(c),
            covariates=tuple(float(v) for v in row),
        )
        for i, (c, row) in enumerate(zip(counts, columns))
    )
    return Dataset.from_observations(tuple(schema), obs)


class TestMaximize:
    def test_concave_quadratic(self):
        res = maximize(
            lambda t: -((t[0] - 3.0) ** 2),
            lambda t: np.array([-2.0 * (t[0] - 3.0)]),
            [0.0],
        )
        assert res.converged
        assert res.iterations <= 5
        assert res.theta[0] == pytest.approx(3.0, abs=1e-8)

    def test_logit_intercept_only_closed_form(self):
        # 30% ones: MLE intercept is log(0.3/0.7)
        y = np.array([1.0] * 30 + [0.0] * 70)
        X = np.ones((100, 1))
        from geocount import logit_loglik
        from geocount.likelihoods import logit_grad

        res = maximize(lambda t: logit_loglik(t, X, y), lambda t: logit_grad(t, X, y), [0.0])
        assert res.converged
        assert res.theta[0] == pytest.approx(math.log(0.3 / 0.7), abs=1e-8)

    def test_poisson_intercept_only_closed_form(self):
        # mean(y) = 2.5: MLE intercept is ln 2.5
        y = np.array([1.0, 2.0, 3.0, 4.0])
        X = np.ones((4, 1))
        from geocount import poisson_loglik
        from geocount.likelihoods import poisson_grad

        res = maximize(
            lambda t: poisson_loglik(t, X, y), lambda t: poisson_grad(t, X, y), [0.0]
        )
        assert res.converged
        assert res.theta[0] == pytest.approx(math.log(2.5), abs=1e-8)

    def test_value_never_below_start(self):
        rng = np.random.default_rng(11)
        A = rng.normal(size=(3, 3))
        M = -(A @ A.T + 0.5 * np.eye(3))
        b = rng.normal(size=3)
        f = lambda t: float(t @ M @ t / 2.0 + b @ t)
        g = lambda t: M @ t + b
        init = rng.normal(size=3)
        res = maximize(f, g, init)
        assert res.value >= f(init)
        assert res.converged
        assert np.max(np.abs(g(res.theta))) <= 1e-8

    def test_non_finite_at_init(self):
        with pytest.raises(NonFiniteObjective):
            maximize(lambda t: float("-inf"), lambda t: np.zeros(1), [0.0])

    def test_reports_best_so_far_on_iteration_cap(self):
        options = OptimOptions(max_iterations=2)
        f = lambda t: -((t[0] - 3.0) ** 4)  # quartic: Newton needs several steps
        g = lambda t: np.array([-4.0 * (t[0] - 3.0) ** 3])
        res = maximize(f, g, [0.0], options)
        assert res.iterations == 2
        assert not res.converged
        assert res.value >= f(np.array([0.0]))


class TestOptimOptions:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iterations": 0},
            {"gradient_tolerance": -1.0},
            {"step_halving_max": 0},
            {"ridge_floor": 0.0},
            {"gradient_tolerance": float("nan")},
            {"ridge_floor": float("inf")},
            {"max_iterations": 2.5},
            {"step_halving_max": 1.5},
            {"max_iterations": True},
            {"gradient_tolerance": True},
        ],
    )
    def test_positivity(self, kwargs):
        with pytest.raises(ValueError):
            OptimOptions(**kwargs)


class TestWaldInference:
    def test_zero_estimate(self):
        rows = wald_inference(["a"], [0.0], [[4.0]])
        row = rows[0]
        assert row.z_stat == 0.0
        assert row.p_value == pytest.approx(1.0)
        assert row.stars == ""

    def test_borderline_95(self):
        rows = wald_inference(["a"], [1.96], [[1.0]])
        assert rows[0].p_value == pytest.approx(0.0500, abs=5e-5)
        assert rows[0].stars == "**"

    def test_strong_significance(self):
        # mirrors a coefficient of 4.1875 printed with (0.0001)
        rows = wald_inference(["a"], [4.1875], [[1.0]])
        assert rows[0].p_value < 1e-4
        assert rows[0].stars == "***"

    def test_zero_standard_error(self):
        with pytest.raises(ZeroStandardError):
            wald_inference(["a"], [1.0], [[0.0]])

    def test_star_thresholds(self):
        assert _stars(0.0009) == "***"
        assert _stars(0.001) == "***"
        assert _stars(0.01) == "**"
        assert _stars(0.05) == "**"
        assert _stars(0.09) == "*"
        assert _stars(0.10) == "*"
        assert _stars(0.2) == ""


class TestFit:
    def test_simulated_logit_recovery(self):
        # Monte Carlo generation oracle, fixed seed: estimates within 3 SEs
        rng = np.random.default_rng(12)
        n = 5000
        X = rng.standard_normal((n, 2))
        beta_true = np.array([-0.4, 0.8, -0.5])
        eta = beta_true[0] + X @ beta_true[1:]
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(int)
        ds = dataset_from_arrays(y, X, schema=("x1", "x2"))
        result = fit(ModelSpec(family="logit", count_covariates=("x1", "x2")), ds)
        assert result.converged
        for row, truth in zip(result.coefficients, beta_true):
            assert abs(row.estimate - truth) <= 3.0 * row.std_error

    def test_simulated_zip_recovery(self):
        from geocount import DgpSpec, Normal, UniformSquare, recovery_trial

        spec = DgpSpec(
            n=5000,
            covariates=(("x1", Normal(0, 1)), ("x2", Normal(0, 1))),
            beta=(0.4, 0.5, -0.3),
            gamma=(-0.6, 0.4, 0.2),
            layout=UniformSquare(2000.0),
            seed=13,
        )
        report = recovery_trial(spec, ModelSpec(family="zip", count_covariates=("x1", "x2")))
        assert report.fit_result.converged
        assert report.flagged == ()

    def test_collinear_columns(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal(50)
        cols = np.column_stack([x, 2.0 * x])
        counts = rng.integers(0, 4, size=50)
        counts[0] = max(counts[0], 1)
        ds = dataset_from_arrays(counts, cols, schema=("a", "b"))
        with pytest.raises(RankDeficientDesign):
            fit(ModelSpec(family="poisson", count_covariates=("a", "b")), ds)

    def test_requires_positive_count(self):
        ds = dataset_from_arrays([0, 0, 0])
        with pytest.raises(ValueError):
            fit(ModelSpec(family="poisson"), ds)

    def test_requires_two_observations(self):
        ds = dataset_from_arrays([1])
        with pytest.raises(ValueError):
            fit(ModelSpec(family="poisson"), ds)

    def test_covariance_matches_double_fd_oracle(self):
        # independent oracle: second central differences of the loglik itself
        from geocount import logit_loglik

        rng = np.random.default_rng(15)
        n = 800
        X = rng.standard_normal((n, 1))
        eta = 0.3 + 0.7 * X[:, 0]
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(int)
        ds = dataset_from_arrays(y, X, schema=("x",))
        result = fit(ModelSpec(family="logit", count_covariates=("x",)), ds)

        Xd = np.column_stack([np.ones(n), X[:, 0]])
        theta = result.estimates
        k = theta.size
        H = np.empty((k, k))
        f = lambda t: logit_loglik(t, Xd, y)
        for i in range(k):
            for j in range(k):
                hi = 1e-4 * (1.0 + abs(theta[i]))
                hj = 1e-4 * (1.0 + abs(theta[j]))
                tpp = theta.copy(); tpp[i] += hi; tpp[j] += hj
                tpm = theta.copy(); tpm[i] += hi; tpm[j] -= hj
                tmp = theta.copy(); tmp[i] -= hi; tmp[j] += hj
                tmm = theta.copy(); tmm[i] -= hi; tmm[j] -= hj
                H[i, j] = (f(tpp) - f(tpm) - f(tmp) + f(tmm)) / (4.0 * hi * hj)
        oracle_cov = np.linalg.inv(-0.5 * (H + H.T))
        err = np.linalg.norm(result.covariance - oracle_cov) / np.linalg.norm(oracle_cov)
        assert err <= 1e-4

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(16)
        X = rng.standard_normal((200, 1))
        counts = rng.poisson(np.exp(0.2 + 0.5 * X[:, 0]))
        ds = dataset_from_arrays(counts, X, schema=("x",))
        model = ModelSpec(family="poisson", count_covariates=("x",))
        r1 = fit(model, ds)
        r2 = fit(model, ds)
        assert r1.covariance.tobytes() == r2.covariance.tobytes()
        assert r1.coefficients == r2.coefficients
        assert r1.log_likelihood == r2.log_likelihood
        assert r1.iterations == r2.iterations

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(17)
        n = 400
        x = rng.standard_normal(n)
        eta = -0.2 + 0.9 * x
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(int)
        ds_raw = dataset_from_arrays(y, x[:, None], schema=("x",))
        ds_scaled = dataset_from_arrays(y, (10.0 * x + 5.0)[:, None], schema=("x",))
        model = ModelSpec(family="logit", count_covariates=("x",))
        r_raw = fit(model, ds_raw)
        r_scaled = fit(model, ds_scaled)
        # slope rescales inversely
        assert r_scaled.coefficient("x").estimate == pytest.approx(
            r_raw.coefficient("x").estimate / 10.0, rel=1e-6
        )
        # fitted probabilities are unchanged
        X_raw = np.column_stack([np.ones(n), x])
        X_scl = np.column_stack([np.ones(n), 10.0 * x + 5.0])
        p_raw = predict(Family.LOGIT, Params(beta=r_raw.estimates), X_raw)
        p_scl = predict(Family.LOGIT, Params(beta=r_scaled.estimates), X_scl)
        np.testing.assert_allclose(p_raw, p_scl, atol=1e-6)

    def test_gradient_small_at_converged_fit(self):
        from geocount.likelihoods import poisson_grad

        rng = np.random.default_rng(18)
        X = rng.standard_normal((300, 2))
        counts = rng.poisson(np.exp(0.1 + 0.4 * X[:, 0] - 0.3 * X[:, 1]))
        ds = dataset_from_arrays(counts, X, schema=("a", "b"))
        result = fit(ModelSpec(family="poisson", count_covariates=("a", "b")), ds)
        assert result.converged
        Xd = np.column_stack([np.ones(300), X])
        g = poisson_grad(result.estimates, Xd, counts.astype(float))
        assert np.max(np.abs(g)) <= 1e-8

    def test_zip_inflation_defaults_to_count_covariates(self):
        rng = np.random.default_rng(19)
        X = rng.standard_normal((500, 1))
        lam = np.exp(0.5 + 0.4 * X[:, 0])
        p = 1.0 / (1.0 + np.exp(0.6 - 0.3 * X[:, 0]))
        counts = np.where(rng.random(500) < p, 0, rng.poisson(lam))
        ds = dataset_from_arrays(counts, X, schema=("x",))
        result = fit(ModelSpec(family="zip", count_covariates=("x",)), ds)
        assert result.names == ("Intercept", "x", "inflate:Intercept", "inflate:x")

    def test_singular_information(self):
        from geocount.fitting import _observed_covariance
        from geocount.exceptions import SingularInformation

        # a flat score has a zero Hessian: no information at all
        with pytest.raises(SingularInformation):
            _observed_covariance(lambda th: np.zeros(2), np.zeros(2))

    def test_separation_suspected(self):
        # perfectly separated with spread in |x|: the coefficient path passes
        # a region where |x'beta| > 30 while the score is still above tolerance
        x = np.array([-10.0, -1.0, 1.0, 10.0] * 10)
        y = (x > 0).astype(int)
        ds = dataset_from_arrays(y, x[:, None], schema=("x",))
        model = ModelSpec(family="logit", count_covariates=("x",), add_intercept=False)
        with pytest.raises(SeparationSuspected):
            fit(model, ds, OptimOptions(max_iterations=8))


def closure_fit(model, dataset, options=OptimOptions()):
    """Oracle for ``fit``: per-family closures over the checked public kernels.

    This is how ``fit`` was written before the family table: one branch per
    family builds the start, the names and the closures, and every kernel
    call checks its inputs again.  Returns (maximize result, covariance, names).
    """
    counts = dataset.counts()
    X = build_design(dataset, model.count_covariates, model.add_intercept)
    family = model.family
    if family is Family.LOGIT:
        y = binarize_counts(dataset)
        init = np.zeros(X.k)
        objective = lambda th: logit_loglik(th, X, y)
        score = lambda th: logit_grad(th, X, y)
        names = X.column_names
    elif family is Family.POISSON:
        y = counts
        init = np.zeros(X.k)
        if model.add_intercept:
            init[0] = float(np.log(counts.mean() + 0.01))
        objective = lambda th: poisson_loglik(th, X, y)
        score = lambda th: poisson_grad(th, X, y)
        names = X.column_names
    else:
        inflation = model.inflation_covariates or model.count_covariates
        Z = build_design(dataset, inflation, model.add_intercept)
        y = counts
        kx = X.k
        init = np.zeros(kx + Z.k)
        if model.add_intercept:
            init[0] = float(np.log(counts.mean() + 0.01))
            zero_fraction = float(np.clip(np.mean(counts == 0), 0.01, 0.99))
            init[kx] = float(np.log(zero_fraction / (1.0 - zero_fraction)))
        objective = lambda th: zip_loglik(th[:kx], th[kx:], X, Z, y)
        score = lambda th: zip_grad(th[:kx], th[kx:], X, Z, y)
        names = X.column_names + tuple(INFLATE_PREFIX + c for c in Z.column_names)

    result = maximize(objective, score, init, options)
    if family is Family.LOGIT and not result.converged:
        if float(np.max(np.abs(X.values @ result.theta))) > 30.0:
            raise SeparationSuspected()
    return result, _observed_covariance(score, result.theta), names


class TestFitMatchesClosureOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        family=st.sampled_from(list(Family)),
        add_intercept=st.booleans(),
        k=st.integers(0, 2),
        n=st.integers(8, 40),
        max_iterations=st.sampled_from([3, 200]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fit_is_bit_identical(self, family, add_intercept, k, n, max_iterations, seed):
        rng = np.random.default_rng(seed)
        k = max(k, int(not add_intercept))  # a design needs a column
        columns = rng.standard_normal((n, k))
        lam = np.exp(0.3 + columns @ rng.uniform(-0.6, 0.6, size=k))
        counts = np.where(rng.random(n) < 0.3, 0, rng.poisson(lam))
        counts[0], counts[1] = max(counts[0], 1), 0
        names = tuple(f"x{j}" for j in range(k))
        dataset = dataset_from_arrays(counts, columns, schema=names)
        model = ModelSpec(family=family, count_covariates=names, add_intercept=add_intercept)
        options = OptimOptions(max_iterations=max_iterations)
        try:
            expected, covariance, expected_names = closure_fit(model, dataset, options)
        except GeocountError as error:
            event(type(error).__name__)
            with pytest.raises(type(error)):
                fit(model, dataset, options)
            return
        result = fit(model, dataset, options)
        event(f"converged={expected.converged}")
        assert np.array_equal(result.estimates, expected.theta)
        assert np.array_equal(result.covariance, covariance)
        assert result.log_likelihood == expected.value
        assert result.iterations == expected.iterations
        assert result.converged == expected.converged
        assert result.names == expected_names
