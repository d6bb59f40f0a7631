"""Optimizer, fit, and Wald-inference tests.

Closed-form MLEs (intercept-only logit and Poisson), finite differences of
the log-likelihood itself, and fixed-seed Monte Carlo generation serve as
the independent oracles.  The per-column finite-difference Hessian, the
checked Cholesky step and the Newton loop with a post-loop gradient test that
the current code replaced are kept here as oracles.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from geocount import (
    CoefficientRow,
    CountyObservation,
    Dataset,
    Family,
    FitResult,
    ModelSpec,
    OptimOptions,
    fit,
    maximize,
    predict,
    wald_inference,
)
from geocount import Params, binarize_counts, build_design
from geocount.fitting import INFLATE_PREFIX, _newton_step, _observed_covariance, _stars
from geocount import fitting
from geocount.fitting import _pivoted_qr_diagonal
from geocount.fitting import MaximizeResult, fd_hessian
from geocount.likelihoods import FAMILIES
from geocount.likelihoods import (
    logit_grad,
    logit_loglik,
    poisson_grad,
    poisson_loglik,
    zip_grad,
    zip_loglik,
)
from geocount.exceptions import (
    DimensionMismatch,
    DomainError,
    DuplicateCovariate,
    GeocountError,
    InvalidSpec,
    NonFiniteObjective,
    RankDeficientDesign,
    SeparationSuspected,
    SingularInformation,
    ZeroStandardError,
)


def stacked(grad):
    """A one-point gradient as a stacked score: one call per row of the stack."""
    return lambda points: np.array([grad(theta) for theta in points])


def oracle_fd_hessian(grad, theta):
    """The per-column FD Hessian, one gradient call per perturbed point."""
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


def oracle_newton_step(H, g, ridge_floor):
    """The ridged Newton step through the checked ``cho_factor``/``cho_solve``."""
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
    return g / max(1.0, np.linalg.norm(g))


def oracle_maximize(loglik, score, init, options=OptimOptions()):
    """``maximize`` with the convergence test stated twice: up to ``max_iterations``
    steps in the loop, then the gradient is computed and tested once more."""
    grad = lambda th: np.asarray(score(th[None]), dtype=np.float64)[0]
    theta = np.array(init, dtype=np.float64)
    f = float(loglik(theta))
    if not np.isfinite(f):
        raise NonFiniteObjective(0)

    iterations = 0
    for iteration in range(1, options.max_iterations + 1):
        g = grad(theta)
        if not np.all(np.isfinite(g)):
            raise NonFiniteObjective(iteration)
        if np.max(np.abs(g)) <= options.gradient_tolerance:
            return MaximizeResult(theta, f, iterations, True)

        H = fd_hessian(score, theta)
        if not np.all(np.isfinite(H)):
            raise NonFiniteObjective(iteration)
        step = _newton_step(H, g, options.ridge_floor)

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
            return MaximizeResult(theta, f, iterations, False)

    g = grad(theta)
    converged = bool(np.all(np.isfinite(g)) and np.max(np.abs(g)) <= options.gradient_tolerance)
    return MaximizeResult(theta, f, iterations, converged)


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
        res = maximize(lambda t: -((t[0] - 3.0) ** 2), lambda points: -2.0 * (points - 3.0), [0.0])
        assert res.converged
        assert res.iterations <= 5
        assert res.theta[0] == pytest.approx(3.0, abs=1e-8)

    def test_logit_intercept_only_closed_form(self):
        # 30% ones: MLE intercept is log(0.3/0.7)
        y = np.array([1.0] * 30 + [0.0] * 70)
        X = np.ones((100, 1))
        from geocount import logit_loglik
        from geocount.likelihoods import logit_grad

        res = maximize(
            lambda t: logit_loglik(t, X, y), stacked(lambda t: logit_grad(t, X, y)), [0.0]
        )
        assert res.converged
        assert res.theta[0] == pytest.approx(math.log(0.3 / 0.7), abs=1e-8)

    def test_poisson_intercept_only_closed_form(self):
        # mean(y) = 2.5: MLE intercept is ln 2.5
        y = np.array([1.0, 2.0, 3.0, 4.0])
        X = np.ones((4, 1))
        from geocount import poisson_loglik
        from geocount.likelihoods import poisson_grad

        res = maximize(
            lambda t: poisson_loglik(t, X, y), stacked(lambda t: poisson_grad(t, X, y)), [0.0]
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
        res = maximize(f, lambda points: points @ M.T + b, init)
        assert res.value >= f(init)
        assert res.converged
        assert np.max(np.abs(g(res.theta))) <= 1e-8

    def test_non_finite_at_init(self):
        with pytest.raises(NonFiniteObjective):
            maximize(lambda t: float("-inf"), lambda points: np.zeros_like(points), [0.0])

    def test_reports_best_so_far_on_iteration_cap(self):
        options = OptimOptions(max_iterations=2)
        f = lambda t: -((t[0] - 3.0) ** 4)  # quartic: Newton needs several steps
        g = lambda points: -4.0 * (points - 3.0) ** 3
        res = maximize(f, g, [0.0], options)
        assert res.iterations == 2
        assert not res.converged
        assert res.value >= f(np.array([0.0]))


def maximize_outcome(call):
    """(theta bits, value, iterations, converged) of a ``MaximizeResult``, or the
    (type, message) of the GeocountError raised."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            result = call()
    except GeocountError as error:
        return type(error), str(error)
    assert type(result.converged) is bool
    return result.theta.tobytes(), result.value, result.iterations, result.converged


@st.composite
def concave_problems(draw):
    """(loglik, score, init, options): a concave quadratic-plus-quartic problem.

    ``kind`` "stall" refuses every point but the start; "nan" makes the score NaN
    beyond a plane between the start and the quadratic's optimum, so the gradient
    or the Hessian turns NaN before, at or after the budget's last step;
    "optimum" starts at the quadratic's optimum.
    """
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((k, k))
    M = -(A @ A.T + 0.1 * np.eye(k))
    b = rng.standard_normal(k)
    kind = draw(st.sampled_from(["plain", "stall", "nan", "optimum"]))
    c = 0.0 if kind == "optimum" else draw(st.sampled_from([0.0, 0.05, 1.0]))
    optimum = np.linalg.solve(M, -b)
    init = optimum if kind == "optimum" else 3.0 * rng.standard_normal(k)
    f = lambda t: float(t @ M @ t / 2.0 + b @ t - c * np.sum(t**4))
    score = lambda points: points @ M.T + b - 4.0 * c * points**3
    loglik = f
    if kind == "stall":
        loglik = lambda t: f(t) if np.array_equal(t, init) else -math.inf
    elif kind == "nan":
        direction = optimum - init
        cut = direction @ (init + draw(st.floats(0.0, 1.5)) * direction)
        smooth = score
        score = lambda points: np.where((points @ direction > cut)[:, None], np.nan, smooth(points))
    options = OptimOptions(
        max_iterations=draw(st.sampled_from([1, 2, 3, 200])),
        gradient_tolerance=draw(st.sampled_from([1e-8, 1e-3])),
        step_halving_max=draw(st.sampled_from([1, 2, 30])),
    )
    event(kind)
    return loglik, score, init, options


#: (loglik, score, init) of f = -(t - 3)**2 from t = 0, whose first Newton
#: step lands on 3; the score is NaN from t = 2 on, so after one step.
NAN_AFTER_ONE_STEP = (
    lambda t: -((t[0] - 3.0) ** 2),
    lambda points: np.where(points >= 2.0, np.nan, -2.0 * (points - 3.0)),
    [0.0],
)


class TestMaximizeMatchesOracle:
    """One convergence test at the top of the loop gives the bits, iteration counts
    and errors of the loop that tested the gradient again after its last step."""

    @settings(max_examples=300, deadline=None)
    @given(problem=concave_problems())
    def test_bit_identical(self, problem):
        loglik, score, init, options = problem
        want = maximize_outcome(lambda: oracle_maximize(loglik, score, init, options))
        got = maximize_outcome(lambda: maximize(loglik, score, init, options))
        event("raised" if len(want) == 2 else f"converged={want[3]}, iterations={want[2]}")
        assert got == want

    @pytest.mark.parametrize(
        "problem, options, want",
        [
            pytest.param(NAN_AFTER_ONE_STEP, OptimOptions(max_iterations=1), (1, False),
                         id="nan-gradient-after-the-last-step"),
            pytest.param(NAN_AFTER_ONE_STEP, OptimOptions(max_iterations=2),
                         "non-finite at iteration 2", id="nan-gradient-at-the-last-step"),
            pytest.param((lambda t: -((t[0] - 3.0) ** 2), lambda points: -2.0 * (points - 3.0),
                          [3.0]), OptimOptions(max_iterations=1), (0, True), id="start-at-optimum"),
            pytest.param((lambda t: 0.0 if t[0] == 0.0 else -math.inf,
                          lambda points: 1.0 - points, [0.0]), OptimOptions(), (1, False),
                         id="stall"),
        ],
    )
    def test_edge_cases(self, problem, options, want):
        loglik, score, init = problem
        got = maximize_outcome(lambda: maximize(loglik, score, init, options))
        assert got == maximize_outcome(lambda: oracle_maximize(loglik, score, init, options))
        if isinstance(want, str):
            assert got[0] is NonFiniteObjective and got[1].endswith(want)
        else:
            assert got[2:] == want


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

    @pytest.mark.parametrize("variance", [-1.0, -1e-300, math.nan, -math.inf])
    def test_negative_or_nan_variance_is_a_domain_error(self, variance):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="coefficient 'b' has variance"):
                wald_inference(["a", "b"], [1.0, 2.0], [[1.0, 0.0], [0.0, variance]])

    @pytest.mark.parametrize(
        "estimates, covariance, error",
        [
            ([1.0], [["x"]], InvalidSpec),
            (["a"], [[1.0]], InvalidSpec),
            ([1.0], [[True]], InvalidSpec),
            ([1.0], [[1.0], [2.0, 3.0]], InvalidSpec),
            (1.0, [[1.0]], DimensionMismatch),
        ],
        ids=["covariance-strings", "estimate-strings", "covariance-bools", "covariance-ragged",
             "estimate-scalar"],
    )
    def test_arrays_that_are_not_numbers(self, estimates, covariance, error):
        with pytest.raises(error):
            wald_inference(["a"], estimates, covariance)

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
            _observed_covariance(lambda points: np.zeros_like(points), np.zeros(2))

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
    call checks its inputs again, one point per call, and the Newton loop is
    :func:`oracle_maximize`.  Returns (maximize result, covariance, names).
    """
    counts = dataset.counts()
    X = build_design(dataset, model.count_covariates, model.add_intercept)
    family = model.family
    if family is Family.LOGIT:
        y = binarize_counts(dataset)
        init = np.zeros(X.k)
        objective = lambda th: logit_loglik(th, X, y)
        score = stacked(lambda th: logit_grad(th, X, y))
        names = X.column_names
    elif family is Family.POISSON:
        y = counts
        init = np.zeros(X.k)
        if model.add_intercept:
            init[0] = float(np.log(counts.mean() + 0.01))
        objective = lambda th: poisson_loglik(th, X, y)
        score = stacked(lambda th: poisson_grad(th, X, y))
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
        score = stacked(lambda th: zip_grad(th[:kx], th[kx:], X, Z, y))
        names = X.column_names + tuple(INFLATE_PREFIX + c for c in Z.column_names)

    with np.errstate(over="ignore", invalid="ignore"):  # as in ``fit``; it changes no bits
        result = oracle_maximize(objective, score, init, options)
        if family is Family.LOGIT and not result.converged:
            if float(np.max(np.abs(X.values @ result.theta))) > 30.0:
                raise SeparationSuspected()
        return result, _observed_covariance(score, result.theta), names


def recording_warnings(call):
    """(what ``call()`` returns or the GeocountError it raises, [(category, message)] of
    every warning it raises)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = call()
        except GeocountError as error:
            value = error
    return value, [(w.category, str(w.message)) for w in caught]


class TestFitMatchesClosureOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        family=st.sampled_from(list(Family)),
        add_intercept=st.booleans(),
        k=st.integers(0, 2),
        n=st.integers(8, 40),
        max_iterations=st.sampled_from([3, 200]),
        block_rows=st.sampled_from([None, 1, 2, 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fit_is_bit_identical(
        self, family, add_intercept, k, n, max_iterations, block_rows, seed
    ):
        """``fit`` equals the oracle with its score's default blocks (``block_rows``
        None: one block up to n = 4,096) and with blocks of 1, 2 or 3 rows, each through
        the ZIP score's memo."""
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
        want, want_warnings = recording_warnings(lambda: closure_fit(model, dataset, options))
        elements = fitting.SCORE_BLOCK_ELEMENTS if block_rows is None else block_rows * n
        with mock.patch.object(fitting, "SCORE_BLOCK_ELEMENTS", elements):
            got, got_warnings = recording_warnings(lambda: fit(model, dataset, options))
        assert got_warnings == want_warnings
        for category, _ in want_warnings:
            event(f"warning {category.__name__}")
        if isinstance(want, GeocountError):
            event(type(want).__name__)
            assert type(got) is type(want)
            return
        expected, covariance, expected_names = want
        result = got
        event(f"converged={expected.converged}")
        assert np.array_equal(result.estimates, expected.theta)
        assert np.array_equal(result.covariance, covariance)
        assert result.log_likelihood == expected.value
        assert result.iterations == expected.iterations
        assert result.converged == expected.converged
        assert result.names == expected_names


@st.composite
def designs(draw):
    """An n x k design, n 1-5,000 and k 1-8, whose columns may repeat, be zero or be scaled."""
    n, k = draw(st.integers(1, 5000)), draw(st.integers(1, 8))
    X = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((n, k))
    for j in range(k):
        kind = draw(st.sampled_from(["normal", "normal", "duplicate", "zero", "scaled", "ones"]))
        if kind == "duplicate":
            X[:, j] = X[:, draw(st.integers(0, k - 1))]
        elif kind == "zero":
            X[:, j] = 0.0
        elif kind == "scaled":
            X[:, j] = X[:, draw(st.integers(0, k - 1))] * draw(st.sampled_from([-3.0, 1e-12, 1e8]))
        elif kind == "ones":
            X[:, j] = 1.0
    return np.asfortranarray(X) if draw(st.booleans()) else X


class TestPivotedQrMatchesScipy:
    """dgeqp3 called directly gives ``scipy.linalg.qr``'s R diagonal and pivots."""

    @settings(max_examples=200, deadline=None)
    @given(X=designs())
    @example(X=np.ones((1, 8)))
    @example(X=np.zeros((5000, 8)))
    @example(X=np.column_stack([np.arange(5000.0)] * 8))
    def test_diagonal_and_pivots(self, X):
        _, R, pivots = scipy.linalg.qr(X, mode="economic", pivoting=True)
        diag, got_pivots = _pivoted_qr_diagonal(X)
        assert diag.tobytes() == np.diag(R).tobytes()
        assert np.array_equal(got_pivots, pivots)


class TestFdHessianMatchesOracle:
    """The FD Hessian of a score that splits its stack into blocks of ``block_rows``
    rows, as ``fit``'s score does, equals the per-column one bit for bit."""

    KERNELS = {Family.LOGIT: logit_grad, Family.POISSON: poisson_grad, Family.ZIP: zip_grad}

    @settings(max_examples=120, deadline=None)
    @given(
        family=st.sampled_from(list(Family)),
        n=st.one_of(st.integers(1, 70), st.integers(70, 5000)),
        kx=st.integers(1, 4),
        kz=st.integers(1, 3),
        block_rows=st.integers(1, 15),
        scale=st.sampled_from([0.3, 1.0, 6.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocked_equals_per_column(self, family, n, kx, kz, block_rows, scale, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, kx))
        Z = rng.standard_normal((n, kz)) if family is Family.ZIP else None
        y = rng.poisson(1.5, size=n).astype(float)
        if family is Family.LOGIT:
            y = np.minimum(y, 1.0)
        theta = scale * rng.standard_normal(kx + (kz if Z is not None else 0))
        entry = FAMILIES[family]
        data = entry.prepare(X, Z, y)
        score = lambda points: np.concatenate([
            entry.grad(points[i : i + block_rows, :kx], points[i : i + block_rows, kx:], data)
            for i in range(0, len(points), block_rows)
        ])
        kernel = self.KERNELS[family]
        if Z is None:
            grad = lambda th: kernel(th, X, y)
        else:
            grad = lambda th: kernel(th[:kx], th[kx:], X, Z, y)
        event("uneven blocks" if 2 * theta.size % block_rows else "even blocks")
        with np.errstate(over="ignore", invalid="ignore"):
            # exact comparison; an overflow to inf or NaN must match too
            np.testing.assert_array_equal(
                fd_hessian(score, theta), oracle_fd_hessian(grad, theta)
            )


class TestNewtonStepMatchesOracle:
    """The raw LAPACK step equals the ``cho_factor``/``cho_solve`` one bit for bit."""

    @pytest.mark.parametrize("kind", ["negative-definite", "indefinite", "singular"])
    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 6),
        ridge_floor=st.sampled_from([1e-10, 1e-4, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(k=1, ridge_floor=1e-10, seed=0)
    def test_step_equals_checked_cholesky(self, kind, k, ridge_floor, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((k, k))
        if kind == "negative-definite":
            H = -(A @ A.T + 0.1 * np.eye(k))
        elif kind == "indefinite":
            # eigenvalues of both signs (one positive one for k = 1)
            signs = np.where(np.arange(k) % 2 == 0, 1.0, -1.0)
            Q = np.linalg.qr(A)[0]
            H = (Q * (signs * rng.uniform(0.5, 3.0, size=k))) @ Q.T
        else:
            B = A[:, : k - 1]
            H = -(B @ B.T)
        g = rng.standard_normal(k)
        try:
            scipy.linalg.cho_factor(-H)
            event("raw Hessian factored")
        except scipy.linalg.LinAlgError:
            event("ridged")
        step = _newton_step(H, g, ridge_floor)
        assert step.tobytes() == oracle_newton_step(H, g, ridge_floor).tobytes()


# 20 units whose one covariate has scale 1e8; unstandardized, the first Newton
# step's finite-difference Hessian overflows
SCALED_COUNTS = [0, 0, 0] + [1 + i % 4 for i in range(3, 20)]
SCALED_X = [(7 * i % 20 - 9.5) * 1e8 for i in range(20)]


class TestNonFiniteHessian:
    @pytest.mark.parametrize("family", ["poisson", "zip"])
    def test_fit_raises_non_finite_objective(self, family):
        ds = dataset_from_arrays(SCALED_COUNTS, np.array(SCALED_X)[:, None], schema=("x",))
        with pytest.raises(NonFiniteObjective, match="non-finite at iteration 1$"):
            fit(ModelSpec(family=family, count_covariates=("x",)), ds)

    @pytest.mark.parametrize("family", ["poisson", "zip"])
    def test_an_overflow_in_one_row_blocks_prints_no_warning(self, family):
        """One-row blocks, so most of the score's calls keep a half from the memo; their
        overflow is silenced by ``fit``'s ``np.errstate`` as one block's is."""
        ds = dataset_from_arrays(SCALED_COUNTS, np.array(SCALED_X)[:, None], schema=("x",))
        with mock.patch.object(fitting, "SCORE_BLOCK_ELEMENTS", len(ds)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonFiniteObjective, match="non-finite at iteration 1$"):
                    fit(ModelSpec(family=family, count_covariates=("x",)), ds)

    def test_maximize_raises_non_finite_objective(self):
        score = lambda points: np.where(points == 0.0, 1.0, np.nan)
        with pytest.raises(NonFiniteObjective, match="non-finite at iteration 1$"):
            maximize(lambda t: 0.0, score, [0.0])

    def test_covariance_raises_singular_information(self):
        with pytest.raises(SingularInformation):
            _observed_covariance(lambda points: np.full_like(points, np.nan), np.zeros(2))


class TestSafetyBranches:
    def test_newton_step_falls_back_to_steepest_ascent(self):
        # a 1e300 curvature keeps every ridged step's g's at or below 0 for 200 doublings
        step = _newton_step(np.diag([1e300, 1.0]), np.array([1.0, 2.0]), 1e-10)
        assert step.tolist() == [0.4472135954999579, 0.8944271909999159]  # g / |g|

    def test_covariance_with_a_non_finite_inverse(self):
        # a -1e-310 Hessian is subnormal: LAPACK inverts it to inf instead of failing
        # (a factor of 1e-320 underflows to 0 and takes the LinAlgError branch instead);
        # scipy's LinAlgWarning about it is dropped with the covariance
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularInformation):
                _observed_covariance(lambda points: -1e-310 * points, np.array([0.0]))

    def test_covariance_of_an_ill_conditioned_information_keeps_its_warning(self):
        # rcond 1e-17 is below machine epsilon, yet the inverse is finite and PSD
        score = lambda points: points * np.array([-1.0, -1e-17])
        with pytest.warns(scipy.linalg.LinAlgWarning, match="ill-conditioned"):
            cov = _observed_covariance(score, np.zeros(2))
        assert np.all(np.isfinite(cov)) and cov[1, 1] > 1e16


class TestCoefficientNames:
    """Coefficient names are unique, so a table row is found by its name."""

    def names_data(self, schema):
        rng = np.random.default_rng(21)
        counts = np.where(rng.random(60) < 0.3, 0, rng.poisson(2.0, 60))
        return dataset_from_arrays(counts, rng.standard_normal((60, 2)), schema=schema)

    @pytest.mark.parametrize(
        "count, inflation", [(("Intercept",), ()), (("b",), ("Intercept",))], ids=["x", "z"]
    )
    def test_covariate_named_intercept_is_a_duplicate(self, count, inflation):
        ds = self.names_data(("Intercept", "b"))
        with pytest.raises(DuplicateCovariate, match="'Intercept'"):
            fit(ModelSpec(family="zip", count_covariates=count, inflation_covariates=inflation), ds)

    def test_count_covariate_may_not_take_the_inflation_prefix(self):
        with pytest.raises(InvalidSpec, match="count covariate 'inflate:x' starts with 'inflate:'"):
            ModelSpec(family="poisson", count_covariates=("a", INFLATE_PREFIX + "x"))

    def test_inflation_covariate_keeps_a_prefixed_name(self):
        ds = self.names_data(("a", "inflate:b"))
        model = ModelSpec(family="zip", count_covariates=("a",), inflation_covariates=("inflate:b",))
        assert fit(model, ds).names == ("Intercept", "a", "inflate:Intercept", "inflate:inflate:b")

    def test_fit_document_with_a_repeated_name_is_refused(self):
        row = {"name": "a", "estimate": 1.0, "std_error": 1.0, "z_stat": 1.0, "p_value": 0.3,
               "stars": ""}
        doc = {"family": "poisson", "coefficients": [row, {**row, "estimate": 2.0}],
               "log_likelihood": -1.0, "iterations": 3, "converged": True,
               "covariance": [[1.0, 0.0], [0.0, 1.0]]}
        with pytest.raises(InvalidSpec, match="coefficient name 'a' appears more than once"):
            FitResult.from_dict(doc)
        doc["coefficients"][1]["name"] = "b"
        assert FitResult.from_dict(doc).names == ("a", "b")

    def test_hand_built_result_with_a_repeated_name_is_refused(self):
        a = CoefficientRow("a", 1.0, 1.0, 1.0, 0.3, "")
        fields = dict(family=Family.POISSON, log_likelihood=-1.0, iterations=3, converged=True,
                      covariance=np.eye(2))
        message = "fit result: coefficient name 'a' appears more than once"
        with pytest.raises(InvalidSpec, match=message):
            FitResult(coefficients=(a, a._replace(estimate=2.0)), **fields)
        assert FitResult(coefficients=(a, a._replace(name="b")), **fields).names == ("a", "b")


class TestInflationDesign:
    def zip_data(self):
        rng = np.random.default_rng(20)
        columns = rng.standard_normal((200, 2))
        lam = np.exp(0.4 + columns @ np.array([0.5, -0.3]))
        counts = np.where(rng.random(200) < 0.3, 0, rng.poisson(lam))
        return columns, counts

    def test_count_covariates_given_twice_equal_the_default(self):
        columns, counts = self.zip_data()
        ds = dataset_from_arrays(counts, columns, schema=("a", "b"))
        default = fit(ModelSpec(family="zip", count_covariates=("a", "b")), ds)
        explicit = fit(
            ModelSpec(family="zip", count_covariates=("a", "b"), inflation_covariates=("a", "b")),
            ds,
        )
        assert explicit.to_dict() == default.to_dict()
        assert explicit.covariance.tobytes() == default.covariance.tobytes()

    def test_rank_deficient_inflation_design_names_inflate_columns(self):
        columns, counts = self.zip_data()
        columns = np.column_stack([columns, 2.0 * columns[:, 1]])
        ds = dataset_from_arrays(counts, columns, schema=("a", "b", "c"))
        model = ModelSpec(family="zip", count_covariates=("a",), inflation_covariates=("b", "c"))
        with pytest.raises(RankDeficientDesign) as caught:
            fit(model, ds)
        assert caught.value.columns and all(
            name.startswith(INFLATE_PREFIX) for name in caught.value.columns
        )
