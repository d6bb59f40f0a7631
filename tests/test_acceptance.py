"""Acceptance gate: nine criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every expected value is produced by an oracle that is independent of
the code path it checks: closed forms, direct Monte Carlo sampling, finite
differences of the log-likelihood, and plain-loop formula evaluation.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np

import geocount.cli as cli
from geocount import (
    DgpSpec,
    DistanceBand,
    ModelSpec,
    Normal,
    UniformSquare,
    build_weights,
    fit,
    generate,
    getis_ord_gstar,
    logit_loglik,
    paper_scale_spec,
    poisson_loglik,
    recovery_trial,
    zip_loglik,
    zip_moments,
)
from geocount.likelihoods import logit_grad, poisson_grad, zip_grad

DATA_DIR = Path(__file__).parent / "data"


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\ncriterion {number} [{name}]: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def test_criterion_1_moment_identities():
    """ZIP moment formulas, exactly and against 1e6-draw Monte Carlo."""
    rng = np.random.default_rng(101)
    exact_ok = True
    mc_ok = True
    n_draws = 1_000_000
    for _ in range(200):
        p = float(rng.uniform(0.0, 1.0))
        lam = float(rng.uniform(0.05, 15.0))
        mean, var = zip_moments(p, lam)
        if mean != (1.0 - p) * lam or var != (1.0 - p) * lam * (1.0 + p * lam):
            exact_ok = False
        # mixture draw: structural zeros stay zero, the rest are Poisson
        keep = rng.random(n_draws) >= p
        draws = np.zeros(n_draws)
        draws[keep] = rng.poisson(lam, size=int(keep.sum()))
        m = draws.mean()
        c2 = np.square(draws - m)
        s2 = float(c2.sum()) / (n_draws - 1)
        m4 = float(np.mean(np.square(c2)))
        se_mean = math.sqrt(s2 / n_draws)
        se_var = math.sqrt(max(m4 - s2 * s2, 1e-300) / n_draws)
        if abs(m - mean) > 4.0 * se_mean or abs(s2 - var) > 4.0 * se_var:
            mc_ok = False
    _report(1, "moment identities", exact_ok and mc_ok)


def test_criterion_2_reduction_equivalence():
    """zip_loglik at p -> 0 equals poisson_loglik within 1e-10 absolute."""
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 21))
        k = int(rng.integers(0, 3))
        X = np.column_stack([np.ones(n)] + [rng.standard_normal(n) for _ in range(k)])
        beta = rng.uniform(-0.8, 0.8, size=k + 1)
        y = rng.poisson(np.exp(X @ beta)).astype(float)
        Z = np.ones((n, 1))
        gap = abs(
            zip_loglik(beta, np.array([-40.0]), X, Z, y) - poisson_loglik(beta, X, y)
        )
        worst = max(worst, gap)
    _report(2, "reduction equivalence", worst <= 1e-10, f"worst gap {worst:.2e}")


def test_criterion_3_gradient_correctness():
    """Analytic scores match central finite differences to 1e-5 relative."""

    def fd(f, theta, h=1e-6):
        g = np.empty_like(theta)
        for j in range(theta.size):
            up, dn = theta.copy(), theta.copy()
            up[j] += h
            dn[j] -= h
            g[j] = (f(up) - f(dn)) / (2.0 * h)
        return g

    rng = np.random.default_rng(103)
    worst = 0.0
    for trial in range(100):
        family = ("logit", "poisson", "zip")[trial % 3]
        n = int(rng.integers(10, 60))
        k = int(rng.integers(1, 4))
        X = np.column_stack([np.ones(n), rng.standard_normal((n, k))])
        beta = rng.uniform(-1.0, 1.0, size=k + 1)
        if family == "logit":
            y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(X @ beta)))).astype(float)
            analytic = logit_grad(beta, X, y)
            numeric = fd(lambda t: logit_loglik(t, X, y), beta)
        elif family == "poisson":
            y = rng.poisson(np.exp(X @ beta)).astype(float)
            analytic = poisson_grad(beta, X, y)
            numeric = fd(lambda t: poisson_loglik(t, X, y), beta)
        else:
            Z = np.column_stack([np.ones(n), rng.standard_normal((n, k))])
            gamma = rng.uniform(-1.0, 1.0, size=k + 1)
            p = 1.0 / (1.0 + np.exp(-(Z @ gamma)))
            y = np.where(rng.random(n) < p, 0.0, rng.poisson(np.exp(X @ beta))).astype(float)
            kx = beta.size
            theta = np.concatenate([beta, gamma])
            analytic = zip_grad(beta, gamma, X, Z, y)
            numeric = fd(lambda t: zip_loglik(t[:kx], t[kx:], X, Z, y), theta)
        err = np.linalg.norm(analytic - numeric) / max(1.0, np.linalg.norm(numeric))
        worst = max(worst, err)
    _report(3, "gradient correctness", worst <= 1e-5, f"worst rel err {worst:.2e}")


def test_criterion_4_closed_form_mle():
    """Intercept-only logit and Poisson recover their closed-form MLEs."""
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(20, 200))
        ones = int(rng.integers(1, n))
        counts = np.array([1] * ones + [0] * (n - ones))
        ds = _intercept_dataset(counts)
        result = fit(ModelSpec(family="logit"), ds)
        phat = ones / n
        worst = max(
            worst,
            abs(result.coefficient("Intercept").estimate - math.log(phat / (1 - phat))),
        )

        counts = rng.poisson(rng.uniform(0.5, 5.0), size=n)
        if not counts.any():
            counts[0] = 1
        ds = _intercept_dataset(counts)
        result = fit(ModelSpec(family="poisson"), ds)
        worst = max(
            worst,
            abs(result.coefficient("Intercept").estimate - math.log(counts.mean())),
        )
    _report(4, "closed-form MLE oracles", worst <= 1e-7, f"worst gap {worst:.2e}")


def _intercept_dataset(counts):
    from geocount import CountyObservation, Dataset

    obs = tuple(
        CountyObservation(id=f"c{i}", centroid=(40.0, -90.0 + 1e-4 * i), count=int(c))
        for i, c in enumerate(counts)
    )
    return Dataset.from_observations((), obs)


def test_criterion_5_zip_parameter_recovery():
    """ZIP recovery: n=5000, 3 covariates, >= 95 of 100 seeds all clear."""
    beta = (0.3, 0.4, -0.3, 0.2)
    gamma = (-0.7, 0.5, -0.4, 0.3)
    model = ModelSpec(family="zip", count_covariates=("x1", "x2", "x3"))
    clear = 0
    for seed in range(100):
        spec = DgpSpec(
            n=5000,
            covariates=(("x1", Normal(0, 1)), ("x2", Normal(0, 1)), ("x3", Normal(0, 1))),
            beta=beta,
            gamma=gamma,
            layout=UniformSquare(3000.0),
            seed=seed,
        )
        report = recovery_trial(spec, model)
        if report.fit_result.converged and not report.flagged:
            clear += 1
    _report(5, "ZIP parameter recovery", clear >= 95, f"{clear}/100 seeds clear")


def test_criterion_6_gstar_oracle_equivalence():
    """Library z-scores equal direct formula evaluation to 1e-10."""

    def oracle(values, dense):
        n = len(values)
        xbar = sum(values) / n
        S = math.sqrt(max(sum(v * v for v in values) / n - xbar * xbar, 0.0))
        out = []
        for i in range(n):
            row = dense[i]
            wsum = sum(row)
            wsq = sum(w * w for w in row)
            numerator = sum(w * x for w, x in zip(row, values)) - xbar * wsum
            bracket = (n * wsq - wsum * wsum) / (n - 1)
            if S == 0.0 or bracket <= 0.0:
                out.append(0.0)
            else:
                out.append(numerator / (S * math.sqrt(bracket)))
        return np.array(out)

    rng = np.random.default_rng(106)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(3, 51))
        pts = [(float(la), float(lo)) for la, lo in rng.uniform(-30, 30, size=(n, 2))]
        from geocount import KNearest

        scheme = (
            DistanceBand(float(rng.uniform(300.0, 4000.0)))
            if trial % 2 == 0
            else KNearest(int(rng.integers(1, n)))
        )
        W = build_weights(pts, scheme, include_self=bool(trial % 3))
        values = rng.normal(size=n) * float(rng.uniform(0.5, 20.0))
        z = getis_ord_gstar(values, W).z
        worst = max(worst, float(np.max(np.abs(z - oracle(values.tolist(), W.entries.toarray().tolist())))))
    # all-equal values give identically zero scores
    pts = [(0.0, 0.01 * i) for i in range(10)]
    W = build_weights(pts, DistanceBand(5.0))
    flat = getis_ord_gstar(np.full(10, 3.3), W).z
    all_zero = bool(np.all(flat == 0.0))
    _report(6, "G_i* oracle equivalence", worst <= 1e-10 and all_zero, f"worst gap {worst:.2e}")


def test_criterion_7_planted_cluster_detection():
    """20x20 grid, one 4x4 high block: block hot, background not significant."""
    side, spacing = 20, 0.09  # ~10 km spacing
    pts = [(i * spacing, j * spacing) for i in range(side) for j in range(side)]
    values = np.zeros(side * side)
    block = [(i, j) for i in range(8, 12) for j in range(8, 12)]
    for i, j in block:
        values[i * side + j] = 10.0
    W = build_weights(pts, DistanceBand(12.0))  # band links rook-adjacent cells
    result = getis_ord_gstar(values, W)
    block_idx = {i * side + j for i, j in block}
    block_hot = all(
        result.classes[idx].value in ("Hot95", "Hot99") for idx in block_idx
    )
    background = [
        result.classes[idx].value
        for idx in range(side * side)
        if idx not in block_idx
    ]
    ns_share = background.count("NotSignificant") / len(background)
    _report(
        7,
        "planted-cluster detection",
        block_hot and ns_share >= 0.95,
        f"background NS share {ns_share:.3f}",
    )


def test_criterion_8_paper_scale_calibration(tmp_path):
    """Preset zero share lands in [0.485, 0.525] for >= 95 of 100 seeds and
    one preset dataset fits (exit 0) with all three families."""
    hits = 0
    for seed in range(100):
        counts = generate(paper_scale_spec(seed=seed)).counts()
        share = float(np.mean(counts == 0))
        if 0.485 <= share <= 0.525:
            hits += 1

    spec_path = tmp_path / "spec.json"
    spec_path.write_text('{"preset": "paper-scale", "seed": 0}')
    data_path = tmp_path / "paper.csv"
    sim_rc = cli.main(["simulate", "--spec", str(spec_path), "--out", str(data_path)])
    fit_rcs = []
    for family in ("logit", "poisson", "zip"):
        out = tmp_path / f"fit_{family}.json"
        fit_rcs.append(
            cli.main(
                ["fit", "--input", str(data_path), "--family", family,
                 "--out", str(out), "--format", "json"]
            )
        )
    ok = hits >= 95 and sim_rc == 0 and all(rc == 0 for rc in fit_rcs)
    _report(8, "paper-scale calibration", ok, f"{hits}/100 in band, fit exits {fit_rcs}")


def test_criterion_9_cli_determinism(tmp_path):
    """Ten repetitions of every command produce byte-identical outputs."""

    def run_hash(argv, out_path):
        rc = cli.main(argv)
        assert rc == 0
        return hashlib.sha256(Path(out_path).read_bytes()).hexdigest()

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(
            {
                "n": 400,
                "covariates": [{"name": "x", "distribution": {"type": "normal", "mu": 0.0, "sigma": 1.0}}],
                "beta": [0.3, 0.4],
                "gamma": [-0.5, 0.2],
                "layout": {"type": "uniform_square", "side_km": 500.0},
                "seed": 12,
            }
        )
    )
    data_path = tmp_path / "sim.csv"
    smoke = str(DATA_DIR / "smoke.csv")

    jobs = {
        "simulate": (
            ["simulate", "--spec", str(spec_path), "--out", str(data_path), "--seed", "12"],
            data_path,
        ),
    }
    ok = True
    hashes = {name: set() for name in ("simulate", "fit", "hotspot")}
    for _ in range(10):
        hashes["simulate"].add(run_hash(*jobs["simulate"]))
        fit_out = tmp_path / "fit.json"
        hashes["fit"].add(
            run_hash(
                ["fit", "--input", str(data_path), "--family", "zip", "--covariates", "x",
                 "--out", str(fit_out), "--format", "json"],
                fit_out,
            )
        )
        hot_out = tmp_path / "hot.csv"
        hashes["hotspot"].add(
            run_hash(
                ["hotspot", "--input", str(data_path), "--weights", "knn:4",
                 "--out", str(hot_out)],
                hot_out,
            )
        )
    ok = all(len(h) == 1 for h in hashes.values())
    _report(9, "CLI determinism", ok, f"distinct hashes {[len(h) for h in hashes.values()]}")
