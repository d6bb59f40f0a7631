"""Synthetic-data generator tests: determinism, reductions, calibration."""

import json
import math
import re

import numpy as np
import pytest

from geocount import (
    Bernoulli,
    Clustered,
    DgpSpec,
    ModelSpec,
    Normal,
    Uniform,
    UniformSquare,
    dgp_spec_from_json,
    dgp_spec_to_json,
    generate,
    paper_scale_spec,
    recovery_trial,
    zip_moments,
)
from geocount.exceptions import InvalidSpec
from geocount.simulate import MAX_SIDE_KM, PAPER_SCALE_MEAN_POSITIVE, PAPER_SCALE_ZERO_SHARE


def intercept_only_spec(beta0, gamma0, n=20_000, seed=0):
    return DgpSpec(
        n=n,
        covariates=(),
        beta=(beta0,),
        gamma=(gamma0,),
        layout=UniformSquare(1000.0),
        seed=seed,
    )


class TestGenerate:
    def test_deterministic_bit_identical(self):
        spec = DgpSpec(
            n=500,
            covariates=(("x", Normal(0, 1)), ("d", Bernoulli(0.3)), ("u", Uniform(-1, 1))),
            beta=(0.2, 0.1, -0.2, 0.3),
            gamma=(-0.5, 0.2, 0.1, -0.1),
            layout=UniformSquare(2000.0),
            seed=99,
        )
        assert generate(spec) == generate(spec)

    def test_different_seeds_differ(self):
        a = generate(intercept_only_spec(math.log(2.0), -0.5, n=200, seed=1))
        b = generate(intercept_only_spec(math.log(2.0), -0.5, n=200, seed=2))
        assert a != b

    def test_poisson_reduction_zero_fraction(self):
        # gamma -> -inf: zero share approaches the Poisson value e^{-lambda}
        ds = generate(intercept_only_spec(math.log(2.0), -40.0))
        share = float(np.mean(ds.counts() == 0))
        assert share == pytest.approx(math.exp(-2.0), abs=0.01)

    def test_all_structural_zeros(self):
        ds = generate(intercept_only_spec(math.log(2.0), 40.0, n=2000))
        assert np.all(ds.counts() == 0)

    def test_counts_are_nonnegative_integers(self):
        ds = generate(intercept_only_spec(0.5, 0.0, n=2000, seed=5))
        counts = ds.counts()
        assert counts.dtype.kind == "i"
        assert np.all(counts >= 0)

    def test_law_of_large_numbers_against_moments(self):
        # one million units; tolerance is 4 MC standard errors of each moment
        p_true, lam_true = 0.35, 2.5
        beta0 = math.log(lam_true)
        gamma0 = math.log(p_true / (1.0 - p_true))
        ds = generate(intercept_only_spec(beta0, gamma0, n=1_000_000, seed=777))
        counts = ds.counts().astype(float)
        mean, var = zip_moments(p_true, lam_true)
        n = counts.size
        se_mean = counts.std(ddof=1) / math.sqrt(n)
        centered = counts - counts.mean()
        m4 = float(np.mean(centered**4))
        s2 = counts.var(ddof=1)
        se_var = math.sqrt(max(m4 - s2**2, 0.0) / n)
        assert abs(counts.mean() - mean) < 4 * se_mean
        assert abs(s2 - var) < 4 * se_var

    def test_clustered_layout_stays_near_centers(self):
        spec = DgpSpec(
            n=400,
            covariates=(),
            beta=(0.0,),
            gamma=(0.0,),
            layout=Clustered(centers=((40.0, -100.0), (30.0, -85.0)), spread_km=50.0),
            seed=8,
        )
        cents = generate(spec).centroids()
        d1 = np.hypot(cents[:, 0] - 40.0, cents[:, 1] + 100.0)
        d2 = np.hypot(cents[:, 0] - 30.0, cents[:, 1] + 85.0)
        assert np.all(np.minimum(d1, d2) < 5.0)  # within ~5 degrees of a center

    def test_unique_ids(self):
        ds = generate(intercept_only_spec(0.0, 0.0, n=150, seed=3))
        ids = [o.id for o in ds.observations]
        assert len(set(ids)) == len(ids)


class TestPaperScalePreset:
    def test_structure(self):
        spec = paper_scale_spec(seed=42)
        assert spec.n == 2947 and spec.seed == 42
        assert spec.covariates == ()
        # the intercepts are checked in; they must be the roots the solve gave, bit for bit
        from scipy.optimize import brentq

        lam = brentq(lambda v: v / (1.0 - np.exp(-v)) - PAPER_SCALE_MEAN_POSITIVE, 1e-9, 50.0)
        p = (PAPER_SCALE_ZERO_SHARE - np.exp(-lam)) / (1.0 - np.exp(-lam))
        assert spec.beta == (float(np.log(lam)),)
        assert spec.gamma == (float(np.log(p / (1.0 - p))),)
        # and they solve: zero share 0.505, mean positive count 2
        lam = math.exp(spec.beta[0])
        p = 1.0 / (1.0 + math.exp(-spec.gamma[0]))
        assert p + (1 - p) * math.exp(-lam) == pytest.approx(0.505, abs=1e-10)
        assert lam / (1.0 - math.exp(-lam)) == pytest.approx(2.0, abs=1e-9)

    def test_zero_share_in_band(self):
        for seed in range(5):
            ds = generate(paper_scale_spec(seed=seed))
            share = float(np.mean(ds.counts() == 0))
            assert 0.485 <= share <= 0.525


class TestSpecJson:
    def test_round_trip(self):
        spec = DgpSpec(
            n=50,
            covariates=(("x", Normal(0.5, 2.0)), ("d", Bernoulli(0.25)), ("u", Uniform(0, 3))),
            beta=(0.1, 0.2, 0.3, -0.1),
            gamma=(-0.4, 0.0, 0.1, 0.2),
            layout=Clustered(centers=((40.0, -100.0),), spread_km=75.0),
            seed=31,
        )
        assert dgp_spec_from_json(dgp_spec_to_json(spec)) == spec

    def test_round_trip_uniform_square(self):
        spec = intercept_only_spec(0.3, -0.2, n=10, seed=1)
        assert dgp_spec_from_json(dgp_spec_to_json(spec)) == spec

    def test_preset_document(self):
        spec = dgp_spec_from_json('{"preset": "paper-scale", "seed": 11}')
        assert spec == paper_scale_spec(seed=11)

    def test_unknown_preset(self):
        with pytest.raises(InvalidSpec):
            dgp_spec_from_json('{"preset": "nope"}')

    @pytest.mark.parametrize(
        "text",
        [
            "not json at all",
            "[1, 2]",
            '{"n": 10}',
            '{"n": 10, "covariates": [], "beta": [0.1], "gamma": [0.1, 0.2],'
            ' "layout": {"type": "uniform_square", "side_km": 10}, "seed": 1}',
            '{"n": 10, "covariates": [{"name": "x", "distribution": {"type": "cauchy"}}],'
            ' "beta": [0.1, 0.2], "gamma": [0.1, 0.2],'
            ' "layout": {"type": "uniform_square", "side_km": 10}, "seed": 1}',
            '{"n": 2.5, "covariates": [], "beta": [0.1], "gamma": [0.1],'
            ' "layout": {"type": "uniform_square", "side_km": 10}, "seed": 1}',
        ],
    )
    def test_bad_documents(self, text):
        with pytest.raises(InvalidSpec):
            dgp_spec_from_json(text)

    @pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"], ids=["bytes", "bom-bytes"])
    def test_utf8_bytes_and_byte_order_marks(self, mark):
        spec = intercept_only_spec(0.3, -0.2, n=10, seed=1)
        text = dgp_spec_to_json(spec)
        assert dgp_spec_from_json(mark + text.encode()) == spec
        assert dgp_spec_from_json("\ufeff" + text) == spec  # a str drops one leading U+FEFF
        assert DgpSpec.from_dict(json.loads(text)) == spec

    @pytest.mark.parametrize(
        "document, message",
        [
            (b"\xff", "spec is not UTF-8 text (invalid start byte b'\\xff')"),
            (b"\xef\xbb\xbf\xef\xbb\xbf{}", "spec is not valid JSON: Unexpected UTF-8 BOM"),
            ('{"n": ' + "7" * 5000 + "}", "spec is not valid JSON: Exceeds the limit (4300 digits)"),
            ("[" * 200_000, "spec is not valid JSON: maximum recursion depth exceeded"),
            (5, "spec must be text or bytes, got 5"),
            (None, "spec must be text or bytes, got None"),
        ],
        ids=["byte-0xff", "two-byte-order-marks", "huge-integer", "deep-nesting", "int", "none"],
    )
    def test_odd_documents_are_invalid_spec(self, document, message):
        with pytest.raises(InvalidSpec) as caught:
            dgp_spec_from_json(document)
        assert str(caught.value).startswith(message)

    def test_from_dict_refuses_a_non_object(self):
        with pytest.raises(InvalidSpec, match="spec must be an object, got '{}'"):
            DgpSpec.from_dict("{}")


class TestDgpSpecValidation:
    def test_n_positive(self):
        with pytest.raises(InvalidSpec):
            intercept_only_spec(0.0, 0.0, n=0)

    def test_coefficient_lengths(self):
        with pytest.raises(InvalidSpec):
            DgpSpec(
                n=10,
                covariates=(("x", Normal(0, 1)),),
                beta=(0.1,),
                gamma=(0.1, 0.2),
                layout=UniformSquare(100.0),
                seed=0,
            )

    @pytest.mark.parametrize("n", [2.5, 10.0, "10", True])
    def test_n_must_be_an_integer(self, n):
        with pytest.raises(InvalidSpec, match="n must be an integer"):
            intercept_only_spec(0.0, 0.0, n=n)

    def test_n_below_two_to_the_32(self):
        with pytest.raises(InvalidSpec, match=r"DgpSpec n must be an integer within \[1, 2\*\*32\)"):
            intercept_only_spec(0.0, 0.0, n=2**32)
        assert intercept_only_spec(0.0, 0.0, n=2**32 - 1).n == 2**32 - 1

    @pytest.mark.parametrize("seed", [-1, -(2**70), 1.5, 2.0, "3", True, None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(InvalidSpec, match="DgpSpec seed must be an integer >= 0"):
            intercept_only_spec(0.0, 0.0, n=10, seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**200, np.int64(5), np.uint64(2**64 - 1)])
    def test_integer_seeds_accepted(self, seed):
        spec = intercept_only_spec(0.0, 0.0, n=10, seed=seed)
        assert type(spec.seed) is int and spec.seed == seed

    @pytest.mark.parametrize("seed", ["-1", "1.5", '"3"'])
    def test_bad_seed_in_json(self, seed):
        with pytest.raises(InvalidSpec, match="DgpSpec seed must be an integer >= 0"):
            dgp_spec_from_json('{"preset": "paper-scale", "seed": %s}' % seed)
        with pytest.raises(InvalidSpec, match="DgpSpec seed must be an integer >= 0"):
            dgp_spec_from_json(
                '{"n": 10, "covariates": [], "beta": [0.1], "gamma": [0.1],'
                ' "layout": {"type": "uniform_square", "side_km": 10}, "seed": %s}' % seed
            )

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Normal("abc", 1.0),
            lambda: Normal("1.5", 1),
            lambda: Normal(0.0, True),
            lambda: Normal(0.0, math.inf),
            lambda: Bernoulli(-0.1),
            lambda: Uniform(2.0, 1.0),
            lambda: Uniform(-1e308, 1e308),
            lambda: UniformSquare(-1.0),
            lambda: UniformSquare(np.nextafter(MAX_SIDE_KM, np.inf)),
            lambda: Clustered(centers=((40.0,),), spread_km=1.0),
            lambda: Clustered(centers=((40.0, 190.0),), spread_km=1.0),
            lambda: Clustered(centers=(("north", -100.0),), spread_km=1.0),
            lambda: Clustered(centers=(("40", -100.0),), spread_km=1.0),
        ],
        ids=[
            "normal-mu-text", "normal-mu-numeric-text", "normal-sigma-bool", "normal-sigma-inf", "bernoulli-negative", "uniform-reversed",
            "uniform-range-overflow", "square-negative", "square-beyond-pole-to-pole",
            "center-one-number", "center-longitude-190", "center-text", "center-numeric-text",
        ],
    )
    def test_descriptor_domains(self, make):
        # numpy would raise or clip for each of these
        with pytest.raises(InvalidSpec):
            make()

    def test_descriptor_fields_are_floats(self):
        assert Uniform(0, 3) == Uniform(0.0, 3.0) and type(Uniform(0, 3).b) is float
        assert Clustered(centers=[[40, -100]], spread_km=5).centers == ((40.0, -100.0),)
        assert '"b": 3.0' in dgp_spec_to_json(
            DgpSpec(10, (("u", Uniform(0, 3)),), (0.1, 0.2), (0.1, 0.2), UniformSquare(1), 0)
        )

    @pytest.mark.parametrize(
        "covariates, layout",
        [((("x", "normal"),), UniformSquare(1.0)), ((), (40.0, -100.0))],
        ids=["distribution", "layout"],
    )
    def test_descriptor_types(self, covariates, layout):
        k = len(covariates) + 1
        with pytest.raises(InvalidSpec, match="must be one of"):
            DgpSpec(10, covariates, (0.1,) * k, (0.1,) * k, layout, seed=0)

    @pytest.mark.parametrize("beta", [("0.3", 0.1), (True, 0.1)], ids=["string", "bool"])
    def test_coefficients_must_be_numbers(self, beta):
        message = f"DgpSpec beta[0] must be a number, got {beta[0]!r}"
        with pytest.raises(InvalidSpec, match=re.escape(message)):
            DgpSpec(10, (("x", Normal(0, 1)),), beta, (0.1, 0.2), UniformSquare(1.0), 0)

    @pytest.mark.parametrize(
        "field, value, message",
        [("covariates", None, "covariates must be "),
         ("covariates", [1], "covariates[0] must be a list of values, got 1"),
         ("beta", None, "beta must be "), ("beta", 1.0, "beta must be "),
         ("gamma", [[0.1]], "gamma[0] must be a number, got [0.1]")],
        ids=["covariates-none", "covariates-number", "beta-none", "beta-number", "gamma-nested"],
    )
    def test_sequence_fields_have_their_kind(self, field, value, message):
        fields = {"n": 10, "covariates": (), "beta": (0.1,), "gamma": (0.1,),
                  "layout": UniformSquare(1.0), "seed": 0}
        with pytest.raises(InvalidSpec, match=re.escape(f"DgpSpec {message}")):
            DgpSpec(**{**fields, field: value})

    @pytest.mark.parametrize("name", [1, None, ("x",)], ids=["int", "none", "tuple"])
    def test_covariate_names_must_be_strings(self, name):
        with pytest.raises(InvalidSpec, match="covariate names must be unique strings"):
            DgpSpec(10, ((name, Normal(0, 1)),), (0.1, 0.2), (0.1, 0.2), UniformSquare(1.0), 0)

    @pytest.mark.parametrize("name", ["Intercept", "inflate:x"])
    def test_covariate_may_not_take_a_coefficient_name(self, name):
        message = f"covariate {name!r} is 'Intercept' or starts with 'inflate:'"
        with pytest.raises(InvalidSpec, match=re.escape(message)):
            DgpSpec(10, ((name, Normal(0, 1)), ("x2", Normal(0, 1))), (0.5, 1.5, 0.2),
                    (0.1, 0.2, 0.3), UniformSquare(100.0), 1)

    def test_duplicate_covariate_names(self):
        with pytest.raises(InvalidSpec):
            DgpSpec(
                n=10,
                covariates=(("x", Normal(0, 1)), ("x", Uniform(0, 1))),
                beta=(0.1, 0.2, 0.3),
                gamma=(0.1, 0.2, 0.3),
                layout=UniformSquare(100.0),
                seed=0,
            )


class TestRecoveryTrial:
    def test_poisson_dgp_poisson_model(self):
        spec = DgpSpec(
            n=4000,
            covariates=(("x", Normal(0, 1)),),
            beta=(0.5, 0.4),
            gamma=(-40.0, 0.0),  # effectively no inflation
            layout=UniformSquare(1000.0),
            seed=21,
        )
        report = recovery_trial(spec, ModelSpec(family="poisson", count_covariates=("x",)))
        count_rows = [r for r in report.rows if not r.name.startswith("inflate:")]
        assert all(r.z_gap <= 3.0 for r in count_rows)

    def test_zip_dgp_plain_poisson_shows_overdispersion(self):
        spec = intercept_only_spec(math.log(2.0), 0.0, n=5000, seed=22)  # p = 0.5
        dataset = generate(spec)
        report = recovery_trial(spec, ModelSpec(family="poisson"))
        counts = dataset.counts().astype(float)
        fitted_mean = math.exp(report.fit_result.coefficient("Intercept").estimate)
        assert counts.var(ddof=1) > fitted_mean

    def test_intercept_only_zip_recovery(self):
        # truth (p, lambda) = (0.4, 2); transformed estimates within 3 delta-method SEs
        spec = intercept_only_spec(
            math.log(2.0), math.log(0.4 / 0.6), n=5000, seed=23
        )
        report = recovery_trial(spec, ModelSpec(family="zip"))
        assert report.flagged == ()
        beta_row = report.fit_result.coefficient("Intercept")
        gamma_row = report.fit_result.coefficient("inflate:Intercept")
        lam_hat = math.exp(beta_row.estimate)
        p_hat = 1.0 / (1.0 + math.exp(-gamma_row.estimate))
        assert abs(lam_hat - 2.0) <= 3.0 * lam_hat * beta_row.std_error
        assert abs(p_hat - 0.4) <= 3.0 * p_hat * (1 - p_hat) * gamma_row.std_error

    def test_logit_has_no_truth(self):
        spec = intercept_only_spec(0.0, 0.0, n=100)
        with pytest.raises(InvalidSpec):
            recovery_trial(spec, ModelSpec(family="logit"))

    def test_model_without_an_intercept_has_no_truth(self):
        spec = intercept_only_spec(0.0, 0.0, n=100)
        with pytest.raises(InvalidSpec, match="recovery_trial: spec truths include an intercept"):
            recovery_trial(spec, ModelSpec(family="poisson", add_intercept=False))
