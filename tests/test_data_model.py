"""Tests for the core domain types and design-matrix construction."""

import math
import re

import numpy as np
import pytest

from geocount import (
    CountyObservation,
    Dataset,
    DesignMatrix,
    binarize_counts,
    build_design,
)
from geocount.exceptions import (
    ConstantColumn,
    DimensionMismatch,
    DuplicateCovariate,
    DuplicateId,
    EmptySelection,
    InvalidSpec,
    UnknownCovariate,
)
from geocount.simulate import Bernoulli, DgpSpec, Normal, UniformSquare, generate


def make_dataset(counts, covariates=None, schema=()):
    """Dataset with synthetic ids and centroids around a fixed point."""
    covariates = covariates or [()] * len(counts)
    obs = tuple(
        CountyObservation(
            id=f"c{i}",
            centroid=(40.0 + 0.01 * i, -90.0 + 0.01 * i),
            count=c,
            covariates=tuple(v),
        )
        for i, (c, v) in enumerate(zip(counts, covariates))
    )
    return Dataset.from_observations(tuple(schema), obs)


class TestCountyObservation:
    def test_valid(self):
        obs = CountyObservation(id="55025", centroid=(43.0, -89.4), count=12, covariates=(1.0,))
        assert obs.count == 12
        assert obs.covariates == (1.0,)

    @pytest.mark.parametrize("count", [-1, 2.5, True, 3.0])
    def test_bad_count(self, count):
        with pytest.raises(InvalidSpec):
            CountyObservation(id="x", centroid=(0.0, 0.0), count=count)

    @pytest.mark.parametrize("centroid", [(91.0, 0.0), (-91.0, 0.0), (0.0, 181.0), (0.0, -181.0)])
    def test_bad_centroid(self, centroid):
        with pytest.raises(ValueError):
            CountyObservation(id="x", centroid=centroid, count=0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_covariate(self, bad):
        with pytest.raises(ValueError):
            CountyObservation(id="x", centroid=(0.0, 0.0), count=0, covariates=(bad,))

    @pytest.mark.parametrize(
        "centroid, message",
        [
            (("40", "-90"), "centroid[0] must be a number, got '40'"),
            ((40.0,), "centroid must be a "),
            (None, "centroid must be a "),
            ((40.0, -90.0, 7.0), "centroid must be a "),
        ],
        ids=["strings", "one-number", "none", "three-numbers"],
    )
    def test_centroid_must_be_a_pair_of_numbers(self, centroid, message):
        with pytest.raises(InvalidSpec, match=re.escape(f"CountyObservation {message}")):
            CountyObservation(id="x", centroid=centroid, count=0)

    @pytest.mark.parametrize(
        "covariates, message",
        [("12", "covariates must be a list"), ((True,), "covariates[0] must be a number, got True"),
         (None, "covariates must be a list")],
        ids=["string", "bool", "none"],
    )
    def test_covariates_must_be_a_list_of_numbers(self, covariates, message):
        with pytest.raises(InvalidSpec, match=re.escape(f"CountyObservation {message}")):
            CountyObservation(id="x", centroid=(0.0, 0.0), count=0, covariates=covariates)


class TestDataset:
    def test_duplicate_id(self):
        obs = (
            CountyObservation(id="a", centroid=(0.0, 0.0), count=0),
            CountyObservation(id="a", centroid=(1.0, 1.0), count=1),
        )
        with pytest.raises(DuplicateId):
            Dataset.from_observations((), obs)

    @pytest.mark.parametrize(
        "field, value",
        [("ids", [5]), ("ids", [None]), ("schema", [1])],
        ids=["int-id", "none-id", "int-name"],
    )
    def test_ids_and_names_must_be_strings(self, field, value):
        columns = {"schema": ["x"], "ids": ["a"], "latlon": [[40.0, -90.0]], "y": [1],
                   "covariates": [[1.0]]}
        message = f"Dataset {field}[0] must be a string, got {value[0]!r}"
        with pytest.raises(InvalidSpec, match=re.escape(message)):
            Dataset(**{**columns, field: value})

    def test_a_long_id_list_names_its_first_bad_id(self):
        ids = [f"a{i}" for i in range(30)] + [5]
        with pytest.raises(InvalidSpec, match=re.escape("Dataset ids[30] must be a string, got 5")):
            Dataset(schema=(), ids=ids, latlon=[[40.0, -90.0]] * 31, y=[1] * 31,
                    covariates=[[]] * 31)

    @pytest.mark.parametrize("field", ["latlon", "y", "covariates"])
    def test_ragged_column_is_invalid_spec(self, field):
        columns = {"schema": (), "ids": ["a", "b"], "latlon": [[40.0, -90.0], [41.0, -90.0]],
                   "y": [1, 2], "covariates": [[], []]}
        ragged = {"latlon": [[40.0], [41.0, -90.0]], "y": [[1], [1, 2]], "covariates": [[], [1.0]]}
        with pytest.raises(InvalidSpec, match=f"Dataset {field} must be a rectangular array, got "):
            Dataset(**{**columns, field: ragged[field]})

    @pytest.mark.parametrize("value", [None, True, "ab"])
    def test_standardization_must_be_a_dict(self, value):
        columns = {"schema": (), "ids": [], "latlon": np.empty((0, 2)), "y": [],
                   "covariates": np.empty((0, 0))}
        with pytest.raises(InvalidSpec, match="Dataset standardization must be a dict, got "):
            Dataset(**columns, standardization=value)

    def test_observation_id_must_be_a_string(self):
        with pytest.raises(InvalidSpec, match="CountyObservation id must be a string, got 5"):
            CountyObservation(id=5, centroid=(40.0, -90.0), count=1)

    def test_schema_conformity(self):
        obs = (CountyObservation(id="a", centroid=(0.0, 0.0), count=0, covariates=(1.0,)),)
        with pytest.raises(ValueError):
            Dataset.from_observations(("x", "y"), obs)

    def test_column_shape_mismatch_is_invalid_spec(self):
        with pytest.raises(InvalidSpec, match="column shapes"):
            Dataset(schema=("x", "y"), ids=["a"], latlon=[[40.0, -90.0]], y=[1],
                    covariates=[[1.0]])

    @pytest.mark.parametrize(
        "field, value",
        [
            ("latlon", [["40", "-90"]]),
            ("latlon", np.array([[40.0, None]], dtype=object)),
            ("latlon", [[True, False]]),
            ("y", ["1"]),
            ("y", np.array([1], dtype=object)),
            ("y", [True]),
            ("y", [1.0]),
            ("covariates", [["1.5"]]),
            ("covariates", np.array([[1.5]], dtype=object)),
            ("covariates", [[True]]),
        ],
        ids=["latlon-string", "latlon-object", "latlon-bool", "y-string", "y-object", "y-bool",
             "y-float", "covariates-string", "covariates-object", "covariates-bool"],
    )
    def test_columns_must_be_numeric(self, field, value):
        columns = {"schema": ["x"], "ids": ["a"], "latlon": [[40.0, -90.0]], "y": [1],
                   "covariates": [[1.0]]}
        with pytest.raises(InvalidSpec, match=f"Dataset {field} must be (float64|int64) values, got "):
            Dataset(**{**columns, field: value})

    def test_observations_round_trip(self):
        spec = DgpSpec(40, (("x", Normal(0.0, 1.0)), ("b", Bernoulli(0.5))), (0.2, 0.3, -0.1),
                       (0.0, 0.1, 0.2), UniformSquare(500.0), seed=3)
        ds = generate(spec)
        assert Dataset.from_observations(ds.schema, ds.observations) == ds

    def test_accessors(self):
        ds = make_dataset([0, 3, 1], covariates=[(1.0,), (2.0,), (3.0,)], schema=("a",))
        np.testing.assert_array_equal(ds.counts(), [0, 3, 1])
        np.testing.assert_array_equal(ds.covariate_values("a"), [1.0, 2.0, 3.0])
        assert ds.centroids().shape == (3, 2)


class TestBuildDesign:
    def test_intercept_plus_column(self):
        ds = make_dataset(
            [1, 0, 2],
            covariates=[(1.0, 9.0), (2.0, 9.0), (3.0, 9.0)],
            schema=("a", "b"),
        )
        dm = build_design(ds, ["a"], add_intercept=True)
        assert dm.values.shape == (3, 2)
        np.testing.assert_array_equal(dm.values[:, 0], [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(dm.values[:, 1], [1.0, 2.0, 3.0])
        assert dm.column_names == ("Intercept", "a")

    def test_covariate_named_intercept_beside_the_intercept(self):
        ds = make_dataset([1, 0], covariates=[(1.0,), (2.0,)], schema=("Intercept",))
        assert build_design(ds, ["Intercept"], add_intercept=False).column_names == ("Intercept",)
        with pytest.raises(DuplicateCovariate, match="'Intercept'"):
            build_design(ds, ["Intercept"], add_intercept=True)

    def test_duplicate_selection_beats_unknown(self):
        ds = make_dataset([1, 0], covariates=[(1.0,), (2.0,)], schema=("a",))
        with pytest.raises(DuplicateCovariate):
            build_design(ds, ["a", "a"], add_intercept=False)

    def test_unknown_covariate(self):
        ds = make_dataset([1, 0], covariates=[(1.0,), (2.0,)], schema=("a",))
        with pytest.raises(UnknownCovariate):
            build_design(ds, ["zzz"], add_intercept=True)

    def test_constant_column_rejected(self):
        ds = make_dataset(
            [1, 0, 2],
            covariates=[(1.0, 5.0), (2.0, 5.0), (3.0, 5.0)],
            schema=("a", "b"),
        )
        with pytest.raises(ConstantColumn) as err:
            build_design(ds, ["b"], add_intercept=True)
        assert err.value.name == "b"

    def test_empty_selection(self):
        ds = make_dataset([1, 0])
        with pytest.raises(EmptySelection):
            build_design(ds, [], add_intercept=False)

    def test_intercept_only_is_allowed(self):
        ds = make_dataset([1, 0])
        dm = build_design(ds, [], add_intercept=True)
        assert dm.values.shape == (2, 1)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        vals = rng.normal(size=(20, 3))
        ds = make_dataset(
            list(rng.integers(0, 5, size=20)),
            covariates=[tuple(row) for row in vals],
            schema=("a", "b", "c"),
        )
        d1 = build_design(ds, ["c", "a"], add_intercept=True)
        d2 = build_design(ds, ["c", "a"], add_intercept=True)
        assert d1.values.tobytes() == d2.values.tobytes()

    def test_values_immutable(self):
        ds = make_dataset([1, 0], covariates=[(1.0,), (2.0,)], schema=("a",))
        dm = build_design(ds, ["a"], add_intercept=True)
        with pytest.raises(ValueError):
            dm.values[0, 0] = 5.0


class TestDesignMatrixType:
    def test_column_names_are_unique(self):
        values = np.column_stack([np.ones(3), [1.0, 2.0, 3.0]])
        with pytest.raises(DuplicateCovariate, match="'a'"):
            DesignMatrix(values=values, column_names=("a", "a"), has_intercept=False)

    def test_intercept_column_exempt_from_constant_check(self):
        DesignMatrix(
            values=np.column_stack([np.ones(3), [1.0, 2.0, 3.0]]),
            column_names=("Intercept", "a"),
            has_intercept=True,
        )

    @pytest.mark.parametrize(
        "values, names", [(np.ones(3), ("a",)), (np.ones((3, 2)), ("a",))],
        ids=["one-dimensional", "names-short"],
    )
    def test_shape_is_dimension_mismatch(self, values, names):
        with pytest.raises(DimensionMismatch):
            DesignMatrix(values=values, column_names=names, has_intercept=False)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("column_names", "ab", "column_names must be a list of strings, got 'ab'"),
            ("column_names", [5], "column_names[0] must be a string, got 5"),
            ("column_names", None, "column_names must be a list of strings, got None"),
            ("column_names", True, "column_names must be a list of strings, got True"),
            ("has_intercept", "no", "has_intercept must be true or false, got 'no'"),
            ("has_intercept", 0, "has_intercept must be true or false, got 0"),
            ("has_intercept", math.nan, "has_intercept must be true or false, got nan"),
            ("values", "ab", "values must be float64 values, got <U2"),
            ("values", {}, "values must be float64 values, got object"),
            ("values", 10**400, "values must be float64 values, got object"),
            ("values", [[1.0], [1.0, 2.0]], "values must be a rectangular array, got "),
        ],
    )
    def test_fields_have_their_kind(self, field, value, message):
        fields = {"values": [[1.0], [2.0]], "column_names": ("a",), "has_intercept": False}
        with pytest.raises(InvalidSpec, match=re.escape(f"DesignMatrix {message}")):
            DesignMatrix(**{**fields, field: value})

    def test_near_constant_rejected(self):
        with pytest.raises(ConstantColumn):
            DesignMatrix(
                values=np.array([[1.0], [1.0 + 1e-13], [1.0]]),
                column_names=("a",),
                has_intercept=False,
            )


class TestBinarizeCounts:
    @pytest.mark.parametrize(
        "counts,expected",
        [
            ([0, 3, 1, 0], [0, 1, 1, 0]),
            ([0, 0, 0], [0, 0, 0]),
            ([7], [1]),
        ],
    )
    def test_examples(self, counts, expected):
        ds = make_dataset(counts)
        np.testing.assert_array_equal(binarize_counts(ds), expected)

    def test_sum_matches_nonzero_count(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            counts = rng.integers(0, 4, size=rng.integers(1, 30)).tolist()
            ds = make_dataset(counts)
            b = binarize_counts(ds)
            assert b.sum() == sum(1 for c in counts if c > 0)
            assert all((bi == 0) == (ci == 0) for bi, ci in zip(b, counts))
