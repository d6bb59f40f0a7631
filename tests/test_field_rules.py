"""The one field checker, ``exceptions.check_fields``: every constructor field it guards
refuses a value of the wrong kind with ``InvalidSpec: <Class> <field> must be …`` and
stores a value of the right kind as that kind, a sequence as a tuple."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geocount.data import CountyObservation, Dataset
from geocount.exceptions import GeocountError, InvalidSpec
from geocount.fitting import OptimOptions
from geocount.ingest import IngestConfig
from geocount.likelihoods import ModelSpec, Params
from geocount.simulate import Bernoulli, Clustered, DgpSpec, Normal, Uniform, UniformSquare
from geocount.spatial import DistanceBand, KNearest

#: Valid keyword arguments of each constructor.
VALID = {
    Normal: {"mu": 0.0, "sigma": 1.0},
    Bernoulli: {"q": 0.5},
    Uniform: {"a": 0.0, "b": 1.0},
    UniformSquare: {"side_km": 10.0},
    Clustered: {"centers": ((40.0, -100.0),), "spread_km": 5.0},
    DgpSpec: {"n": 10, "covariates": (), "beta": (0.1,), "gamma": (0.1,),
              "layout": UniformSquare(10.0), "seed": 0},
    DistanceBand: {"d_km": 150.0},
    KNearest: {"k": 3},
    OptimOptions: {"max_iterations": 200, "gradient_tolerance": 1e-8,
                   "step_halving_max": 30, "ridge_floor": 1e-10},
    CountyObservation: {"id": "a", "centroid": (40.0, -90.0), "count": 3, "covariates": (1.5,)},
    Dataset: {"schema": ("x",), "ids": ("a",), "latlon": [[40.0, -90.0]], "y": [1],
              "covariates": [[1.5]]},
    ModelSpec: {"family": "zip", "count_covariates": ("x",), "inflation_covariates": ("x",),
                "add_intercept": True},
    Params: {"beta": (0.1, 0.2), "gamma": (0.3,)},
    IngestConfig: {"population_column": "pop", "rate_specs": (("a", "a_rate"),),
                   "ratio_specs": (("b", "c", "b_per_c"),), "standardize": False},
}
#: The fields of each constructor that ``check_fields`` guards.
GUARDED = {
    Normal: ("mu", "sigma"),
    Bernoulli: ("q",),
    Uniform: ("a", "b"),
    UniformSquare: ("side_km",),
    Clustered: ("centers", "spread_km"),
    DgpSpec: ("n", "seed", "covariates", "beta", "gamma"),
    DistanceBand: ("d_km",),
    KNearest: ("k",),
    OptimOptions: ("max_iterations", "gradient_tolerance", "step_halving_max", "ridge_floor"),
    CountyObservation: ("id", "centroid", "count", "covariates"),
    Dataset: ("schema", "ids"),
    ModelSpec: ("count_covariates", "inflation_covariates", "add_intercept"),
    Params: ("beta", "gamma"),
    IngestConfig: ("rate_specs", "ratio_specs", "standardize"),
}
PAIRS = [(cls, name) for cls, names in GUARDED.items() for name in names]
#: Fields that hold true or false, and the one string field.
BOOLS, STRINGS = ("add_intercept", "standardize"), ("id",)


@pytest.mark.parametrize("cls, name", PAIRS, ids=[f"{c.__name__}-{n}" for c, n in PAIRS])
@pytest.mark.parametrize("kind", ["bool", "numeric-string", "none"])
def test_wrong_kind_is_refused(cls, name, kind):
    # a bool field gets 1 for the bool case, and the string field a number for the string case
    bad = {"bool": 1 if name in BOOLS else True,
           "numeric-string": 1 if name in STRINGS else "1", "none": None}[kind]
    if (cls, name, bad) == (Params, "gamma", None):  # a model without inflation
        assert cls(**{**VALID[cls], name: bad}).gamma is None
        return
    with pytest.raises(InvalidSpec) as info:
        cls(**{**VALID[cls], name: bad})
    assert str(info.value).startswith(f"{cls.__name__} {name} must be ")
    assert str(info.value).endswith(f", got {bad!r}")


@pytest.mark.parametrize(
    "make, name, kind",
    [
        (lambda: Normal(0, np.float32(2)), "sigma", float),
        (lambda: UniformSquare(10), "side_km", float),
        (lambda: DistanceBand(150), "d_km", float),
        (lambda: KNearest(np.int64(3)), "k", int),
        (lambda: OptimOptions(gradient_tolerance=1), "gradient_tolerance", float),
        (lambda: DgpSpec(**{**VALID[DgpSpec], "n": np.uint32(10)}), "n", int),
        (lambda: CountyObservation("a", (40.0, -90.0), np.int64(3)), "count", int),
    ],
)
def test_fields_are_stored_as_their_kind(make, name, kind):
    assert type(getattr(make(), name)) is kind


@pytest.mark.parametrize(
    "make, name, expected",
    [
        (lambda: CountyObservation("a", np.array([40, -90]), 1), "centroid", (40.0, -90.0)),
        (lambda: CountyObservation("a", [40.0, -90.0], 1, [1, 2.5]), "covariates", (1.0, 2.5)),
        (lambda: Clustered([[40, -100]], 5.0), "centers", ((40.0, -100.0),)),
        (lambda: DgpSpec(**{**VALID[DgpSpec], "beta": [1]}), "beta", (1.0,)),
        (lambda: Dataset(**{**VALID[Dataset], "ids": ["a"]}), "ids", ("a",)),
        (lambda: ModelSpec("poisson", ["x", "y"]), "count_covariates", ("x", "y")),
        (lambda: IngestConfig(ratio_specs=[["b", "c", "q"]]), "ratio_specs", (("b", "c", "q"),)),
    ],
)
def test_sequences_are_stored_as_tuples_of_their_kind(make, name, expected):
    # the repr tells 40 from 40.0 and a list from a tuple
    assert repr(getattr(make(), name)) == repr(expected)


def test_params_are_float_arrays():
    params = Params(beta=[1, 2], gamma=np.array([3], dtype=np.int64))
    assert params.beta.dtype == params.gamma.dtype == np.float64
    assert params.beta.tolist() == [1.0, 2.0] and params.gamma.tolist() == [3.0]


#: Values of every wrong kind, and of some right kinds, for any field.
ODD_VALUES = [None, True, "1", "ab", 10**400, math.nan, [], [[1.0]], {}]


@settings(max_examples=60, deadline=None)
@given(cls=st.sampled_from(list(VALID)), data=st.data(), value=st.sampled_from(ODD_VALUES))
def test_any_field_value_is_taken_or_refused_with_a_typed_error(cls, data, value):
    name = data.draw(st.sampled_from(list(VALID[cls])))
    try:
        cls(**{**VALID[cls], name: value})
    except GeocountError:
        pass
