"""The one field checker, ``exceptions.check_fields``: every constructor field it guards
refuses a value of the wrong kind with ``InvalidSpec: <Class> <field> must be …`` and
stores a value of the right kind as that kind."""

import numpy as np
import pytest

from geocount.data import CountyObservation
from geocount.exceptions import InvalidSpec
from geocount.fitting import OptimOptions
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
    CountyObservation: {"id": "a", "centroid": (40.0, -90.0), "count": 3},
}
#: The fields of each constructor that ``check_fields`` guards.
GUARDED = {
    Normal: ("mu", "sigma"),
    Bernoulli: ("q",),
    Uniform: ("a", "b"),
    UniformSquare: ("side_km",),
    Clustered: ("spread_km",),
    DgpSpec: ("n", "seed"),
    DistanceBand: ("d_km",),
    KNearest: ("k",),
    OptimOptions: ("max_iterations", "gradient_tolerance", "step_halving_max", "ridge_floor"),
    CountyObservation: ("id", "count"),
}
PAIRS = [(cls, name) for cls, names in GUARDED.items() for name in names]


@pytest.mark.parametrize("cls, name", PAIRS, ids=[f"{c.__name__}-{n}" for c, n in PAIRS])
@pytest.mark.parametrize("kind", ["bool", "numeric-string", "none"])
def test_wrong_kind_is_refused(cls, name, kind):
    # a numeric string is a string, so the id field gets a number in its place
    bad = {"bool": True, "numeric-string": 1 if name == "id" else "1", "none": None}[kind]
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
