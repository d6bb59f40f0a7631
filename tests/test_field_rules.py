"""Field rules, declared on the fields by ``exceptions.rule``: every constructor field with a
rule refuses a value of the wrong kind with ``InvalidSpec: <Class> <field> must be …`` and
stores a value of the right kind as that kind, a sequence as a tuple.  Every dataclass field
in geocount has a rule or is listed in ``UNCHECKED``.  Every error class builds its message
and attributes as declared, and a library argument of the wrong type is ``InvalidSpec``."""

import dataclasses
import importlib
import inspect
import io
import math
import pickle
import pkgutil

import numpy as np
import pytest

import geocount
from geocount import exceptions, fd_hessian, fit, generate, getis_ord_gstar
from geocount import binarize_counts, build_design, dgp_spec_to_json, maximize
from geocount.data import CountyObservation, Dataset, DesignMatrix
from geocount.exceptions import Checked, GeocountError, InvalidSpec, field_rules
from geocount.fitting import FitResult, OptimOptions
from geocount.ingest import IngestConfig, read_dataset, write_dataset
from geocount.likelihoods import FamilyModel, ModelSpec, Params
from geocount.simulate import Bernoulli, Clustered, DgpSpec, Normal, RecoveryReport, RecoveryRow
from geocount.simulate import recovery_trial
from geocount.simulate import Uniform, UniformSquare
from geocount.spatial import DistanceBand, HotspotResult, KNearest, SpatialWeightsMatrix
from geocount.spatial import WeightsSummary

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
    DesignMatrix: {"values": [[1.0, 2.0], [1.0, 3.0]], "column_names": ("Intercept", "x"),
                   "has_intercept": True},
}
#: The fields of each constructor that declare a rule.
GUARDED = {cls: tuple(field_rules(cls)) for cls in VALID}
PAIRS = [(cls, name) for cls, names in GUARDED.items() for name in names]

_RESULT = "a result: the library builds it from checked inputs"
#: Every dataclass field in geocount that declares no rule, and why.
UNCHECKED = {
    **{(cls, f.name): _RESULT for cls in (FitResult, HotspotResult, WeightsSummary,
                                          SpatialWeightsMatrix, RecoveryRow, RecoveryReport)
       for f in dataclasses.fields(cls)},
    **{(FamilyModel, f.name): "a family, declared once in likelihoods.FAMILIES"
       for f in dataclasses.fields(FamilyModel)},
    **{(Dataset, name): "a column: Dataset converts it and checks its dtype, shape and rows"
       for name in ("latlon", "y", "covariates")},
    (DesignMatrix, "values"): "a matrix: DesignMatrix converts it and checks its shape",
}


def _geocount_dataclasses():
    for info in pkgutil.iter_modules(geocount.__path__):
        module = importlib.import_module(f"geocount.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls):
                yield cls


def test_every_field_has_a_rule_or_a_reason():
    found = list(_geocount_dataclasses())
    for cls in found:
        for f in dataclasses.fields(cls):
            ruled, reason = f.name in field_rules(cls), UNCHECKED.get((cls, f.name))
            assert ruled or reason, f"{cls.__name__}.{f.name} has no rule and no UNCHECKED reason"
            assert not (ruled and reason), f"{cls.__name__}.{f.name} has a rule and is UNCHECKED"
    # only the Checked base class runs rules, and VALID constructs every such class
    ruled_classes = {cls for cls in found if field_rules(cls)}
    assert ruled_classes == {cls for cls in found if issubclass(cls, Checked)} == set(VALID)
    assert {cls for cls, _ in UNCHECKED} <= set(found)


def _required(cls) -> dict:
    """The valid keyword arguments of ``cls`` for its fields that have no default."""
    return {f.name: VALID[cls][f.name] for f in dataclasses.fields(cls)
            if f.default is f.default_factory is dataclasses.MISSING}


@pytest.mark.parametrize("cls, name", PAIRS, ids=[f"{c.__name__}-{n}" for c, n in PAIRS])
@pytest.mark.parametrize("kind", ["bool", "numeric-string", "none"])
def test_wrong_kind_is_refused(cls, name, kind):
    # a bool field gets 1 for the bool case, and a string field a number for the string case
    rule_kind, _, _, takes_none = field_rules(cls)[name]
    bad = {"bool": 1 if rule_kind is bool else True,
           "numeric-string": 1 if rule_kind is str else "1", "none": None}[kind]
    if bad is None and takes_none:  # a field whose default is None takes None
        assert getattr(cls(**{**_required(cls), name: None}), name) is None
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


def test_rules_run_in_field_order():
    # seed follows n, covariates, beta, gamma and layout, so their refusals come first
    with pytest.raises(InvalidSpec, match="DgpSpec beta must be "):
        DgpSpec(**{**VALID[DgpSpec], "beta": None, "seed": None})


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Clustered([[40.0, -100.0]] * 10 + [[40.0, "x"]], 5.0),
         "Clustered centers[10][1] must be a number, got 'x'"),
        (lambda: Clustered([[40.0, -100.0], 5], 5.0),
         "Clustered centers[1] must be a list of numbers, got 5"),
        (lambda: CountyObservation("a", np.array([40.0, None]), 1),
         "CountyObservation centroid[1] must be a number, got None"),
        (lambda: IngestConfig(ratio_specs=[("a", "b", "c"), ("a", 2, "c")]),
         "IngestConfig ratio_specs[1][1] must be a string, got 2"),
    ],
)
def test_sequence_refusal_names_its_first_bad_item(make, message):
    with pytest.raises(InvalidSpec) as info:
        make()
    assert str(info.value) == message


def test_uniform_b_refusal_shows_b_as_given():
    with pytest.raises(InvalidSpec) as info:
        Uniform(1, 0)
    assert str(info.value) == "Uniform b must be a finite number >= a, got 0"


#: Values of every wrong kind, and of some right kinds, for any field.
ODD_VALUES = [None, True, "1", "ab", 10**400, math.nan, [], [[1.0]], {}, [[1.0], [1.0, 2.0]]]


def test_any_field_value_is_taken_or_refused_with_a_typed_error():
    # every value in every field of every constructor
    for cls, valid in VALID.items():
        for name in valid:
            for value in ODD_VALUES:
                try:
                    cls(**{**valid, name: value})
                except GeocountError:
                    pass


#: Every error class, built with fixed arguments: its message, whether it is a ``ValueError``
#: and its attributes.  A mistyped template or field changes a row.
ERRORS = [
    ("GeocountError", ("boom",), "boom", False, {}),
    ("UnknownCovariate", ("x",), "covariate 'x' is not in the dataset schema", False,
     {"name": "x"}),
    ("DuplicateCovariate", ("x",), "covariate 'x' selected or defined more than once", False,
     {"name": "x"}),
    ("ConstantColumn", ("c",), "column 'c' is constant", False, {"name": "c"}),
    ("EmptySelection", (), "no covariates selected and no intercept requested", False, {}),
    ("MissingColumn", ("id",), "required column 'id' not found in header", False,
     {"name": "id"}),
    ("DuplicateColumn", ("lat",), "column 'lat' appears more than once in the header", False,
     {"name": "lat"}),
    ("MalformedCsv", (3, "bad quote"), "line 3: not valid CSV: bad quote", False, {"line": 3}),
    ("MalformedCsv", (None, "r"), "not valid CSV: r", False, {"line": None}),
    ("NonNumericCell", (4, "x"), "row 4: cell in column 'x' is not numeric", False,
     {"row": 4, "column": "x"}),
    ("NegativeCount", (5,), "row 5: count outcome must be a nonnegative integer", True,
     {"row": 5}),
    ("NegativeCount", (), "count outcome must be a nonnegative integer", True, {"row": None}),
    ("NonFiniteCovariate", (6,), "row 6: covariates must be finite", True, {"row": 6}),
    ("ZeroDenominator", (7, "pop"), "row 7: zero denominator in column 'pop'", False,
     {"row": 7, "column": "pop"}),
    ("DuplicateId", ("a",), "duplicate observation id 'a'", False, {"id": "a"}),
    ("InvalidCoordinate", (8, "latitude 91.0 outside [-90, 90]"),
     "row 8: latitude 91.0 outside [-90, 90]", True,
     {"row": 8, "reason": "latitude 91.0 outside [-90, 90]"}),
    ("DimensionMismatch", ("dims",), "dims", False, {}),
    ("DomainError", ("dom",), "dom", False, {}),
    ("DegenerateOutcome", ("deg",), "deg", True, {}),
    ("NonFiniteObjective", (9,), "objective became non-finite at iteration 9", False,
     {"iteration": 9}),
    ("RankDeficientDesign", (["a", "b"],), "design matrix is rank deficient; suspect columns: a, b",
     False, {"columns": ("a", "b")}),
    ("SeparationSuspected", (), "logit fit did not converge and |x'beta| exceeds 30; "
     "complete or quasi-complete separation suspected", False, {}),
    ("SingularInformation", (), "observed information matrix is singular or indefinite", False,
     {}),
    ("ZeroStandardError", ("b",), "coefficient 'b' has zero standard error", False,
     {"name": "b"}),
    ("DegenerateGeometry", ("geo",), "geo", False, {}),
    ("KTooLarge", (8, 5), "k=8 neighbors requested but only 5 observations", False,
     {"k": 8, "n": 5}),
    ("InvalidSpec", ("spec",), "spec", True, {}),
]

ERROR_CLASSES = {name: cls for name, cls in inspect.getmembers(exceptions, inspect.isclass)
                 if issubclass(cls, GeocountError)}


def test_every_error_class_has_a_row():
    assert {name for name, *_ in ERRORS} == set(ERROR_CLASSES)


def test_only_optional_and_joined_messages_have_their_own_init():
    # a None line or row drops the message's prefix, and the columns are joined
    own = {name for name, cls in ERROR_CLASSES.items() if "__init__" in vars(cls)}
    assert own == {"GeocountError", "MalformedCsv", "NegativeCount", "RankDeficientDesign"}


@pytest.mark.parametrize("name, args, message, value_error, attributes", ERRORS,
                         ids=[f"{row[0]}-{len(row[1])}" for row in ERRORS])
def test_error_message_and_attributes(name, args, message, value_error, attributes):
    error = ERROR_CLASSES[name](*args)
    assert (str(error), error.args, error.code) == (message, (message,), name)
    assert repr(error) == f"{name}({message!r})"
    assert isinstance(error, ValueError) is value_error
    assert vars(error) == attributes


@pytest.mark.parametrize("protocol", [0, pickle.HIGHEST_PROTOCOL])
@pytest.mark.parametrize("name, args, message, value_error, attributes", ERRORS,
                         ids=[f"{row[0]}-{len(row[1])}" for row in ERRORS])
def test_error_survives_pickle(name, args, message, value_error, attributes, protocol):
    error = ERROR_CLASSES[name](*args)
    copy = pickle.loads(pickle.dumps(error, protocol))
    assert type(copy) is type(error)
    assert (str(copy), copy.args, copy.code, vars(copy)) == (message, (message,), name, attributes)


def test_declared_error_takes_exactly_its_fields():
    with pytest.raises(ValueError):
        exceptions.KTooLarge(8)
    with pytest.raises(ValueError):
        exceptions.EmptySelection("extra")


def _dataset():
    return Dataset(schema=(), ids=("a", "b"), latlon=[[40.0, -90.0], [41.0, -91.0]], y=[0, 2],
                   covariates=np.empty((2, 0)))


#: A library call with one argument of the wrong type, and the ``InvalidSpec`` it raises.
WRONG_TYPES = [
    (lambda: fit(ModelSpec("poisson"), None), "fit: dataset must be a Dataset, got None"),
    (lambda: fit(ModelSpec("poisson"), _dataset(), None),
     "fit: options must be an OptimOptions, got None"),
    (lambda: fit("poisson", _dataset()), "fit: model must be a ModelSpec, got 'poisson'"),
    (lambda: read_dataset(5, IngestConfig()),
     "read_dataset: csv_source must be a path or an open file, got 5"),
    (lambda: read_dataset(io.StringIO("id,latitude,longitude,count\n"), None),
     "read_dataset: config must be an IngestConfig, got None"),
    (lambda: write_dataset(None, io.StringIO()),
     "write_dataset: dataset must be a Dataset, got None"),
    (lambda: write_dataset(_dataset(), 5),
     "write_dataset: sink must be a path or an open file, got 5"),
    (lambda: generate(None), "generate: spec must be a DgpSpec, got None"),
    (lambda: recovery_trial(None, ModelSpec("poisson")),
     "recovery_trial: spec must be a DgpSpec, got None"),
    (lambda: recovery_trial(DgpSpec(**VALID[DgpSpec]), None),
     "recovery_trial: model must be a ModelSpec, got None"),
    (lambda: getis_ord_gstar([1.0, 2.0], None),
     "getis_ord_gstar: W must be a SpatialWeightsMatrix, got None"),
    (lambda: fd_hessian(lambda points: points, "abc"),
     "fd_hessian: theta must be a list of numbers, got 'abc'"),
    (lambda: fd_hessian(lambda points: points, [[1.0], [1.0, 2.0]]),
     "fd_hessian: theta must be a list of numbers, got [[1.0], [1.0, 2.0]]"),
    (lambda: maximize(lambda theta: 0.0, lambda points: points, "abc"),
     "maximize: init must be a list of numbers, got 'abc'"),
    (lambda: maximize(lambda theta: 0.0, lambda points: points, [0.0], None),
     "maximize: options must be an OptimOptions, got None"),
    (lambda: build_design(None, (), True), "build_design: dataset must be a Dataset, got None"),
    (lambda: binarize_counts(None), "binarize_counts: dataset must be a Dataset, got None"),
    (lambda: dgp_spec_to_json(None), "dgp_spec_to_json: spec must be a DgpSpec, got None"),
]


@pytest.mark.parametrize("call, message", WRONG_TYPES,
                         ids=[message.split(" must")[0] for _, message in WRONG_TYPES])
def test_wrong_argument_type_is_invalid_spec(call, message):
    with pytest.raises(InvalidSpec) as info:
        call()
    assert str(info.value) == message
