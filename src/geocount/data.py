"""Core domain types: county observations, datasets, and design matrices.

A :class:`Dataset` stores its table as read-only numpy columns; a
:class:`CountyObservation` is one row of such a table.  All types are
immutable after construction and safe to share across threads.  A field or
column of the wrong kind (a string, a bool, a float count, a ragged list) is
``InvalidSpec``.
"""

from __future__ import annotations

import math
import reprlib
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    Checked,
    ConstantColumn,
    DimensionMismatch,
    DuplicateCovariate,
    DuplicateId,
    EmptySelection,
    InvalidCoordinate,
    InvalidSpec,
    NegativeCount,
    NonFiniteCovariate,
    UnknownCovariate,
    must_be,
    rule,
)

#: A column is treated as constant when max - min falls below this value.
CONSTANT_COLUMN_TOL = 1e-12

#: The names a fit adds: the intercept's, and the prefix of each ZIP inflation coefficient's.
INTERCEPT = "Intercept"
INFLATE_PREFIX = "inflate:"


def _check_rows(latlon: np.ndarray, counts: np.ndarray, covariates: np.ndarray) -> None:
    """Validate every row at once; the error names the first bad 1-based row."""
    lat_ok = np.abs(latlon[:, 0]) <= 90.0
    lon_ok = np.abs(latlon[:, 1]) <= 180.0
    count_ok = counts >= 0
    covariates_ok = np.isfinite(covariates).all(axis=1)
    bad = np.flatnonzero(~(lat_ok & lon_ok & count_ok & covariates_ok))
    if bad.size == 0:
        return
    i = int(bad[0])
    row = i + 1
    if not lat_ok[i]:
        raise InvalidCoordinate(row, f"latitude {float(latlon[i, 0])} outside [-90, 90]")
    if not lon_ok[i]:
        raise InvalidCoordinate(row, f"longitude {float(latlon[i, 1])} outside [-180, 180]")
    if not count_ok[i]:
        raise NegativeCount(row)
    raise NonFiniteCovariate(row)


def is_lat_lon(point) -> bool:
    """A (latitude, longitude) pair within [-90, 90] x [-180, 180]."""
    return len(point) == 2 and abs(point[0]) <= 90.0 and abs(point[1]) <= 180.0


def _column(value, where: str, dtype) -> np.ndarray:
    """``value`` as a read-only ``dtype`` array, a copy so the caller's array stays writable.
    A ragged list, or a dtype of another kind, is ``InvalidSpec`` naming ``where``."""
    try:
        array = np.asarray(value)
    except ValueError:  # rows of different lengths
        got = reprlib.repr(value)
        raise InvalidSpec(f"{where} must be a rectangular array, got {got}") from None
    # float counts are refused, and bools, which numpy casts to any number
    if array.dtype == bool or not np.can_cast(array.dtype, dtype, "same_kind"):
        raise InvalidSpec(f"{where} must be {dtype.__name__} values, got {array.dtype}")
    array = array.astype(dtype)
    array.flags.writeable = False
    return array


def reject_duplicates(values, error) -> None:
    """Raise ``error(value)`` for the first value that occurs more than once."""
    if len(set(values)) != len(values):
        raise error(next(value for value, n in Counter(values).items() if n > 1))


@dataclass(frozen=True)
class CountyObservation(Checked):
    """One spatial unit: identifier, centroid, count outcome, covariates.

    Parameters
    ----------
    id : str
        Unique unit identifier (e.g. a FIPS code).
    centroid : tuple of float
        (latitude, longitude) in degrees.
    count : int
        Nonnegative integer outcome (number of institutions in the unit).
    covariates : tuple of float
        Ordered covariate values matching the owning dataset's schema.
    """

    id: str = rule(str)
    centroid: tuple[float, float] = rule(
        (float,), is_lat_lon, "a (latitude, longitude) pair within [-90, 90] x [-180, 180]")
    count: int = rule(int, lambda v: v >= 0, "an integer >= 0")
    covariates: tuple[float, ...] = rule(
        (float,), lambda v: all(map(math.isfinite, v)), "a list of finite numbers", default=())


@dataclass(frozen=True, eq=False)
class Dataset(Checked):
    """A validated county table stored as read-only numpy columns.

    ``ids`` holds one identifier per unit, ``latlon`` the (n, 2) centroids
    (latitude, longitude) in degrees, ``y`` the int64 count outcomes and
    ``covariates`` the (n, k) matrix whose columns follow ``schema``.
    ``standardization`` records the (mean, stddev) applied to each covariate
    when the dataset was standardized at ingestion; empty otherwise.
    """

    schema: tuple[str, ...] = rule((str,), wording="strings")
    ids: tuple[str, ...] = rule((str,), wording="strings")
    latlon: np.ndarray
    y: np.ndarray
    covariates: np.ndarray
    standardization: dict[str, tuple[float, float]] = rule(
        dict, wording="a dict", default_factory=dict)

    def __post_init__(self):
        super().__post_init__()
        for name, dtype in (("latlon", np.float64), ("y", np.int64), ("covariates", np.float64)):
            object.__setattr__(self, name, _column(getattr(self, name), f"Dataset {name}", dtype))
        reject_duplicates(self.schema, DuplicateCovariate)
        reject_duplicates(self.ids, DuplicateId)
        n, k = len(self.ids), len(self.schema)
        shapes = (self.latlon.shape, self.y.shape, self.covariates.shape)
        if shapes != ((n, 2), (n,), (n, k)):
            raise InvalidSpec(f"column shapes {shapes} do not fit {n} ids and {k} covariates")
        _check_rows(self.latlon, self.y, self.covariates)

    @classmethod
    def from_observations(cls, schema, observations, standardization=None) -> "Dataset":
        """Assemble a dataset from :class:`CountyObservation` rows."""
        schema, rows = tuple(schema), tuple(observations)
        return cls(
            schema=schema,
            ids=[obs.id for obs in rows],
            latlon=np.reshape([obs.centroid for obs in rows], (-1, 2)),
            y=np.array([obs.count for obs in rows], dtype=np.int64),
            covariates=np.reshape([obs.covariates for obs in rows], (len(rows), len(schema))),
            standardization=standardization or {},
        )

    @property
    def observations(self) -> tuple[CountyObservation, ...]:
        """The rows as :class:`CountyObservation` objects, built on each access."""
        return tuple(
            CountyObservation(id=i, centroid=tuple(c), count=k, covariates=tuple(v))
            for i, c, k, v in zip(
                self.ids, self.latlon.tolist(), self.y.tolist(), self.covariates.tolist()
            )
        )

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (self.schema, self.ids, self.standardization) == (
            other.schema, other.ids, other.standardization
        ) and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("latlon", "y", "covariates")
        )

    def __len__(self):
        return len(self.ids)

    def counts(self) -> np.ndarray:
        """Count outcomes in observation order."""
        return self.y

    def centroids(self) -> np.ndarray:
        """(n, 2) array of (latitude, longitude) in observation order."""
        return self.latlon

    def covariate_values(self, name: str) -> np.ndarray:
        """Values of a single named covariate in observation order."""
        if name not in self.schema:
            raise UnknownCovariate(name)
        return self.covariates[:, self.schema.index(name)]


@dataclass(frozen=True)
class DesignMatrix(Checked):
    """Numeric realization of a covariate selection.

    The intercept, when present, is column 0 of ones.  No non-intercept
    column may be constant, and no two columns may share a name.
    """

    values: np.ndarray
    column_names: tuple[str, ...] = rule((str,))
    has_intercept: bool = rule(bool)

    def __post_init__(self):
        super().__post_init__()
        vals = _column(self.values, "DesignMatrix values", np.float64)
        if vals.ndim != 2:
            raise DimensionMismatch("design matrix must be two-dimensional")
        if vals.shape[1] != len(self.column_names):
            raise DimensionMismatch("column_names length does not match matrix width")
        reject_duplicates(self.column_names, DuplicateCovariate)
        start = 1 if self.has_intercept else 0
        for j in range(start, vals.shape[1]):
            col = vals[:, j]
            if col.size and col.max() - col.min() < CONSTANT_COLUMN_TOL:
                raise ConstantColumn(self.column_names[j])
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def k(self) -> int:
        return self.values.shape[1]


def build_design(dataset: Dataset, covariate_names, add_intercept: bool) -> DesignMatrix:
    """Assemble a design matrix from named dataset covariates.

    Columns are ordered intercept first (if requested) followed by
    ``covariate_names`` in the given order; values are copied in dataset
    observation order.  Duplicate selections are rejected outright to keep
    rank-deficient designs from forming silently.
    """
    must_be(dataset, Dataset, "build_design: dataset")
    covariate_names = tuple(covariate_names)
    reject_duplicates(covariate_names, DuplicateCovariate)
    cols = [dataset.covariate_values(name) for name in covariate_names]
    if not cols and not add_intercept:
        raise EmptySelection()
    names = covariate_names
    if add_intercept:
        cols.insert(0, np.ones(len(dataset)))
        names = (INTERCEPT,) + names
    return DesignMatrix(values=np.column_stack(cols), column_names=names,
                        has_intercept=add_intercept)


def binarize_counts(dataset: Dataset) -> np.ndarray:
    """0/1 vector: element i is 1 exactly when observation i has count > 0."""
    return (must_be(dataset, Dataset, "binarize_counts: dataset").counts() > 0).astype(np.int64)
