"""Spatial weights from point centroids and Getis-Ord hot-spot z-scores.

Distances are great-circle (haversine) kilometres on a sphere of radius
6371.0088 km.  The local statistic for unit i over values x and weights w is

    z_i = [ sum_j w_ij x_j - xbar sum_j w_ij ]
          / ( S * sqrt( [ n sum_j w_ij^2 - (sum_j w_ij)^2 ] / (n - 1) ) )

with xbar the mean of the values and S = sqrt( sum_j x_j^2 / n - xbar^2 ),
the population standard deviation.  The population form of S next to the
(n - 1) denominator term is kept exactly as printed in the source formula.
Large positive z marks clustering of high values (hot spot), large negative
z clustering of low values (cold spot); a unit with no usable neighborhood
variance scores z = 0 by convention.  scipy is imported by the functions that
call it, so that ``import geocount`` costs only numpy's start-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import _column
from .exceptions import DegenerateGeometry, DimensionMismatch, DomainError, InvalidSpec
from .exceptions import Checked, KTooLarge, must_be, rule

EARTH_RADIUS_KM = 6371.0088

HOT_99 = 2.576
HOT_95 = 1.96

# Slack on unit-sphere chord lengths when the k-d tree proposes candidates.
# Rounding in the unit vectors, the tree's distances and the haversine is
# about 1e-15 in these units; the slack only widens the candidate set, and
# the final decision is always taken on the exact haversine distance.
_CHORD_REL_SLACK = 1e-9
_CHORD_ABS_SLACK = 1e-12


@dataclass(frozen=True)
class DistanceBand(Checked):
    """Binary weights: w_ij = 1 iff the great-circle distance <= d_km."""

    d_km: float = rule(float, lambda v: 0.0 < v < math.inf, "a finite number > 0")


@dataclass(frozen=True)
class KNearest(Checked):
    """Binary weights linking each unit to its k nearest neighbors."""

    k: int = rule(int, lambda v: v >= 1, "an integer >= 1")


class HotspotClass(str, Enum):
    HOT_99 = "Hot99"
    HOT_95 = "Hot95"
    NOT_SIGNIFICANT = "NotSignificant"
    COLD_95 = "Cold95"
    COLD_99 = "Cold99"


@dataclass(frozen=True)
class SpatialWeightsMatrix:
    """Sparse nonnegative n-by-n interaction weights.

    w_ii = 1 for every unit when ``include_self`` (the usual convention for
    the focal statistic), 0 otherwise.
    """

    n: int
    entries: scipy.sparse.csr_matrix
    scheme: DistanceBand | KNearest
    include_self: bool

    def row_sums(self) -> np.ndarray:
        return np.asarray(self.entries.sum(axis=1)).ravel()

    def row_square_sums(self) -> np.ndarray:
        return np.asarray(self.entries.power(2).sum(axis=1)).ravel()

    def summary(self) -> WeightsSummary:
        """Neighbor counts per unit, not counting the unit's own weight."""
        neighbors = np.diff(self.entries.indptr) - int(self.include_self)
        return WeightsSummary(
            nnz=int(self.entries.nnz),
            min_neighbors=int(neighbors.min()),
            median_neighbors=float(np.median(neighbors)),
            max_neighbors=int(neighbors.max()),
            islands=tuple(np.flatnonzero(neighbors == 0).tolist()),
        )


@dataclass(frozen=True)
class WeightsSummary:
    """Shape of a weights matrix.  An island is a unit with no neighbor: its
    only weight, if any, is its own, so its G* z-score uses no neighborhood."""

    nnz: int
    min_neighbors: int
    median_neighbors: float
    max_neighbors: int
    islands: tuple[int, ...]


@dataclass(frozen=True)
class HotspotResult:
    """Per-unit z-scores with hot/cold classification."""

    z: np.ndarray
    classes: tuple[HotspotClass, ...]
    mean: float
    scale: float


def haversine_km(lat1, lon1, lat2, lon2):
    """Great-circle distance in km between (lat, lon) points in degrees."""
    lat1, lon1, lat2, lon2 = map(np.radians, (lat1, lon1, lat2, lon2))
    return _haversine_radians(lat1, lon1, np.cos(lat1), lat2, lon2, np.cos(lat2))


def _haversine_radians(lat1, lon1, cos_lat1, lat2, lon2, cos_lat2):
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    a = np.sin(dlat / 2.0) ** 2 + cos_lat1 * cos_lat2 * np.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


class _Sphere:
    """Centroids with per-unit radians and cosines computed once.

    ``km(i, j)`` equals ``haversine_km`` from unit i to unit j bit for bit,
    as both evaluate the same elementwise operations in the same order.
    """

    def __init__(self, lat, lon):
        import scipy.spatial
        self.lat, self.lon = np.radians(lat), np.radians(lon)
        self.cos_lat = np.cos(self.lat)
        self.tree = scipy.spatial.cKDTree(
            np.column_stack(
                (self.cos_lat * np.cos(self.lon), self.cos_lat * np.sin(self.lon), np.sin(self.lat))
            )
        )

    def km(self, i, j):
        return _haversine_radians(
            self.lat[i], self.lon[i], self.cos_lat[i], self.lat[j], self.lon[j], self.cos_lat[j]
        )


def _chord_to_km(chord):
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0))


def _km_to_chord(d_km: float) -> float:
    return 2.0 * np.sin(min(d_km / (2.0 * EARTH_RADIUS_KM), np.pi / 2.0))


def _all_coincident(lat, lon) -> bool:
    """True iff every pairwise haversine distance is exactly 0.

    Distinct coordinates almost always lie a positive distance from unit 0,
    which settles the question in O(n).  Only when every unit is within
    underflow range of unit 0 are the distinct points compared pairwise.
    """
    if np.any(haversine_km(lat[0], lon[0], lat, lon) > 0.0):
        return False
    distinct = np.unique(np.column_stack((lat, lon)), axis=0)
    return not any(
        np.any(haversine_km(la, lo, distinct[:, 0], distinct[:, 1]) > 0.0) for la, lo in distinct
    )


def _band_pairs(sphere: _Sphere, d_km: float):
    """(row, col) of every ordered pair i != j with haversine(i, j) <= d_km."""
    radius = _km_to_chord(d_km) * (1.0 + _CHORD_REL_SLACK) + _CHORD_ABS_SLACK
    i, j = sphere.tree.query_pairs(radius, output_type="ndarray").T
    # the haversine is symmetric bit for bit (a - b = -(b - a), sin is odd,
    # products commute), so one orientation decides both links
    near = sphere.km(i, j) <= d_km
    i, j = i[near], j[near]
    return np.concatenate((i, j)), np.concatenate((j, i))


def _knn_pairs(sphere: _Sphere, k: int):
    """(row, col) linking each unit to its k nearest others, ties to the smaller index.

    A unit whose k-th distance is shared by t other units needs about k + t
    candidates, so heavily duplicated centroids cost more than k per unit.
    """
    n = sphere.lat.shape[0]
    cols = np.empty((n, k), dtype=np.int64)
    todo = np.arange(n)
    m = min(k + 2, n)  # the unit itself, k neighbors and one farther candidate
    while todo.size:
        chord, cand = sphere.tree.query(sphere.tree.data[todo], k=m)
        row = todo[:, None]
        dist = sphere.km(row, cand)
        dist[cand == row] = np.inf
        order = np.lexsort((cand, dist))[:, :k]
        cols[todo] = np.take_along_axis(cand, order, axis=1)
        if m == n:
            break
        # a unit outside the candidates is at least the last candidate's chord
        # away; keep a row only when its k-th distance is strictly below that,
        # with slack for rounding, so no tie or reordering can displace it
        kth = np.take_along_axis(dist, order[:, -1:], axis=1)[:, 0]
        floor = _chord_to_km(chord[:, -1] * (1.0 - _CHORD_REL_SLACK) - _CHORD_ABS_SLACK)
        todo = todo[kth >= floor]
        m = min(2 * m, n)
    return np.repeat(np.arange(n), k), cols.ravel()


def _binary_csr(n: int, rows, cols, include_self: bool) -> scipy.sparse.csr_matrix:
    import scipy.sparse
    if include_self:
        diagonal = np.arange(n)
        rows, cols = np.concatenate((rows, diagonal)), np.concatenate((cols, diagonal))
    keys = np.sort(rows.astype(np.int64) * n + cols)
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    return scipy.sparse.csr_matrix((np.ones(keys.size), keys % n, indptr), shape=(n, n))


def build_weights(centroids, scheme, include_self: bool = True) -> SpatialWeightsMatrix:
    """Construct binary spatial weights from point centroids.

    DistanceBand links pairs within d_km; KNearest links each unit to its k
    nearest neighbors with ties broken by smaller index.  Neighbor relations
    exclude the unit itself; the diagonal is set afterwards according to
    ``include_self``.

    A k-d tree over unit-sphere vectors proposes candidate pairs; every
    decision is then taken on the exact haversine distance, so the result is
    the same as thresholding or ranking the full distance matrix, in time and
    memory proportional to the number of links.
    """
    pts = _column(centroids, "centroids", np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise DegenerateGeometry("need at least 2 (lat, lon) centroids")
    n = pts.shape[0]
    lat, lon = pts[:, 0], pts[:, 1]
    if not (np.all(np.isfinite(pts)) and np.all(np.abs(lat) <= 90.0)):
        raise DegenerateGeometry("centroids need finite longitudes and latitudes in [-90, 90]")
    if _all_coincident(lat, lon):
        raise DegenerateGeometry("all centroids are coincident")

    sphere = _Sphere(lat, lon)
    if isinstance(scheme, DistanceBand):
        rows, cols = _band_pairs(sphere, scheme.d_km)
    elif isinstance(scheme, KNearest):
        if scheme.k >= n:
            raise KTooLarge(scheme.k, n)
        rows, cols = _knn_pairs(sphere, scheme.k)
    else:
        raise InvalidSpec(f"unknown weights scheme: {scheme!r}")

    entries = _binary_csr(n, rows, cols, include_self)
    return SpatialWeightsMatrix(n=n, entries=entries, scheme=scheme, include_self=include_self)


def classify(z: float) -> HotspotClass:
    """Map a z-score to its hot/cold class at the 95% and 99% thresholds."""
    if z >= HOT_99:
        return HotspotClass.HOT_99
    if z >= HOT_95:
        return HotspotClass.HOT_95
    if z <= -HOT_99:
        return HotspotClass.COLD_99
    if z <= -HOT_95:
        return HotspotClass.COLD_95
    return HotspotClass.NOT_SIGNIFICANT


#: Hot99, Hot95, NotSignificant, Cold95, Cold99: the declaration order, from the highest z down.
_CLASSES = tuple(HotspotClass)


def _classes(z: np.ndarray) -> tuple[HotspotClass, ...]:
    """:func:`classify` of each z, from one comparison of z with each cut point.

    A NaN compares false with every cut point, so it is not significant.
    """
    index = 2 - (z >= HOT_95) - (z >= HOT_99) + (z <= -HOT_95) + (z <= -HOT_99)
    return tuple(map(_CLASSES.__getitem__, index.tolist()))


def getis_ord_gstar(values, W: SpatialWeightsMatrix) -> HotspotResult:
    """Local hot-spot z-scores for each unit under the given weights.

    Units whose denominator degenerates (S = 0, or a weights row with zero
    bracketed variance term) score z = 0: total absence of neighborhood
    information is treated as no evidence of clustering.  Values whose sum of
    squares is not a finite float, and weights that are not finite or whose
    products with the values or with themselves overflow, raise
    :class:`DomainError`.
    """
    x = _column(values, "values", np.float64)
    must_be(W, SpatialWeightsMatrix, "getis_ord_gstar: W")
    if x.ndim != 1 or x.shape[0] != W.n:
        raise DimensionMismatch(f"expected {W.n} values, got shape {x.shape}")
    n = W.n
    if n < 2 or W.entries.shape != (n, n):
        shape = W.entries.shape
        raise DimensionMismatch(f"G* needs n >= 2 and n x n weights, got n = {n} and {shape}")
    with np.errstate(over="ignore"):
        sum_sq = np.sum(x * x)
    if not np.isfinite(sum_sq):
        raise DomainError("values must be finite, and their sum of squares below the float limit")
    xbar = float(np.mean(x))
    S = float(np.sqrt(max(sum_sq / n - xbar * xbar, 0.0)))

    # 0/1 weights cannot overflow here: a finite sum of squares bounds every product
    with np.errstate(over="ignore", invalid="ignore"):
        w_sum = W.row_sums()
        numerator = W.entries @ x - xbar * w_sum
        bracket = (n * W.row_square_sums() - w_sum**2) / (n - 1)
    if not (np.all(np.isfinite(numerator)) and np.all(np.isfinite(bracket))):
        raise DomainError(
            "weights must be finite, and their products with the values and with themselves"
            " below the float limit"
        )

    z = np.zeros(n)
    if S > 0.0:
        valid = bracket > 0.0
        z[valid] = numerator[valid] / (S * np.sqrt(bracket[valid]))
    return HotspotResult(z=z, classes=_classes(z), mean=xbar, scale=S)
