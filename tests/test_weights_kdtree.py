"""The k-d tree weights builder against the dense n-by-n oracle.

``dense_build_weights`` is the original builder: it forms the full matrix of
haversine distances, thresholds it for a distance band or ranks each row with
a stable sort for k nearest neighbors.  The tree builder must return the same
CSR matrix bit for bit (``indptr``, ``indices`` and ``data``, dtypes included)
on every input, including boundary distances, ties and duplicate points.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from geocount import DistanceBand, KNearest, build_weights, haversine_km
from geocount.exceptions import DegenerateGeometry, KTooLarge

EARTH_RADIUS_KM = 6371.0088

PROPERTY = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# oracle


def pairwise_distances_km(centroids) -> np.ndarray:
    """Dense n-by-n matrix of great-circle distances."""
    pts = np.asarray(centroids, dtype=np.float64)
    lat = pts[:, 0][:, None]
    lon = pts[:, 1][:, None]
    return haversine_km(lat, lon, lat.T, lon.T)


def dense_build_weights(centroids, scheme, include_self=True) -> scipy.sparse.csr_matrix:
    pts = np.asarray(centroids, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise DegenerateGeometry("need at least 2 (lat, lon) centroids")
    n = pts.shape[0]
    dist = pairwise_distances_km(pts)
    off_diag = ~np.eye(n, dtype=bool)
    if not np.any(dist[off_diag] > 0.0):
        raise DegenerateGeometry("all centroids are coincident")

    if isinstance(scheme, DistanceBand):
        adj = (dist <= scheme.d_km) & off_diag
    else:
        if scheme.k >= n:
            raise KTooLarge(scheme.k, n)
        adj = np.zeros((n, n), dtype=bool)
        for i in range(n):
            row = dist[i].copy()
            row[i] = np.inf
            # stable sort: equal distances resolve to the smaller index
            order = np.argsort(row, kind="stable")
            adj[i, order[: scheme.k]] = True

    w = adj.astype(np.float64)
    if include_self:
        np.fill_diagonal(w, 1.0)
    return scipy.sparse.csr_matrix(w)


def assert_same_as_oracle(points, scheme, include_self):
    try:
        expected = dense_build_weights(points, scheme, include_self)
    except (DegenerateGeometry, KTooLarge) as exc:
        with pytest.raises(type(exc)):
            build_weights(points, scheme, include_self)
        return
    got = build_weights(points, scheme, include_self)
    assert got.n == len(points) and got.include_self is include_self
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got.entries, name), getattr(expected, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert got.entries.shape == expected.shape
    if isinstance(scheme, DistanceBand):  # a band links both directions or neither
        assert (got.entries != got.entries.T).nnz == 0


# ---------------------------------------------------------------------------
# point-set strategies

latitudes = st.floats(-90.0, 90.0, allow_nan=False)
longitudes = st.floats(-180.0, 180.0, allow_nan=False)
points = st.tuples(latitudes, longitudes)


@st.composite
def with_duplicates(draw):
    pool = draw(st.lists(points, min_size=1, max_size=6))
    return draw(st.lists(st.sampled_from(pool), min_size=2, max_size=30))


@st.composite
def equator_lines(draw):
    """Integer km positions along the equator: mirrored pairs tie exactly."""
    km = draw(st.lists(st.integers(-3000, 3000), min_size=2, max_size=30))
    return [(0.0, x / EARTH_RADIUS_KM * 180.0 / math.pi) for x in km]


@st.composite
def grids(draw):
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(2, 6))
    step = draw(st.sampled_from([0.05, 0.09, 0.5, 1.0, 10.0]))
    lat0 = draw(st.sampled_from([-89.0, -45.0, 0.0, 30.0, 60.0]))
    lon0 = draw(st.sampled_from([-180.0, -100.0, 0.0, 175.0]))
    lats = [lat for lat in (lat0 + i * step for i in range(rows)) if lat <= 90.0]
    return [(lat, lon0 + j * step) for lat in lats for j in range(cols)]


@st.composite
def seams(draw):
    """Points on the antimeridian and close to the poles."""
    lat = st.one_of(
        st.sampled_from([-90.0, 90.0, -89.999999, 89.9999, 0.0]),
        st.floats(85.0, 90.0),
        st.floats(-90.0, -85.0),
    )
    lon = st.one_of(st.sampled_from([-180.0, 180.0, 179.9999, -179.9999, 0.0]), longitudes)
    return draw(st.lists(st.tuples(lat, lon), min_size=2, max_size=25))


point_sets = st.one_of(
    st.lists(points, min_size=2, max_size=40),
    with_duplicates(),
    equator_lines(),
    grids(),
    seams(),
)


# ---------------------------------------------------------------------------
# properties


@PROPERTY
@given(pts=point_sets, d_km=st.floats(1e-6, 25000.0), include_self=st.booleans())
def test_band_matches_dense_oracle(pts, d_km, include_self):
    assert_same_as_oracle(pts, DistanceBand(d_km), include_self)


@PROPERTY
@given(pts=point_sets, data=st.data(), include_self=st.booleans())
def test_band_radius_equal_to_a_pair_distance(pts, data, include_self):
    dist = pairwise_distances_km(pts)
    i = data.draw(st.integers(0, len(pts) - 1))
    j = data.draw(st.integers(0, len(pts) - 1))
    assume(dist[i, j] > 0.0)
    assert_same_as_oracle(pts, DistanceBand(float(dist[i, j])), include_self)


@PROPERTY
@given(pts=point_sets, data=st.data(), include_self=st.booleans())
def test_knn_matches_dense_oracle(pts, data, include_self):
    k = data.draw(st.integers(1, len(pts) - 1))
    assert_same_as_oracle(pts, KNearest(k), include_self)


@PROPERTY
@given(pts=point_sets, include_self=st.booleans())
def test_knn_all_others_matches_dense_oracle(pts, include_self):
    assert_same_as_oracle(pts, KNearest(len(pts) - 1), include_self)


# ---------------------------------------------------------------------------
# hand-picked cases


@pytest.mark.parametrize(
    "pts",
    [
        [(10.0, 20.0)] * 5,
        [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0)],
        [(90.0, 0.0), (90.0, 0.0)],
    ],
)
def test_coincident_geometry_raises_like_oracle(pts):
    for scheme in (DistanceBand(100.0), KNearest(1)):
        with pytest.raises(DegenerateGeometry):
            dense_build_weights(pts, scheme)
        with pytest.raises(DegenerateGeometry):
            build_weights(pts, scheme)


@pytest.mark.parametrize(
    "pts",
    [
        # distinct points whose haversine distance to unit 0 underflows to 0
        [(0.0, 0.0), (1e-160, 0.0), (-1e-160, 0.0)],
        [(0.0, 0.0), (5e-324, 0.0)],
        # the same place written as +180 and -180, and the pole at two longitudes
        [(12.5, 180.0), (12.5, -180.0)],
        [(90.0, 0.0), (90.0, 120.0)],
    ],
)
def test_nearly_coincident_geometry_follows_oracle(pts):
    for scheme in (DistanceBand(1e-9), KNearest(1)):
        for include_self in (True, False):
            assert_same_as_oracle(pts, scheme, include_self)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "scheme", [DistanceBand(150.0), DistanceBand(1500.0), KNearest(1), KNearest(8)]
)
def test_clustered_layout_matches_dense_oracle(seed, scheme):
    rng = np.random.default_rng(seed)
    centers = rng.uniform((25.0, -125.0), (49.0, -67.0), size=(6, 2))
    pts = centers[rng.integers(0, 6, 400)] + rng.normal(0.0, 0.8, size=(400, 2))
    pts[200:220] = pts[:20]  # some exact duplicates
    for include_self in (True, False):
        assert_same_as_oracle(pts, scheme, include_self)


@pytest.mark.parametrize("centroid", [(float("nan"), 0.0), (0.0, float("inf")), (90.5, 0.0)])
def test_invalid_centroid_is_degenerate_geometry(centroid):
    with pytest.raises(DegenerateGeometry):
        build_weights([(0.0, 0.0), (1.0, 1.0), centroid], KNearest(1))


# ---------------------------------------------------------------------------
# scale guard: a dense n-by-n step would allocate 1.15 GB per float64 matrix


def test_scale_guard_memory_and_time():
    n = 12_000
    rng = np.random.default_rng(12_000)
    pts = np.column_stack((rng.uniform(25.0, 49.0, n), rng.uniform(-125.0, -67.0, n)))
    for scheme in (DistanceBand(150.0), KNearest(8)):
        tracemalloc.start()
        try:
            weights = build_weights(pts, scheme)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**20, f"{scheme}: tracemalloc peak {peak / 2**20:.0f} MiB"
        assert weights.summary().min_neighbors >= (8 if isinstance(scheme, KNearest) else 1)
