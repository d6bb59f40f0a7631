"""Spatial weights and hot-spot statistic tests.

The independent oracle is a plain-Python evaluation of the displayed
z-score formula, and haversine distances on hand-placed coordinates.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from geocount import spatial
from geocount import (
    DistanceBand,
    HotspotClass,
    KNearest,
    SpatialWeightsMatrix,
    WeightsSummary,
    build_weights,
    classify,
    getis_ord_gstar,
    haversine_km,
)
from geocount.exceptions import (
    DegenerateGeometry,
    DimensionMismatch,
    DomainError,
    InvalidSpec,
    KTooLarge,
)

EARTH_RADIUS_KM = 6371.0088


def equator_line(*km_positions):
    """Points on the equator at given positions (km along the circle)."""
    return [(0.0, km / EARTH_RADIUS_KM * 180.0 / math.pi) for km in km_positions]


def gstar_oracle(values, weights_dense):
    """Direct plain-loop evaluation of the z-score formula."""
    n = len(values)
    xbar = sum(values) / n
    s2 = sum(v * v for v in values) / n - xbar * xbar
    S = math.sqrt(max(s2, 0.0))
    out = []
    for i in range(n):
        row = weights_dense[i]
        wsum = sum(row)
        wsq = sum(w * w for w in row)
        numerator = sum(w * x for w, x in zip(row, values)) - xbar * wsum
        bracket = (n * wsq - wsum * wsum) / (n - 1)
        if S == 0.0 or bracket <= 0.0:
            out.append(0.0)
        else:
            out.append(numerator / (S * math.sqrt(bracket)))
    return out


_EDGE_LATS = (90.0, -90.0, 0.0, math.nextafter(90.0, 0.0), 45.0)
_EDGE_LONS = (180.0, -180.0, 0.0, math.nextafter(180.0, 0.0), -98.0)


@st.composite
def point_pairs(draw):
    """Two (lat, lon) points: random, identical, 1 ulp apart or antipodal,
    with poles and +-180 degree longitudes drawn often."""
    lat = draw(st.sampled_from(_EDGE_LATS) | st.floats(-90.0, 90.0))
    lon = draw(st.sampled_from(_EDGE_LONS) | st.floats(-180.0, 180.0))
    other = draw(st.sampled_from(("random", "same", "ulp", "antipode")))
    if other == "random":
        return lat, lon, draw(st.floats(-90.0, 90.0)), draw(st.floats(-180.0, 180.0))
    if other == "same":
        return lat, lon, lat, lon
    if other == "ulp":
        return lat, lon, math.nextafter(lat, 0.0), math.nextafter(lon, 0.0)
    return lat, lon, -lat, lon - 180.0 if lon > 0.0 else lon + 180.0


class TestHaversine:
    def test_equator_degree(self):
        # one degree of longitude on the equator is R * pi / 180 km
        d = haversine_km(0.0, 0.0, 0.0, 1.0)
        assert d == pytest.approx(EARTH_RADIUS_KM * math.pi / 180.0, rel=1e-12)

    def test_symmetric_and_zero_diagonal(self):
        a, b = (43.07, -89.40), (41.88, -87.63)  # Madison, Chicago
        assert haversine_km(*a, *b) == pytest.approx(haversine_km(*b, *a), rel=1e-12)
        assert haversine_km(*a, *a) == 0.0
        assert 170.0 < haversine_km(*a, *b) < 230.0  # roughly 200 km apart

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(point_pairs(), min_size=1, max_size=40))
    def test_bit_symmetric(self, pairs):
        # the band builder decides both links of a pair from one orientation
        lat1, lon1, lat2, lon2 = np.array(pairs, dtype=np.float64).T
        forward = haversine_km(lat1, lon1, lat2, lon2)
        assert forward.tobytes() == haversine_km(lat2, lon2, lat1, lon1).tobytes()
        for k in range(len(pairs)):  # the scalar path too
            a = haversine_km(lat1[k], lon1[k], lat2[k], lon2[k])
            assert a.tobytes() == haversine_km(lat2[k], lon2[k], lat1[k], lon1[k]).tobytes()


class TestBuildWeights:
    def test_distance_band_on_line(self):
        pts = equator_line(0.0, 100.0, 200.0)
        W = build_weights(pts, DistanceBand(150.0)).entries.toarray()
        expected = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=float)
        np.testing.assert_array_equal(W, expected)

    def test_knearest_tie_broken_by_index(self):
        # unit 1 is 100 km from both 0 and 2; the tie resolves to index 0
        pts = equator_line(0.0, 100.0, 200.0)
        W = build_weights(pts, KNearest(1)).entries.toarray()
        expected = np.array([[1, 1, 0], [1, 1, 0], [0, 1, 1]], dtype=float)
        np.testing.assert_array_equal(W, expected)

    def test_include_self_diagonal(self):
        pts = equator_line(0.0, 50.0, 300.0)
        W = build_weights(pts, DistanceBand(100.0), include_self=True)
        np.testing.assert_array_equal(W.entries.toarray().diagonal(), 1.0)
        W0 = build_weights(pts, DistanceBand(100.0), include_self=False)
        np.testing.assert_array_equal(W0.entries.toarray().diagonal(), 0.0)

    def test_band_weights_are_binary(self):
        rng = np.random.default_rng(20)
        pts = [(float(la), float(lo)) for la, lo in rng.uniform(-10, 10, size=(15, 2))]
        W = build_weights(pts, DistanceBand(800.0)).entries.toarray()
        assert set(np.unique(W).tolist()) <= {0.0, 1.0}

    def test_knearest_row_counts(self):
        rng = np.random.default_rng(21)
        pts = [(float(la), float(lo)) for la, lo in rng.uniform(-10, 10, size=(12, 2))]
        k = 4
        W = build_weights(pts, KNearest(k)).entries.toarray()
        off_diag = W.copy()
        np.fill_diagonal(off_diag, 0.0)
        np.testing.assert_array_equal(off_diag.sum(axis=1), k)

    def test_k_too_large(self):
        pts = equator_line(0.0, 100.0, 200.0)
        with pytest.raises(KTooLarge):
            build_weights(pts, KNearest(3))

    def test_coincident_points(self):
        pts = [(10.0, 20.0)] * 4
        with pytest.raises(DegenerateGeometry):
            build_weights(pts, DistanceBand(100.0))

    def test_single_point(self):
        with pytest.raises(DegenerateGeometry):
            build_weights([(0.0, 0.0)], DistanceBand(100.0))

    @pytest.mark.parametrize(
        "centroids",
        [[["a", "b"], ["c", "d"]], [[0.0, 0.0], [1.0]], np.array([[True, False], [False, True]]),
         [[0, 0], [1, 2**70]]],
        ids=["strings", "ragged", "bools", "beyond-int64"],
    )
    def test_centroids_that_are_not_numbers(self, centroids):
        with pytest.raises(InvalidSpec, match="^centroids must be"):
            build_weights(centroids, KNearest(1))


class TestSchemes:
    @pytest.mark.parametrize("d_km", [0.0, -5.0, float("nan"), float("inf"), "150", True])
    def test_bad_band(self, d_km):
        with pytest.raises(InvalidSpec):
            DistanceBand(d_km)

    @pytest.mark.parametrize("k", [0, -1, 2.5, 3.0, True, "8"])
    def test_bad_k(self, k):
        with pytest.raises(InvalidSpec):
            KNearest(k)

    def test_unknown_scheme(self):
        with pytest.raises(InvalidSpec, match="unknown weights scheme"):
            build_weights([(0.0, 0.0), (1.0, 1.0)], "knn:1")

    def test_numpy_values_accepted(self):
        assert DistanceBand(np.float64(12.5)).d_km == 12.5
        assert KNearest(np.int64(3)).k == 3


class TestWeightsSummary:
    def test_band_counts_and_island(self):
        pts = equator_line(0.0, 100.0, 200.0, 1000.0)
        summary = build_weights(pts, DistanceBand(150.0)).summary()
        assert summary == WeightsSummary(
            nnz=8, min_neighbors=0, median_neighbors=1.0, max_neighbors=2, islands=(3,)
        )

    def test_without_self_weights(self):
        pts = equator_line(0.0, 100.0, 200.0, 1000.0, 3000.0)
        summary = build_weights(pts, DistanceBand(150.0), include_self=False).summary()
        assert summary.nnz == 4
        assert summary.islands == (3, 4)
        assert (summary.min_neighbors, summary.median_neighbors, summary.max_neighbors) == (0, 1.0, 2)

    def test_knn_has_no_islands(self):
        rng = np.random.default_rng(25)
        pts = rng.uniform(-10, 10, size=(30, 2))
        summary = build_weights(pts, KNearest(4)).summary()
        assert summary.nnz == 30 * 5
        assert summary.min_neighbors == summary.max_neighbors == 4
        assert summary.islands == ()

    def test_island_z_uses_only_its_own_value(self):
        pts = equator_line(0.0, 100.0, 200.0, 1000.0)
        values = np.array([1.0, 4.0, 2.0, 9.0])
        res = getis_ord_gstar(values, build_weights(pts, DistanceBand(150.0)))
        assert res.z[3] == pytest.approx((values[3] - values.mean()) / values.std())
        res = getis_ord_gstar(values, build_weights(pts, DistanceBand(150.0), include_self=False))
        assert res.z[3] == 0.0


class TestGetisOrdGstar:
    def test_all_equal_values(self):
        pts = equator_line(0.0, 100.0, 200.0, 300.0)
        W = build_weights(pts, DistanceBand(150.0))
        res = getis_ord_gstar(np.full(4, 7.0), W)
        np.testing.assert_array_equal(res.z, 0.0)
        assert all(c is HotspotClass.NOT_SIGNIFICANT for c in res.classes)

    def test_five_unit_line_signs(self):
        pts = equator_line(0.0, 100.0, 200.0, 300.0, 400.0)
        W = build_weights(pts, DistanceBand(150.0))
        res = getis_ord_gstar(np.array([10.0, 10.0, 0.0, 0.0, 0.0]), W)
        oracle = gstar_oracle([10.0, 10.0, 0.0, 0.0, 0.0], W.entries.toarray().tolist())
        np.testing.assert_allclose(res.z, oracle, atol=1e-12)
        assert res.z[0] > 0 and res.z[1] > 0
        assert res.z[3] < 0 and res.z[4] < 0

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(22)
        for trial in range(100):
            n = int(rng.integers(3, 51))
            pts = [(float(la), float(lo)) for la, lo in rng.uniform(-20, 20, size=(n, 2))]
            if trial % 2 == 0:
                scheme = DistanceBand(float(rng.uniform(200.0, 3000.0)))
            else:
                scheme = KNearest(int(rng.integers(1, n)))
            W = build_weights(pts, scheme, include_self=bool(trial % 3))
            values = rng.normal(size=n) * 10.0
            res = getis_ord_gstar(values, W)
            oracle = gstar_oracle(values.tolist(), W.entries.toarray().tolist())
            np.testing.assert_allclose(res.z, oracle, atol=1e-10)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(23)
        n = 20
        pts = [(float(la), float(lo)) for la, lo in rng.uniform(-20, 20, size=(n, 2))]
        values = rng.normal(size=n) * 5.0
        base = getis_ord_gstar(values, build_weights(pts, DistanceBand(1500.0)))
        perm = rng.permutation(n)
        permuted = getis_ord_gstar(
            values[perm], build_weights([pts[i] for i in perm], DistanceBand(1500.0))
        )
        np.testing.assert_allclose(permuted.z, base.z[perm], atol=1e-10)

    def test_scale_invariance(self):
        rng = np.random.default_rng(24)
        n = 15
        pts = [(float(la), float(lo)) for la, lo in rng.uniform(-20, 20, size=(n, 2))]
        W = build_weights(pts, DistanceBand(1500.0))
        values = rng.normal(size=n) * 3.0 + 5.0
        z1 = getis_ord_gstar(values, W).z
        z2 = getis_ord_gstar(values * 4.5, W).z
        np.testing.assert_allclose(z2, z1, atol=1e-10)

    def test_translation_keeps_planted_classification(self):
        values, W = planted_grid()
        before = getis_ord_gstar(values, W)
        after = getis_ord_gstar(values + 100.0, W)
        oracle_before = gstar_oracle(values.tolist(), W.entries.toarray().tolist())
        oracle_after = gstar_oracle((values + 100.0).tolist(), W.entries.toarray().tolist())
        np.testing.assert_allclose(before.z, oracle_before, atol=1e-10)
        np.testing.assert_allclose(after.z, oracle_after, atol=1e-10)
        assert before.classes == after.classes

    def test_planted_block_max_inside(self):
        values, W = planted_grid()
        res = getis_ord_gstar(values, W)
        assert values[int(np.argmax(res.z))] == 10.0

    def test_isolated_units_score_zero(self):
        # no neighbors and no self weight: whole row is zero
        pts = equator_line(0.0, 1000.0, 2000.0)
        W = build_weights(pts, DistanceBand(10.0), include_self=False)
        res = getis_ord_gstar(np.array([1.0, 2.0, 3.0]), W)
        np.testing.assert_array_equal(res.z, 0.0)
        assert all(c is HotspotClass.NOT_SIGNIFICANT for c in res.classes)

    def test_row_square_sums_of_non_binary_weights(self):
        # weights in [0.1, 3] on a 1/64 grid, so every square and row sum is exact in any
        # order; rows keep unsorted column indices, and row 2 is empty
        rng = np.random.default_rng(26)
        indptr = [0, 4, 7, 7, 12, 14]
        indices = [3, 0, 2, 1, 2, 0, 3, 4, 1, 0, 3, 2, 4, 1]
        data = np.round(rng.uniform(0.1, 3.0, size=len(indices)) * 64.0) / 64.0
        entries = scipy.sparse.csr_matrix((data, indices, indptr), shape=(5, 5))
        W = SpatialWeightsMatrix(n=5, entries=entries, scheme=KNearest(3), include_self=False)
        np.testing.assert_array_equal(W.row_square_sums(), (W.entries.toarray() ** 2).sum(axis=1))

    def test_dimension_mismatch(self):
        pts = equator_line(0.0, 100.0)
        W = build_weights(pts, DistanceBand(150.0))
        with pytest.raises(DimensionMismatch):
            getis_ord_gstar(np.zeros(3), W)

    @pytest.mark.parametrize(
        "values", [["a", "b"], [True, False], [1, 2**70], [[1.0], [2.0, 3.0]]],
        ids=["strings", "bools", "beyond-int64", "ragged"],
    )
    def test_values_that_are_not_numbers(self, values):
        W = build_weights(equator_line(0.0, 100.0), DistanceBand(150.0))
        with pytest.raises(InvalidSpec, match="^values must be"):
            getis_ord_gstar(values, W)

    @pytest.mark.parametrize("n, size", [(5, 3), (1, 1)], ids=["3x3-for-5", "one-unit"])
    def test_weights_of_another_size_are_a_dimension_mismatch(self, n, size):
        entries = scipy.sparse.csr_matrix(np.eye(size))
        W = SpatialWeightsMatrix(n=n, entries=entries, scheme=KNearest(1), include_self=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionMismatch, match=rf"got n = {n} and \({size}, {size}\)"):
                getis_ord_gstar(np.arange(float(n)), W)

    @pytest.mark.parametrize(
        "weight, values",
        [(1e160, [0.0, 1.0, 2.0]), (math.nan, [1.0, 2.0, 3.0])], ids=["square", "nan-weight"]
    )
    def test_overflowing_hand_built_weights_are_a_domain_error(self, weight, values):
        # as in test_gstar_classes_equal_classify_on_hand_built_weights, whose numerator and
        # bracket overflow; here only the squares overflow, or a weight is NaN
        entries = scipy.sparse.csr_matrix(np.array([[weight, -weight, 0.0], [0.0] * 3, [0.0] * 3]))
        W = SpatialWeightsMatrix(n=3, entries=entries, scheme=KNearest(1), include_self=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="weights must be finite"):
                getis_ord_gstar(np.array(values), W)

    @pytest.mark.parametrize(
        "values",
        [[1e308, -1e308, 1e308, -1e308], [2e154, 0.0, 1.0, 2.0], [math.nan, 1.0, 2.0, 3.0]],
        ids=["float-limit", "square-overflows", "nan"],
    )
    def test_non_finite_sum_of_squares_is_a_domain_error(self, values):
        # before the check, S overflowed with a RuntimeWarning and every z read 0 or NaN
        W = build_weights(equator_line(0.0, 100.0, 200.0, 300.0), KNearest(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                getis_ord_gstar(np.array(values), W)

    def test_large_finite_values_keep_the_formula(self):
        W = build_weights(equator_line(0.0, 100.0, 200.0, 300.0), KNearest(1))
        values = [1e153, -1e153, 3e153, 0.0]
        res = getis_ord_gstar(np.array(values), W)
        np.testing.assert_allclose(res.z, gstar_oracle(values, W.entries.toarray().tolist()))


def planted_grid(side=10, block=3, high=10.0, spacing_deg=0.09):
    """Square grid with a high-valued block in one corner region."""
    pts = [
        (i * spacing_deg, j * spacing_deg) for i in range(side) for j in range(side)
    ]
    values = np.zeros(side * side)
    for i in range(2, 2 + block):
        for j in range(2, 2 + block):
            values[i * side + j] = high
    W = build_weights(pts, DistanceBand(12.0))  # links rook-adjacent cells (~10 km)
    return values, W


def cascade_classify(z):
    """The class of one z-score, one cut point at a time, from the highest down (the oracle)."""
    if z >= spatial.HOT_99:
        return HotspotClass.HOT_99
    if z >= spatial.HOT_95:
        return HotspotClass.HOT_95
    if z <= -spatial.HOT_99:
        return HotspotClass.COLD_99
    if z <= -spatial.HOT_95:
        return HotspotClass.COLD_95
    return HotspotClass.NOT_SIGNIFICANT


class TestClassify:
    @pytest.mark.parametrize(
        "z,expected",
        [
            (0.0, HotspotClass.NOT_SIGNIFICANT),
            (2.0, HotspotClass.HOT_95),
            (-3.1, HotspotClass.COLD_99),
            (2.576, HotspotClass.HOT_99),
            (2.5759, HotspotClass.HOT_95),
            (1.96, HotspotClass.HOT_95),
            (1.9599, HotspotClass.NOT_SIGNIFICANT),
            (-1.96, HotspotClass.COLD_95),
            (-1.9599, HotspotClass.NOT_SIGNIFICANT),
            (-2.576, HotspotClass.COLD_99),
            (10.0, HotspotClass.HOT_99),
        ],
    )
    def test_thresholds(self, z, expected):
        assert cascade_classify(z) is expected
        assert classify(z) is expected

    def test_array_classes_equal_classify(self):
        # each cut point, exactly and one ulp either side, and the special values
        cuts = [spatial.HOT_95, spatial.HOT_99, -spatial.HOT_95, -spatial.HOT_99]
        z = [0.0, -0.0, math.nan, math.inf, -math.inf, 1e300, -1e300, 5e-324]
        z += [f(c) for c in cuts for f in (lambda c: c, lambda c: math.nextafter(c, math.inf),
                                          lambda c: math.nextafter(c, -math.inf))]
        z += np.random.default_rng(27).normal(scale=2.5, size=200).tolist()
        classes = spatial._classes(np.array(z))
        assert len(classes) == len(z)
        assert all(got is want for got, want in zip(classes, map(cascade_classify, z)))
        assert all(classify(v) is want for v, want in zip(z, classes))

    @pytest.mark.parametrize("z", [np.float64(3.0), np.array(3.0), np.array([3.0]), [3.0], 3])
    def test_one_number_in_any_form(self, z):
        assert classify(z) is HotspotClass.HOT_99

    @pytest.mark.parametrize(
        "z, message",
        [
            ("a", "classify: z must be float64 values, got <U1"),
            (None, "classify: z must be float64 values, got object"),
            (True, "classify: z must be float64 values, got bool"),
            ([1.0, 3.0], "classify: z must be one number, got 2 values"),
            (np.zeros((2, 2)), "classify: z must be one number, got 4 values"),
            ([], "classify: z must be one number, got 0 values"),
        ],
    )
    def test_not_one_number_is_invalid_spec(self, z, message):
        with pytest.raises(InvalidSpec) as info:
            classify(z)
        assert str(info.value) == message

    def test_gstar_classes_equal_classify_on_hand_built_weights(self):
        # row 0 weighs the values +-1e150 by +-1e160: its numerator and bracket overflow,
        # which is refused as it is for values, with no numpy warning
        a = 1e160
        entries = scipy.sparse.csr_matrix(np.array([[a, -a, 0.0], [0.0] * 3, [0.0] * 3]))
        W = SpatialWeightsMatrix(n=3, entries=entries, scheme=KNearest(1), include_self=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                getis_ord_gstar(np.array([1e150, -1e150, 0.0]), W)
        _, W = planted_grid()
        res = getis_ord_gstar(np.arange(100.0) // 10, W)  # a north-south trend
        assert set(res.classes) == set(HotspotClass)
        assert res.classes == tuple(map(cascade_classify, res.z.tolist()))
