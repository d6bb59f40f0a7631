"""Spatial weights and hot-spot statistic tests.

The independent oracle is a plain-Python evaluation of the displayed
z-score formula, and haversine distances on hand-placed coordinates.
"""

import math
import warnings

import numpy as np
import pytest

from geocount import (
    DistanceBand,
    HotspotClass,
    KNearest,
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


class TestSchemes:
    @pytest.mark.parametrize("d_km", [0.0, -5.0, float("nan"), float("inf"), "150"])
    def test_bad_band(self, d_km):
        with pytest.raises(InvalidSpec):
            DistanceBand(d_km)

    @pytest.mark.parametrize("k", [0, -1, 2.5, 3.0, True, "8"])
    def test_bad_k(self, k):
        with pytest.raises(InvalidSpec):
            KNearest(k)

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

    def test_dimension_mismatch(self):
        pts = equator_line(0.0, 100.0)
        W = build_weights(pts, DistanceBand(150.0))
        with pytest.raises(DimensionMismatch):
            getis_ord_gstar(np.zeros(3), W)

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
        assert classify(z) is expected
