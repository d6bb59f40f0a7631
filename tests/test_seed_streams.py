"""The per-unit seed-stream contract of ``generate``, pinned against numpy.

``generate`` derives every unit's PCG64 seed words in one vectorized pass
(``simulate._unit_seed_states``).  The oracles here are numpy's own
``SeedSequence`` and the original per-unit loop, which builds one
``SeedSequence`` and one ``Generator`` per unit.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geocount import (
    Bernoulli,
    Clustered,
    Dataset,
    DgpSpec,
    Normal,
    Uniform,
    UniformSquare,
    generate,
    paper_scale_spec,
)
from geocount.simulate import (
    KM_PER_DEGREE,
    _draw_centroid,
    _sigmoid,
    _unit_seed_states,
)


def unit_rng(seed, i):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))


def numpy_state(seed, i):
    return np.random.SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(4, np.uint64)


def per_unit_generate(spec: DgpSpec) -> Dataset:
    """The original generator: one SeedSequence and one Generator per unit."""
    k = len(spec.covariates)
    width = len(str(spec.n - 1)) if spec.n > 1 else 1
    covariates = np.empty((spec.n, k))
    latlon = np.empty((spec.n, 2))
    counts = np.empty(spec.n, dtype=np.int64)
    for i in range(spec.n):
        rng = unit_rng(spec.seed, i)
        covs = [dist.draw(rng) for _, dist in spec.covariates]
        latlon[i] = _draw_centroid(rng, spec.layout)
        eta, psi = spec.beta[0], spec.gamma[0]
        for j in range(k):
            eta += spec.beta[j + 1] * covs[j]
            psi += spec.gamma[j + 1] * covs[j]
        structural_zero = rng.random() < _sigmoid(psi)
        counts[i] = 0 if structural_zero else rng.poisson(math.exp(eta))
        covariates[i] = covs
    return Dataset(
        schema=spec.covariate_names,
        ids=[f"u{i:0{width}d}" for i in range(spec.n)],
        latlon=latlon,
        y=counts,
        covariates=covariates,
    )


BOUNDARY_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 + 7, 2**127 + 3, 2**128, 2**130, 2**200]

ALL_DISTRIBUTIONS = (("x", Normal(0.3, 1.5)), ("d", Bernoulli(0.4)), ("u", Uniform(-2.0, 1.0)))


def spec_with(layout, n=300, seed=17):
    return DgpSpec(
        n=n,
        covariates=ALL_DISTRIBUTIONS,
        beta=(0.4, 0.2, -0.3, 0.1),
        gamma=(-0.2, 0.3, 0.5, -0.4),
        layout=layout,
        seed=seed,
    )


CLUSTERED = Clustered(centers=((40.0, -100.0), (33.0, -84.0), (47.0, -120.0)), spread_km=80.0)


class TestUnitSeedStates:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**200), n=st.integers(1, 40))
    @example(seed=0, n=1)
    @example(seed=2**32 - 1, n=3)
    @example(seed=2**32, n=3)
    @example(seed=2**63 + 7, n=3)
    @example(seed=2**127 + 3, n=3)
    @example(seed=2**128, n=3)
    @example(seed=2**130, n=3)
    @example(seed=2**200, n=3)
    def test_rows_equal_numpy_seed_sequence(self, seed, n):
        states = _unit_seed_states(seed, n)
        assert states.shape == (n, 4) and states.dtype == np.uint64
        for i in range(n):
            np.testing.assert_array_equal(states[i], numpy_state(seed, i))

    @pytest.mark.parametrize("seed", BOUNDARY_SEEDS)
    def test_large_unit_indices(self, seed):
        states = _unit_seed_states(seed, 70_000)
        for i in (0, 255, 256, 65_535, 65_536, 69_999):
            np.testing.assert_array_equal(states[i], numpy_state(seed, i))


class TestGenerateMatchesPerUnitOracle:
    @pytest.mark.parametrize("layout", [UniformSquare(2500.0), CLUSTERED], ids=["square", "clustered"])
    @pytest.mark.parametrize("seed", [0, 17, 2**64 + 5])
    def test_layouts_and_distributions(self, layout, seed):
        spec = spec_with(layout, seed=seed)
        assert generate(spec) == per_unit_generate(spec)

    @pytest.mark.parametrize("layout", [UniformSquare(10.0), CLUSTERED], ids=["square", "clustered"])
    def test_single_unit(self, layout):
        spec = spec_with(layout, n=1, seed=2**40)
        assert generate(spec) == per_unit_generate(spec)

    def test_paper_scale_preset(self):
        spec = paper_scale_spec(seed=5)
        assert generate(spec) == per_unit_generate(spec)


class TestOneUnitInDocumentedOrder:
    """Unit i is a fresh default_rng(SeedSequence(seed, spawn_key=(i,))) drawn
    as covariates in declared order, centroid, structural indicator, count."""

    @pytest.mark.parametrize("i", [0, 1, 137, 299])
    def test_square_layout(self, i):
        spec = spec_with(UniformSquare(2500.0), seed=2**33 + 1)
        rng = unit_rng(spec.seed, i)
        x = rng.normal(0.3, 1.5)
        d = float(rng.random() < 0.4)
        u = rng.uniform(-2.0, 1.0)
        dlat_km, dlon_km = rng.uniform(-1250.0, 1250.0), rng.uniform(-1250.0, 1250.0)
        psi = -0.2 + 0.3 * x + 0.5 * d - 0.4 * u
        structural_zero = rng.random() < 1.0 / (1.0 + math.exp(-psi))
        lam = math.exp(0.4 + 0.2 * x - 0.3 * d + 0.1 * u)
        count = 0 if structural_zero else int(rng.poisson(lam))

        data = generate(spec)
        assert data.covariates[i].tolist() == [x, d, u]
        assert data.latlon[i].tolist() == [
            39.0 + dlat_km / KM_PER_DEGREE,
            -98.0 + dlon_km / (KM_PER_DEGREE * math.cos(math.radians(39.0))),
        ]
        assert data.y[i] == count

    @pytest.mark.parametrize("i", [0, 42, 299])
    def test_clustered_layout(self, i):
        spec = spec_with(CLUSTERED, seed=9)
        rng = unit_rng(spec.seed, i)
        covs = [rng.normal(0.3, 1.5), float(rng.random() < 0.4), rng.uniform(-2.0, 1.0)]
        lat0, lon0 = CLUSTERED.centers[int(rng.integers(len(CLUSTERED.centers)))]
        dlat_km, dlon_km = rng.normal(0.0, 80.0), rng.normal(0.0, 80.0)
        psi = -0.2 + 0.3 * covs[0] + 0.5 * covs[1] - 0.4 * covs[2]
        structural_zero = rng.random() < 1.0 / (1.0 + math.exp(-psi))
        lam = math.exp(0.4 + 0.2 * covs[0] - 0.3 * covs[1] + 0.1 * covs[2])
        count = 0 if structural_zero else int(rng.poisson(lam))

        data = generate(spec)
        assert data.covariates[i].tolist() == covs
        assert data.latlon[i].tolist() == [
            lat0 + dlat_km / KM_PER_DEGREE,
            lon0 + dlon_km / (KM_PER_DEGREE * math.cos(math.radians(lat0))),
        ]
        assert data.y[i] == count


class TestLongitudeWrap:
    """A unit drawn across the antimeridian moves by one whole turn; every
    other unit keeps its bits."""

    @pytest.mark.parametrize("center_lon", [179.5, -179.5])
    @pytest.mark.parametrize("i", [0, 1, 2, 3])
    def test_clustered_layout_across_the_antimeridian(self, i, center_lon):
        layout = Clustered(centers=((45.0, center_lon),), spread_km=100.0)
        spec = spec_with(layout, seed=9)
        rng = unit_rng(spec.seed, i)
        covs = [rng.normal(0.3, 1.5), float(rng.random() < 0.4), rng.uniform(-2.0, 1.0)]
        assert rng.integers(1) == 0  # the one center
        dlat_km, dlon_km = rng.normal(0.0, 100.0), rng.normal(0.0, 100.0)
        lon = center_lon + dlon_km / (KM_PER_DEGREE * math.cos(math.radians(45.0)))
        if lon > 180.0:
            lon -= 360.0
        elif lon < -180.0:
            lon += 360.0

        data = generate(spec)
        assert data.covariates[i].tolist() == covs
        assert data.latlon[i].tolist() == [45.0 + dlat_km / KM_PER_DEGREE, lon]
        lons = data.latlon[:, 1]
        assert np.all(np.abs(lons) < 180.0)  # none piled on the antimeridian
        assert np.sum(np.sign(lons) != np.sign(center_lon)) > 0.2 * spec.n
