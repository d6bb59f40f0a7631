"""The per-unit seed-stream contract of ``generate``, pinned against numpy.

``generate`` derives every unit's PCG64 seed words in one vectorized pass
(``simulate._unit_seed_states``), draws each run of uniform doubles in one
``rng.random(m)`` call and computes covariates and centroids over all units
at once.  The oracles here are numpy's own ``SeedSequence`` and the original
per-unit loop, which builds one ``SeedSequence`` and one ``Generator`` per
unit and makes one numpy call per draw.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.random import PCG64, Generator

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
from geocount.exceptions import GeocountError, InvalidSpec
from geocount.simulate import (
    KM_PER_DEGREE,
    POISSON_LAM_MAX,
    _sigmoid,
    _unit_seed_states,
    _Words,
)


def unit_rng(seed, i):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))


def numpy_state(seed, i):
    return np.random.SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(4, np.uint64)


def draw_covariate(rng, dist) -> float:
    if isinstance(dist, Normal):
        return float(rng.normal(dist.mu, dist.sigma))
    if isinstance(dist, Bernoulli):
        return float(rng.random() < dist.q)
    return float(rng.uniform(dist.a, dist.b))


def layout_offset(rng, layout) -> tuple[float, float, float, float]:
    """(base latitude, base longitude, north km, east km) of one centroid."""
    if isinstance(layout, UniformSquare):
        half = layout.side_km / 2.0
        return 39.0, -98.0, rng.uniform(-half, half), rng.uniform(-half, half)
    base_lat, base_lon = layout.centers[int(rng.integers(len(layout.centers)))]
    return base_lat, base_lon, rng.normal(0.0, layout.spread_km), rng.normal(0.0, layout.spread_km)


def _draw_centroid(rng: np.random.Generator, layout) -> tuple[float, float]:
    """One centroid: latitude clipped to the poles, longitude wrapped into [-180, 180].

    Only an out-of-range longitude moves, by whole turns, then is clipped to [-180, 180]
    (near a pole the wrap can round past 180), so in-range draws keep their bits.
    """
    base_lat, base_lon, dlat_km, dlon_km = layout_offset(rng, layout)
    lat = base_lat + dlat_km / KM_PER_DEGREE
    lon = base_lon + dlon_km / (KM_PER_DEGREE * math.cos(math.radians(base_lat)))
    if not -180.0 <= lon <= 180.0:
        lon -= 360.0 * math.floor((lon + 180.0) / 360.0)
        lon = min(max(lon, -180.0), 180.0)
    return min(max(lat, -90.0), 90.0), lon


def per_unit_generate(spec: DgpSpec) -> Dataset:
    """The original generator: one SeedSequence and one Generator per unit, one
    numpy call per draw, and the same InvalidSpec at the same unit."""
    k = len(spec.covariates)
    width = len(str(spec.n - 1)) if spec.n > 1 else 1
    covariates = np.empty((spec.n, k))
    latlon = np.empty((spec.n, 2))
    counts = np.empty(spec.n, dtype=np.int64)
    for i in range(spec.n):
        rng = unit_rng(spec.seed, i)
        covs = [draw_covariate(rng, dist) for _, dist in spec.covariates]
        latlon[i] = _draw_centroid(rng, spec.layout)
        eta, psi = spec.beta[0], spec.gamma[0]
        for j in range(k):
            eta += spec.beta[j + 1] * covs[j]
            psi += spec.gamma[j + 1] * covs[j]
        try:
            lam = math.exp(eta)
        except OverflowError:
            raise InvalidSpec(f"lambda overflow at unit {i}: beta too large for covariates")
        if rng.random() < _sigmoid(psi):
            counts[i] = 0
        elif not lam <= POISSON_LAM_MAX:
            raise InvalidSpec(
                f"lambda {lam} at unit {i} is NaN or above the Poisson limit {POISSON_LAM_MAX}"
            )
        else:
            counts[i] = rng.poisson(lam)
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

DISTRIBUTIONS = st.one_of(
    st.builds(Normal, mu=st.floats(-5.0, 5.0), sigma=st.floats(0.0, 3.0)),
    st.builds(Bernoulli, q=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))),
    st.builds(
        lambda a, width: Uniform(a, a + width),
        a=st.floats(-10.0, 10.0),
        width=st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
    ),
)
LAYOUTS = st.one_of(
    st.builds(UniformSquare, side_km=st.one_of(st.just(0.0), st.floats(0.0, 20_000.0))),
    st.builds(
        Clustered,
        centers=st.lists(
            st.tuples(st.floats(-90.0, 90.0), st.floats(-180.0, 180.0)), min_size=1, max_size=4
        ),
        spread_km=st.floats(0.0, 2_000.0),
    ),
)


@st.composite
def dgp_specs(draw):
    covariates = draw(st.lists(DISTRIBUTIONS, max_size=4))
    coefficient = st.floats(-3.0, 3.0)
    k = len(covariates) + 1
    return DgpSpec(
        n=draw(st.integers(1, 50)),
        covariates=tuple((f"x{j}", dist) for j, dist in enumerate(covariates)),
        beta=tuple(draw(st.lists(coefficient, min_size=k, max_size=k))),
        gamma=tuple(draw(st.lists(coefficient, min_size=k, max_size=k))),
        layout=draw(LAYOUTS),
        seed=draw(st.integers(0, 2**200)),
    )


def outcome(generator, spec):
    """The dataset with its arrays' bytes, or the error that stopped it."""
    try:
        data = generator(spec)
    except GeocountError as exc:
        return f"{exc.code}: {exc}"
    return data, [getattr(data, name).tobytes() for name in ("latlon", "y", "covariates")]


def error_message(generator, spec) -> str:
    with pytest.raises(InvalidSpec) as info:
        generator(spec)
    return str(info.value)


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

    @settings(max_examples=80, deadline=None)
    @given(spec=dgp_specs())
    @example(  # at a pole the wrap of a 1e17-degree longitude rounds to -192; both clip it
        spec=DgpSpec(
            n=1,
            covariates=(),
            beta=(0.0,),
            gamma=(0.0,),
            layout=Clustered(centers=((90.0, 0.0),), spread_km=1469.0),
            seed=41,
        )
    )
    def test_random_descriptor_mixes(self, spec):
        # every mix of Normal (ends a run) and Uniform/Bernoulli (batched) covariates,
        # either layout, degenerate ranges and probabilities included; a spec that
        # fails must fail at the same unit with the same message
        assert outcome(generate, spec) == outcome(per_unit_generate, spec)


class TestErrorsNameTheSameUnit:
    """A failing spec stops at the unit, and with the message, of the per-unit order."""

    def test_lambda_overflow_is_checked_on_every_unit(self):
        # psi = 50 makes every unit a structural zero; the overflow still stops the run
        spec = DgpSpec(
            n=50,
            covariates=(("x", Normal(0.0, 1.0)),),
            beta=(0.0, 800.0),
            gamma=(50.0, 0.0),
            layout=UniformSquare(100.0),
            seed=3,
        )

        def overflows(i):
            try:
                math.exp(0.0 + 800.0 * unit_rng(spec.seed, i).normal(0.0, 1.0))
            except OverflowError:
                return True
            return False

        first = next(i for i in range(spec.n) if overflows(i))
        message = error_message(generate, spec)
        assert message == f"lambda overflow at unit {first}: beta too large for covariates"
        assert message == error_message(per_unit_generate, spec)

    def test_poisson_limit_skips_leading_structural_zeros(self):
        lam = math.exp(44.0)
        assert lam > POISSON_LAM_MAX
        spec = DgpSpec(
            n=20, covariates=(), beta=(44.0,), gamma=(2.0,), layout=UniformSquare(100.0), seed=8
        )

        def structural_zero(i):
            rng = unit_rng(spec.seed, i)
            rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0)
            return rng.random() < _sigmoid(2.0)

        first = next(i for i in range(spec.n) if not structural_zero(i))
        assert first > 0  # the spec's first units are structural zeros above the limit
        message = error_message(generate, spec)
        assert message == (
            f"lambda {lam} at unit {first} is NaN or above the Poisson limit {POISSON_LAM_MAX}"
        )
        assert message == error_message(per_unit_generate, spec)

    def test_lambda_sums_the_covariates_in_declared_order(self):
        # the message prints lambda in full, so it pins eta's rounding as well as the unit
        spec = DgpSpec(
            n=5,
            covariates=ALL_DISTRIBUTIONS + (("v", Uniform(0.1, 0.7)),),
            beta=(50.0, 0.37, -0.71, 0.13, 0.59),
            gamma=(-50.0, 0.0, 0.0, 0.0, 0.0),
            layout=UniformSquare(100.0),
            seed=25,  # summed in another order, unit 0's eta rounds differently
        )
        rng = unit_rng(spec.seed, 0)
        x, d = rng.normal(0.3, 1.5), float(rng.random() < 0.4)
        u, v = rng.uniform(-2.0, 1.0), rng.uniform(0.1, 0.7)
        lam = math.exp(50.0 + 0.37 * x - 0.71 * d + 0.13 * u + 0.59 * v)
        message = error_message(generate, spec)
        assert message == (
            f"lambda {lam} at unit 0 is NaN or above the Poisson limit {POISSON_LAM_MAX}"
        )
        assert message == error_message(per_unit_generate, spec)

    @pytest.mark.parametrize(
        "beta, expected", [((0.0, 1e10, 1e10), "nan"), ((0.0, 1e10, 0.0), "inf")], ids=["nan", "inf"]
    )
    def test_nonfinite_eta_fails_at_the_first_count_draw(self, beta, expected):
        # inf + (-inf) is NaN and exp(inf) is inf: neither overflows math.exp,
        # so only the Poisson-limit check, on non-zero units, stops them
        spec = DgpSpec(
            n=20,
            covariates=(("hi", Uniform(1e300, 1e300)), ("lo", Uniform(-1e300, -1e300))),
            beta=beta,
            gamma=(2.0, 0.0, 0.0),
            layout=CLUSTERED,
            seed=8,
        )
        message = error_message(generate, spec)
        assert message.startswith(f"lambda {expected} at unit ")
        assert message == error_message(per_unit_generate, spec)


class TestNumpyDrawIdentities:
    """The numpy facts that let ``generate`` batch a unit's uniform draws."""

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.floats(allow_nan=False, allow_infinity=False),
        b=st.floats(allow_nan=False, allow_infinity=False),
        seed=st.integers(0, 2**64),
    )
    @example(a=-8e307, b=8e307, seed=0)
    @example(a=-5.0, b=-1.0, seed=1)
    @example(a=3.0, b=3.0, seed=2)
    def test_uniform_is_low_plus_range_times_random(self, a, b, seed):
        a, b = min(a, b), max(a, b)
        assume(math.isfinite(b - a))
        words = numpy_state(seed, 0)
        drawn = Generator(PCG64(_Words(words))).uniform(a, b)
        assert drawn.hex() == (a + (b - a) * Generator(PCG64(_Words(words))).random()).hex()

    @settings(max_examples=50, deadline=None)
    @given(m=st.integers(1, 12), seed=st.integers(0, 2**64))
    def test_random_m_is_m_scalar_calls(self, m, seed):
        words = numpy_state(seed, 0)
        batched, scalar = Generator(PCG64(_Words(words))), Generator(PCG64(_Words(words)))
        assert batched.random(m).tolist() == [scalar.random() for _ in range(m)]
        assert batched.normal() == scalar.normal()  # both streams stand at the same word


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

    @pytest.mark.parametrize("center_lat", [90.0, 89.99999999999999])
    def test_clustered_center_at_a_pole_stays_in_range(self, center_lat):
        # east offsets of ~1e17 degrees: the whole-turn wrap can round past 180
        spec = DgpSpec(
            n=200,
            covariates=(),
            beta=(0.0,),
            gamma=(0.0,),
            layout=Clustered(centers=((center_lat, 0.0),), spread_km=1469.0),
            seed=41,
        )
        lons = generate(spec).latlon[:, 1]
        assert np.all(np.abs(lons) <= 180.0)

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
