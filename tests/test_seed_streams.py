"""The per-unit seed-stream contract of ``generate``, pinned against numpy.

``generate`` derives every unit's PCG64 seed words in one vectorized pass
(``simulate._unit_seed_states``) and runs all units' streams in lockstep
(``simulate._Streams``): each draw turns one word per unit into a value as
numpy would, and hands the rare cases (ziggurat rejections, possible Lemire
rejections, Poisson with lambda >= 10) to numpy at the unit's exact state.
The oracles here are numpy itself (its ``SeedSequence``, its ``Generator``
at chosen states) and the original per-unit loop, which builds one
``SeedSequence`` and one ``Generator`` per unit and makes one numpy call per
draw.
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
from geocount import simulate
from geocount._ziggurat import KI, WI
from geocount.exceptions import GeocountError, InvalidSpec
from geocount.simulate import (
    _POISSON_WORDS,
    KM_PER_DEGREE,
    POISSON_LAM_MAX,
    _Streams,
    _unit_seed_states,
)


def unit_rng(seed, i):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))


def numpy_state(seed, i):
    return np.random.SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(4, np.uint64)


def numpy_multiplier() -> int:
    """PCG64's LCG multiplier, read off numpy: one step from state 1 with increment 1."""
    bitgen = PCG64()
    bitgen.state = {**bitgen.state, "state": {"state": 1, "inc": 1}}
    bitgen.random_raw()
    return bitgen.state["state"]["state"] - 1


PCG_MULT = numpy_multiplier()
MASK128 = 2**128 - 1


def state_before(word: int, inc: int) -> int:
    """A PCG64 state whose next output word is ``word``.

    The state after it has high half 0, so no rotation: the output is its low half.
    """
    return (word - inc) * pow(PCG_MULT, -1, 2**128) & MASK128


def emitting(word: int) -> Generator:
    """A numpy Generator whose next two words are ``word`` and 0.

    The second state has equal halves, which XOR to 0 under any rotation; its
    halves are 0 or 1, whichever makes the increment odd.
    """
    h = 1 - (word & 1)
    inc = ((h << 64 | h) - word * PCG_MULT) & MASK128
    rng = Generator(PCG64())
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state_before(word, inc), "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def _sigmoid(t: float) -> float:
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


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
    @example(seed=2**96 - 1, n=1)  # three words, padded to four
    @example(seed=2**96 - 1, n=3)
    @example(seed=2**128 - 1, n=1)  # exactly four words
    @example(seed=2**128 - 1, n=3)
    @example(seed=2**128, n=3)
    @example(seed=2**160 - 1, n=1)  # five words
    @example(seed=2**160 - 1, n=3)
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

    @pytest.mark.parametrize(
        "beta0",
        [math.nextafter(math.log(10.0), -math.inf), math.log(10.0), math.log(10.0) + 1e-9],
        ids=["below", "log10", "above"],
    )
    def test_lambda_either_side_of_ten(self, beta0):
        # below 10 the count is drawn in lockstep, from 10 on by numpy's PTRS
        spec = DgpSpec(
            n=300,
            covariates=(("x", Normal(0.0, 0.01)),),
            beta=(beta0, 1.0),
            gamma=(-4.0, 0.0),
            layout=UniformSquare(100.0),
            seed=11,
        )
        assert generate(spec) == per_unit_generate(spec)
        lam = [math.exp(beta0 + x) for x in generate(spec).covariates[:, 0]]
        assert min(lam) < 10.0 <= max(lam)

    @pytest.mark.parametrize("lam", [9.999999999999998, 10.000000000000002])
    def test_every_unit_at_one_lambda_next_to_ten(self, lam):
        spec = DgpSpec(
            n=200, covariates=(), beta=(math.log(lam),), gamma=(-4.0,),
            layout=UniformSquare(100.0), seed=3,
        )
        assert math.exp(spec.beta[0]) == lam
        assert generate(spec) == per_unit_generate(spec)

    @pytest.mark.parametrize("centers", range(1, 8))
    def test_clustered_with_one_to_seven_centers(self, centers):
        # one center draws no word for its index; two or more draw one, Lemire's way
        points = ((40.0, -100.0), (33.0, -84.0), (47.0, -120.0), (0.0, 0.0),
                  (-33.9, 18.4), (89.0, 179.9), (-60.0, -179.0))
        spec = spec_with(Clustered(centers=points[:centers], spread_km=300.0), n=400, seed=centers)
        assert generate(spec) == per_unit_generate(spec)

    @pytest.mark.parametrize("seed", [7, 21])
    def test_units_that_leave_the_ziggurat_fast_path(self, seed):
        # the first draw of each unit is the Normal covariate; these seeds send
        # some units' first words to the tail (layer 0) and some to a wedge
        spec = spec_with(UniformSquare(2500.0), n=400, seed=seed)
        words = [int(unit_rng(seed, i).bit_generator.random_raw()) for i in range(spec.n)]
        left = [w & 0xFF for w in words if (w >> 9) & (2**52 - 1) >= KI[w & 0xFF]]
        assert 0 in left and any(layer != 0 for layer in left)
        assert generate(spec) == per_unit_generate(spec)

    def test_lambda_zero_draws_no_count(self):
        # eta below -745 makes libm's exp 0: numpy returns 0 without drawing
        spec = DgpSpec(
            n=100, covariates=(("x", Normal(0.0, 1.0)),), beta=(-800.0, 1.0),
            gamma=(-4.0, 0.0), layout=CLUSTERED, seed=5,
        )
        data = generate(spec)
        assert data == per_unit_generate(spec) and not data.y.any()


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
    """The numpy facts that let ``generate`` draw every unit's values from raw words."""

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
        drawn = unit_rng(seed, 0).uniform(a, b)
        assert drawn.hex() == (a + (b - a) * unit_rng(seed, 0).random()).hex()

    @settings(max_examples=50, deadline=None)
    @given(m=st.integers(1, 12), seed=st.integers(0, 2**64))
    def test_random_m_is_m_scalar_calls(self, m, seed):
        batched, scalar = unit_rng(seed, 0), unit_rng(seed, 0)
        assert batched.random(m).tolist() == [scalar.random() for _ in range(m)]
        assert batched.normal() == scalar.normal()  # both streams stand at the same word

    @settings(max_examples=100, deadline=None)
    @given(
        mu=st.floats(-1e300, 1e300),
        sigma=st.one_of(st.just(0.0), st.floats(0.0, 1e300)),
        seed=st.integers(0, 2**64),
    )
    @example(mu=0.0, sigma=1.0, seed=0)
    def test_normal_is_mu_plus_sigma_times_standard_normal(self, mu, sigma, seed):
        drawn = unit_rng(seed, 0).normal(mu, sigma)
        assert drawn.hex() == (mu + sigma * unit_rng(seed, 0).standard_normal()).hex()

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**64))
    def test_double_is_the_top_53_bits_of_a_word(self, seed):
        words = unit_rng(seed, 0).bit_generator.random_raw(3).tolist()
        rng = unit_rng(seed, 0)
        assert [rng.random() for _ in range(3)] == [(w >> 11) * 2.0**-53 for w in words]

    @pytest.mark.parametrize("c", [1, 2, 3, 7, 1000])
    @pytest.mark.parametrize("seed", [0, 5, 2**40])
    def test_integers_take_the_low_half_of_one_word(self, c, seed):
        rng = unit_rng(seed, 0)
        before = rng.bit_generator.state
        word = int(unit_rng(seed, 0).bit_generator.random_raw())
        value = int(rng.integers(c))
        after = rng.bit_generator.state
        if c == 1:  # a range of one draws no word
            assert value == 0 and after == before
            return
        scaled = (word & 0xFFFFFFFF) * c
        assert scaled & 0xFFFFFFFF >= c  # no possible rejection at these seeds
        assert value == scaled >> 32
        one_word = unit_rng(seed, 0).bit_generator
        one_word.random_raw()
        assert after["state"] == one_word.state["state"]
        assert (after["has_uint32"], after["uinteger"]) == (1, word >> 32)  # the high half waits

    @settings(max_examples=100, deadline=None)
    @given(
        lam=st.one_of(st.floats(5e-324, 10.0, exclude_max=True), st.just(9.999999999999998)),
        seed=st.integers(0, 2**64),
    )
    def test_poisson_below_ten_multiplies_doubles(self, lam, seed):
        rng = unit_rng(seed, 0)
        count = int(rng.poisson(lam))
        doubles = unit_rng(seed, 0)
        limit, product, drawn = math.exp(-lam), 1.0, 0
        while True:
            product *= doubles.random()
            if product <= limit:
                break
            drawn += 1
        assert count == drawn
        assert rng.bit_generator.state == doubles.bit_generator.state  # count + 1 words

    def test_poisson_of_zero_draws_no_word(self):
        rng = unit_rng(3, 0)
        before = rng.bit_generator.state
        assert rng.poisson(0.0) == 0 and rng.bit_generator.state == before


def numpy_twin(streams: _Streams, i: int) -> Generator:
    """A numpy Generator at unit i's exact state in the lockstep streams."""
    rng = Generator(PCG64())
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {
            "state": int(streams.hi[i]) << 64 | int(streams.lo[i]),
            "inc": int(streams.inc[0][i]) << 64 | int(streams.inc[1][i]),
        },
        "has_uint32": int(streams.has_uint32[i]),
        "uinteger": int(streams.uinteger[i]),
    }
    return rng


def streams_emitting(words: list[int], seed: int = 9) -> _Streams:
    """Lockstep streams whose unit i draws ``words[i]`` next (from its own increment)."""
    streams = _Streams(seed, len(words))
    for i, word in enumerate(words):
        inc = int(streams.inc[0][i]) << 64 | int(streams.inc[1][i])
        state = state_before(word, inc)
        streams.hi[i], streams.lo[i] = state >> 64, state & (2**64 - 1)
    return streams


def assert_draws_like_numpy(streams: _Streams, lockstep, scalar) -> None:
    """Each unit's lockstep value and the state it leaves equal numpy's from the same state."""
    twins = [numpy_twin(streams, i) for i in range(len(streams.hi))]
    values = lockstep(streams)
    for i, rng in enumerate(twins):
        assert float(values[i]).hex() == float(scalar(rng)).hex(), f"unit {i}"
        assert numpy_twin(streams, i).bit_generator.state == rng.bit_generator.state, f"unit {i}"


def normal_word(layer: int, rabs: int, negative: bool = False) -> int:
    return layer | negative << 8 | rabs << 9


class TestZigguratTable:
    """The checked-in ``WI``/``KI`` are numpy's, read off numpy by emitting chosen words."""

    def test_table_equals_numpys(self):
        def fast(layer, rabs):  # numpy returns from this word alone
            rng = emitting(normal_word(layer, rabs))
            start = rng.bit_generator.state["state"]
            one_word = (start["state"] * PCG_MULT + start["inc"]) & MASK128
            rng.standard_normal()
            return rng.bit_generator.state["state"]["state"] == one_word

        for layer in range(256):
            low, high = 0, 2**52  # numpy takes rabs < low at once and rabs >= high not
            while low < high:
                mid = (low + high) // 2
                if fast(layer, mid):
                    low = mid + 1
                else:
                    high = mid
            assert low == KI[layer], f"KI[{layer}]"
            # rabs = 1 gives WI[layer] itself; in layer 1 (KI 0) by the wedge, whose
            # double is then 0
            assert emitting(normal_word(layer, 1)).standard_normal() == WI[layer], f"WI[{layer}]"
        assert KI[1] == 0


class TestFallbacks:
    """Units sent off the lockstep fast paths get numpy's draws and states."""

    def test_ziggurat_tail_and_wedges(self):
        words = [
            normal_word(0, KI[0]),  # the tail, both signs
            normal_word(0, 2**52 - 1, negative=True),
            normal_word(0, KI[0] - 1),  # the last fast word of layer 0
            normal_word(1, 0),  # layer 1 is never fast
            normal_word(1, 12345, negative=True),
            normal_word(5, KI[5]),  # wedges
            normal_word(200, 2**52 - 1, negative=True),
            normal_word(255, KI[255]),
            normal_word(255, KI[255] - 1),
            normal_word(17, 0),
        ]
        assert_draws_like_numpy(streams_emitting(words), _Streams.normals,
                                Generator.standard_normal)

    @pytest.mark.parametrize("c", [2, 3, 7, 2**31 + 1, 2**32 - 1, 2**32, 2**40 + 3])
    def test_lemire_rejections(self, c):
        # low half 0: numpy rejects and takes the word's high half next; a low half whose
        # scaled remainder is below c sends the unit to numpy, which may accept it; from
        # c = 2**32 on every unit goes to numpy
        low_halves = [0, 1, (2**32 + c - 1) // c, 2**32 - 1, 12345]
        words = [h << 32 | low for h in (0, 7, 2**32 - 1) for low in low_halves]
        assert_draws_like_numpy(streams_emitting(words), lambda s: s.integers(c),
                                lambda rng: rng.integers(c))

    def test_integers_of_one_draws_no_word(self):
        assert_draws_like_numpy(_Streams(4, 20), lambda s: s.integers(1),
                                lambda rng: rng.integers(1))

    def test_normal_after_an_integer_keeps_the_buffered_half(self):
        streams = _Streams(6, 40)
        streams.integers(5)
        assert streams.has_uint32.all()
        assert_draws_like_numpy(streams, _Streams.normals, Generator.standard_normal)

    @pytest.mark.parametrize("seed", [0, 1, 2**70])
    def test_poisson_on_both_sides_of_ten(self, seed):
        lam = np.array([0.0, 5e-324, 1e-300, 0.5, 3.0, 9.999999999999998, 10.0,
                        10.000000000000002, 25.0, 1e6, 1e12, POISSON_LAM_MAX])
        streams = _Streams(seed, len(lam))
        twins = [numpy_twin(streams, i) for i in range(len(lam))]
        counts = streams.poisson(lam)
        assert counts.tolist() == [int(rng.poisson(v)) for rng, v in zip(twins, lam.tolist())]

    def test_poisson_runs_past_one_block_of_words(self):
        # a count of 2 * _POISSON_WORDS or more needs three blocks of words ahead
        lam = np.full(400, 9.9)
        streams = _Streams(2, len(lam))
        twins = [numpy_twin(streams, i) for i in range(len(lam))]
        counts = streams.poisson(lam)
        assert counts.max() >= 2 * _POISSON_WORDS
        assert counts.tolist() == [int(rng.poisson(9.9)) for rng in twins]


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


class TestLibmExp:
    """lambda, sigma(psi) and exp(-lambda) come from libm's exp, as one unit at a time
    (and numpy's C Poisson) computes them; numpy's own exp may round otherwise."""

    def test_exp_and_sigmoid_are_libms(self):
        t = np.random.default_rng(0).uniform(-40.0, 40.0, 20_000)
        assert simulate._exp(t).tolist() == [math.exp(v) for v in t.tolist()]
        assert simulate._sigmoid(t).tolist() == [_sigmoid(v) for v in t.tolist()]

    def test_exp_overflow_is_inf(self):
        values = simulate._exp(np.array([709.0, 710.0, math.inf, -math.inf, -800.0]))
        assert values.tolist() == [math.exp(709.0), math.inf, math.inf, 0.0, 0.0]
        assert math.isnan(simulate._exp(np.array([math.nan]))[0])
