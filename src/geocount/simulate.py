"""Synthetic data generation from the zero-inflated Poisson process.

Each unit draws its covariates, a centroid from the spatial layout, a
structural-zero indicator Bernoulli(p_i) with p_i = sigma(z_i'gamma), and,
when not structurally zero, a Poisson(lambda_i) count with
lambda_i = exp(x_i'beta).

Reproducibility contract: unit i consumes draws only from its own substream,
``default_rng(SeedSequence(entropy=seed, spawn_key=(i,)))``, in a fixed
documented order (covariates in declared order, centroid, structural
indicator, count).  Because units never share a stream, generating units in
parallel or in any order yields exactly the serial output.

``generate`` runs every unit's stream in lockstep (:class:`_Streams`).  The
streams' seed words are computed for all units at once
(:func:`_unit_seed_states`: numpy's ``SeedSequence(seed).pool`` supplies the
pool, and the units' spawn keys are mixed into it as one array), and each
PCG64 state is held as two uint64 columns, so one draw advances every unit
by one word in a few array operations.  A word becomes a value as numpy's
``Generator`` makes it: a double is ``(word >> 11) * 2**-53``, a normal takes
the ziggurat's fast path (table in :mod:`._ziggurat`), ``integers(c)`` takes
Lemire's bound on the word's low half, and a Poisson count with
0 < lambda < 10 multiplies doubles until the product falls to
``exp(-lambda)``.  Every rarer case (a ziggurat
rejection, a possible Lemire rejection, lambda >= 10) is drawn by one numpy
``Generator`` set to that unit's exact state, which hands the state back.  The
values, and so every output byte and error message, are those of one
``Generator`` per unit.  Each field declares its rule (``exceptions.rule``)
and documents are read by ``exceptions.read_object``: a string or bool is
refused, never converted.  Generation loads no scipy, on the ``paper-scale``
preset too: its two intercepts are checked-in literals.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Union

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

from . import _ziggurat
from .data import INFLATE_PREFIX, INTERCEPT, Dataset, is_lat_lon
from .exceptions import FINITE_NUMBERS, Checked, InvalidSpec, is_kind, read_json, read_object
from .exceptions import must_be, refusal, rule
from .fitting import FitResult, OptimOptions, fit
from .likelihoods import Family, ModelSpec
from .spatial import EARTH_RADIUS_KM

KM_PER_DEGREE = np.pi * EARTH_RADIUS_KM / 180.0

#: Largest ``UniformSquare`` side: the great-circle distance from pole to pole.
MAX_SIDE_KM = math.pi * EARTH_RADIUS_KM

#: Largest lambda ``Generator.poisson`` accepts (numpy's ``POISSON_LAM_MAX``,
#: int64 max - 10 sqrt(int64 max)); it refuses larger values and NaN.
POISSON_LAM_MAX = 9.223372006484771e18

#: Preset name accepted by :meth:`DgpSpec.from_dict`.
PAPER_SCALE_PRESET = "paper-scale"
PAPER_SCALE_N = 2947
PAPER_SCALE_ZERO_SHARE = 0.505
# Mean count among nonzero draws; a calibration constant, not an observed target.
PAPER_SCALE_MEAN_POSITIVE = 2.0

_BASE_LAT = 39.0
_BASE_LON = -98.0


# Each descriptor declares its draws as column draws on the lockstep streams,
# with numpy's arithmetic for them: a distribution's ``draw`` returns its
# covariate for every unit, a layout's ``offsets`` the units' offsets from
# their base points.  Python evaluates the draws left to right, which is the
# documented order.

_FINITE = (float, math.isfinite, "a finite number")
_NONNEGATIVE = (float, lambda v: 0.0 <= v < math.inf, "a finite number >= 0")


@dataclass(frozen=True)
class Normal(Checked):
    mu: float = rule(*_FINITE)
    sigma: float = rule(*_NONNEGATIVE)

    def draw(self, streams: _Streams) -> np.ndarray:
        return self.mu + self.sigma * streams.normals()  # numpy's normal(mu, sigma)


@dataclass(frozen=True)
class Bernoulli(Checked):
    q: float = rule(float, lambda v: 0.0 <= v <= 1.0, "within [0, 1]")

    def draw(self, streams: _Streams) -> np.ndarray:
        return 1.0 * (streams.doubles() < self.q)


@dataclass(frozen=True)
class Uniform(Checked):
    a: float = rule(*_FINITE)
    b: float = rule(float, wording="a finite number >= a")

    def __post_init__(self):
        b = self.b  # as given, for the refusal
        super().__post_init__()
        # numpy's uniform needs b - a to be a finite number >= 0
        if not 0.0 <= self.b - self.a < math.inf:
            raise refusal(self, "b", "a finite number >= a", b)

    def draw(self, streams: _Streams) -> np.ndarray:
        return self.a + (self.b - self.a) * streams.doubles()  # numpy's uniform(a, b)


Distribution = Union[Normal, Bernoulli, Uniform]


@dataclass(frozen=True)
class UniformSquare(Checked):
    """Centroids uniform over a side_km square centred on the base point."""

    side_km: float = rule(float, lambda v: 0.0 <= v <= MAX_SIDE_KM,
                          f"within [0, {MAX_SIDE_KM!r}] (pole to pole)")

    def offsets(self, streams: _Streams) -> tuple:
        """(base points, each unit's base, north km, east km) from two doubles."""
        half = self.side_km / 2.0
        low, span = -half, half - (-half)  # numpy's uniform(-half, half)
        north_km = low + span * streams.doubles()
        return ((_BASE_LAT, _BASE_LON),), 0, north_km, low + span * streams.doubles()


@dataclass(frozen=True)
class Clustered(Checked):
    """Centroids drawn around one of several (lat, lon) centers."""

    centers: tuple[tuple[float, float], ...] = rule(
        ((float,),), lambda v: v and all(map(is_lat_lon, v)),
        "one or more (lat, lon) pairs within [-90, 90] x [-180, 180]")
    spread_km: float = rule(*_NONNEGATIVE)

    def offsets(self, streams: _Streams) -> tuple:
        """(base points, each unit's base, north km, east km): a center index, then two normals."""
        spread = self.spread_km  # numpy's normal(0.0, spread), sign of a zero included
        return (self.centers, streams.integers(len(self.centers)),
                0.0 + spread * streams.normals(), 0.0 + spread * streams.normals())


Layout = Union[UniformSquare, Clustered]

#: The JSON ``type`` name of each descriptor class, one table per kind.
_DISTRIBUTIONS = {"normal": Normal, "bernoulli": Bernoulli, "uniform": Uniform}
_LAYOUTS = {"uniform_square": UniformSquare, "clustered": Clustered}


@dataclass(frozen=True)
class DgpSpec(Checked):
    """Complete description of one synthetic data-generating process."""

    # each unit index is a one-word (uint32) SeedSequence spawn key
    n: int = rule(int, lambda v: 1 <= v < 2**32, "an integer within [1, 2**32)")
    covariates: tuple[tuple[str, Distribution], ...] = rule(
        ((object,),), lambda v: all(len(c) == 2 for c in v), "a list of (name, distribution) pairs")
    beta: tuple[float, ...] = rule(*FINITE_NUMBERS)
    gamma: tuple[float, ...] = rule(*FINITE_NUMBERS)
    layout: Layout = rule(object, lambda v: type(v) in _LAYOUTS.values(),
                          f"one of {list(_LAYOUTS)}")
    seed: int = rule(int, lambda v: v >= 0, "an integer >= 0")

    def __post_init__(self):
        super().__post_init__()
        k = len(self.covariates) + 1
        if len(self.beta) != k or len(self.gamma) != k:
            raise InvalidSpec(
                f"beta and gamma must have length {k} (intercept + covariates); "
                f"got {len(self.beta)} and {len(self.gamma)}"
            )
        names = [n for n, _ in self.covariates]
        if not is_kind(names, (str,)) or len(set(names)) != len(names):
            raise InvalidSpec(f"covariate names must be unique strings, got {names!r}")
        for name in names:  # a fit's own coefficient names, by which recovery_trial keys truths
            if name == INTERCEPT or name.startswith(INFLATE_PREFIX):
                raise InvalidSpec(
                    f"covariate {name!r} is {INTERCEPT!r} or starts with {INFLATE_PREFIX!r}")
        if not all(type(d) in _DISTRIBUTIONS.values() for _, d in self.covariates):
            raise InvalidSpec(f"covariate distributions must be one of {list(_DISTRIBUTIONS)}")

    @property
    def covariate_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.covariates)

    @classmethod
    def from_dict(cls, doc) -> DgpSpec:
        """The spec a :func:`dgp_spec_to_json` document holds, or :func:`paper_scale_spec` for
        ``{"preset": "paper-scale", "seed": N}`` (seed 0 if left out); else ``InvalidSpec``."""
        if is_kind(doc, dict) and "preset" in doc:
            preset = read_object({"seed": 0, **doc}, "spec", preset=object, seed=object)
            if preset["preset"] != PAPER_SCALE_PRESET:
                raise InvalidSpec(f"unknown preset {preset['preset']!r}")
            return paper_scale_spec(seed=preset["seed"])
        doc = read_object(
            doc, "spec", n=object, covariates=list, beta=list, gamma=list, layout=dict, seed=object
        )
        entries = [read_object(e, "spec covariate", name=str, distribution=dict)
                   for e in doc["covariates"]]
        doc["covariates"] = tuple(
            (e["name"], _descriptor_from_json(e["distribution"], _DISTRIBUTIONS)) for e in entries
        )
        doc["layout"] = _descriptor_from_json(doc["layout"], _LAYOUTS)
        return cls(**doc)


def _centroids(layout: Layout, streams: _Streams) -> np.ndarray:
    """(n, 2) centroids: latitude clipped to the poles, longitude wrapped into [-180, 180].

    Only an out-of-range longitude moves, by whole turns, so in-range draws keep their bits.
    """
    bases, base, north_km, east_km = layout.offsets(streams)
    base_lat, base_lon = np.array(bases).T
    # libm's cos of each base latitude, as one unit at a time computes it; np.cos
    # need not round the same
    km_per_lon_degree = np.array([KM_PER_DEGREE * math.cos(math.radians(b)) for b in base_lat])
    lat = base_lat[base] + north_km / KM_PER_DEGREE
    # an east offset at a pole can overflow to inf, which wraps to NaN and the Dataset
    # refuses as an InvalidCoordinate; a finite one can round past 180 and is clipped
    lon = base_lon[base] + east_km / km_per_lon_degree[base]
    out = ~((-180.0 <= lon) & (lon <= 180.0))
    lon[out] -= 360.0 * np.floor((lon[out] + 180.0) / 360.0)
    return np.column_stack([np.clip(lat, -90.0, 90.0), np.clip(lon, -180.0, 180.0)])


# SeedSequence hash constants (O'Neill's seed_seq design as adopted by numpy).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF
_STATE_WORDS = 8  # PCG64 seeds itself from 4 uint64 = 8 uint32 words


def _hash_constants(start: int, mult: int, count: int) -> tuple:
    """The xor and multiply constants of ``count`` successive hash steps from ``start``."""
    xor, times = [start], [start * mult & _MASK32]
    while len(times) < count:
        xor.append(times[-1])
        times.append(times[-1] * mult & _MASK32)
    return xor, times


# SeedSequence's hash steps on uint32 arrays, which wrap modulo 2**32
def _hashmix(value, xor, times):
    value = (value ^ xor) * times
    return value ^ (value >> 16)


def _mix(x, y):
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> 16)


# generate_state's output pass: state word j hashes pool word j % 4
_OUTPUT_XOR, _OUTPUT_MULT = (
    np.array(c, dtype=np.uint32)[:, None] for c in _hash_constants(_INIT_B, _MULT_B, _STATE_WORDS)
)


def _unit_seed_states(seed: int, n: int) -> np.ndarray:
    """PCG64 seed words of every unit's stream, as an (n, 4) uint64 array.

    Row i equals ``SeedSequence(entropy=seed, spawn_key=(i,))
    .generate_state(4, np.uint64)``.  Every unit mixes the same seed words
    into its pool before its spawn key, so numpy's ``SeedSequence(seed).pool``
    is that pool; the spawn key and the output pass run on (pool word, unit)
    arrays.  Needs ``seed >= 0`` and ``n < 2**32`` (both checked by
    :class:`DgpSpec`).
    """
    words = max(_POOL_SIZE, -(-seed.bit_length() // 32))  # the seed's uint32 words, padded
    # the pool took 4 hash steps per word; the spawn key takes the next 4
    xor, times = (np.array(c[-_POOL_SIZE:], dtype=np.uint32)[:, None]
                  for c in _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * (words + 1)))
    key = np.arange(n, dtype=np.uint32)
    pool = _mix(SeedSequence(seed).pool[:, None], _hashmix(key, xor, times))
    state = _hashmix(np.vstack([pool, pool]), _OUTPUT_XOR, _OUTPUT_MULT).astype(np.uint64)
    return (state[0::2] | state[1::2] << 32).T  # little-endian pairs of uint32 words


# PCG64 (O'Neill 2014): a 128-bit LCG, state -> state * multiplier + inc, whose
# 64-bit output word is the XSL-RR permutation of the new state.  States are
# held as uint64 (high, low) halves.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = 2**64 - 1
# Words a Poisson block jumps ahead for every unit still multiplying.  Longer
# blocks take fewer array operations at small n and leave more words unused
# at large n; 8 was about the fastest on n = 64 without slowing n = 30,000.
_POISSON_WORDS = 8


def _uint64(value) -> np.ndarray:
    # a 0-d array: ufuncs take it faster than a numpy scalar
    return np.array(value, dtype=np.uint64)


def _factor(values) -> tuple:
    """128-bit multipliers as uint64 arrays: high half, low half and the low half's 32-bit limbs."""
    v = np.array(values, dtype=object)
    return tuple(_uint64(part) for part in (v >> 64, v & _MASK64, v & _MASK32, v >> 32 & _MASK32))


# shift counts and masks
_1, _9, _11, _32, _58, _63, _64 = map(_uint64, (1, 9, 11, 32, 58, 63, 64))
_LOW8, _LOW9, _LOW32, _LOW52 = map(_uint64, (0xFF, 0x1FF, _MASK32, 2**52 - 1))
_STEP = _factor(_PCG_MULT)
_DIFF = _factor(_PCG_MULT - 1)  # state * (mult - 1) + inc is one step's difference
# state + C_j * difference is the state j steps on, C_j = 1 + mult + ... + mult**(j - 1)
_JUMPS = _factor([[sum(pow(_PCG_MULT, k, 2**128) for k in range(j)) % 2**128]
                  for j in range(1, _POISSON_WORDS + 1)])
_SIGNED_WI = np.array(_ziggurat.WI + tuple(-w for w in _ziggurat.WI))  # index: sign bit, layer
_KI = _uint64(_ziggurat.KI)


def _mul_add(hi, lo, factor: tuple, add_hi, add_lo) -> tuple:
    """(hi, lo) * factor + (add_hi, add_lo) modulo 2**128, on uint64 halves."""
    f_hi, f_lo, f0, f1 = factor
    a0, a1 = lo & _LOW32, lo >> _32
    t = a0 * f1 + (a0 * f0 >> _32)  # a 32x32-bit product plus 32 bits fits in 64
    u = a1 * f0 + (t & _LOW32)
    new_lo = lo * f_lo + add_lo
    new_hi = a1 * f1 + (t >> _32) + (u >> _32) + hi * f_lo + lo * f_hi + add_hi + (new_lo < add_lo)
    return new_hi, new_lo


def _output(hi, lo) -> np.ndarray:
    """PCG64's XSL-RR output: hi ^ lo rotated right by hi's top six bits."""
    x = hi ^ lo
    rot = hi >> _58
    return x >> rot | x << (_64 - rot)  # numpy shifts a uint64 by 64 to 0


def _unit_interval(word) -> np.ndarray:
    """numpy's double from a word: its top 53 bits over 2**53."""
    return (word >> _11).astype(np.float64) * 2.0**-53


def _exp(t: np.ndarray) -> np.ndarray:
    """libm's exp of each value (numpy's exp may round otherwise), inf where it overflows."""

    def exp_or_inf(v):
        try:
            return math.exp(v)
        except OverflowError:
            return math.inf

    values = t.tolist()
    try:
        return np.fromiter(map(math.exp, values), np.float64, len(values))
    except OverflowError:
        return np.fromiter(map(exp_or_inf, values), np.float64, len(values))


def _sigmoid(t: np.ndarray) -> np.ndarray:
    """sigma(t) per value: 1 / (1 + e^-t) for t >= 0 and e^t / (1 + e^t) below."""
    e = _exp(-np.abs(t))
    return np.where(t >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


class _Streams:
    """Every unit's numpy PCG64 stream as uint64 columns, drawn in lockstep.

    ``hi``, ``lo`` and ``inc`` hold each unit's LCG state and increment;
    ``has_uint32`` and ``uinteger`` are numpy's buffer of the half word that a
    32-bit draw leaves over.  Each draw advances every unit by one word and
    returns one value per unit.  A unit whose word leaves numpy's fast path is
    drawn again by numpy from its state before the word (:meth:`_numpy`).
    """

    def __init__(self, seed: int, n: int):
        s0, s1, i0, i1 = _unit_seed_states(seed, n).T
        # PCG64's seeding: inc = (i0:i1 << 1) | 1, state = (s0:s1 + inc) * mult + inc
        self.inc = i0 << _1 | i1 >> _63, i1 << _1 | _1
        lo = s1 + self.inc[1]
        self.hi, self.lo = _mul_add(s0 + self.inc[0] + (lo < s1), lo, _STEP, *self.inc)
        self.has_uint32, self.uinteger = np.zeros(n, dtype=bool), np.zeros(n, dtype=np.uint64)
        self._rng = None

    def _state(self) -> tuple:
        return self.hi, self.lo, self.has_uint32, self.uinteger

    def _next(self) -> tuple:
        """Every unit's next word, and the states before it."""
        before = self._state()
        self.hi, self.lo = _mul_add(self.hi, self.lo, _STEP, *self.inc)
        return before, _output(self.hi, self.lo)

    def _numpy(self, units: np.ndarray, before: tuple, draw) -> list:
        """``draw(rng, i)`` for each unit i, by one numpy Generator set to the unit's
        state in ``before``; the unit's stream goes on from the state numpy leaves."""
        if not len(units):
            return []
        if self._rng is None:
            self._rng = Generator(PCG64(0))  # its state is set before each draw
        bitgen = self._rng.bit_generator
        hi, lo, has_uint32, uinteger = before
        values = []
        for i in units.tolist():
            bitgen.state = {
                "bit_generator": "PCG64",
                "state": {"state": int(hi[i]) << 64 | int(lo[i]),
                          "inc": int(self.inc[0][i]) << 64 | int(self.inc[1][i])},
                "has_uint32": int(has_uint32[i]),
                "uinteger": int(uinteger[i]),
            }
            values.append(draw(self._rng, i))
            after = bitgen.state
            state = after["state"]["state"]
            self.hi[i], self.lo[i] = state >> 64, state & _MASK64
            self.has_uint32[i], self.uinteger[i] = after["has_uint32"], after["uinteger"]
        return values

    def doubles(self) -> np.ndarray:
        """numpy's ``random()``."""
        return _unit_interval(self._next()[1])

    def normals(self) -> np.ndarray:
        """numpy's ``standard_normal()``: the ziggurat's fast path, numpy for the rest."""
        before, word = self._next()
        rabs = word >> _9 & _LOW52
        z = rabs.astype(np.float64) * _SIGNED_WI[word & _LOW9]  # bit 8 is the sign
        redraw = np.flatnonzero(rabs >= _KI[word & _LOW8])
        z[redraw] = self._numpy(redraw, before, lambda rng, i: rng.standard_normal())
        return z

    def integers(self, c: int) -> np.ndarray:
        """numpy's ``integers(c)``, c >= 1: Lemire's method on the word's low half.

        A range of one draws no word.  numpy keeps the word's high half for its
        next 32-bit draw, and may reject only where the scaled low half is below
        c; those units (every unit once c >= 2**32) are drawn by numpy.
        """
        if c == 1:
            return np.zeros(len(self.hi), dtype=np.intp)
        before, word = self._next()
        scaled = (word & _LOW32) * _uint64(c)
        self.has_uint32, self.uinteger = np.ones(len(word), dtype=bool), word >> _32
        values = (scaled >> _32).astype(np.intp)
        redraw = np.flatnonzero(scaled & _LOW32 < c)
        values[redraw] = self._numpy(redraw, before, lambda rng, i: rng.integers(c))
        return values

    def poisson(self, lam: np.ndarray) -> np.ndarray:
        """numpy's ``poisson(lam)`` per unit, each lam finite and >= 0.

        lam == 0 draws no word.  Below 10, numpy multiplies doubles until the
        product falls to exp(-lam); here the next ``_POISSON_WORDS`` states of
        every unit still multiplying are jumped to at once.  From 10 on numpy
        draws (PTRS).  A count is the number of products above exp(-lam).  It is
        each unit's last draw, so the states the multiplying units reach are not kept.
        """
        counts = np.zeros(len(lam), dtype=np.int64)
        large = np.flatnonzero(lam >= 10.0)
        counts[large] = self._numpy(large, self._state(), lambda rng, i: rng.poisson(lam[i]))
        units = np.flatnonzero((0.0 < lam) & (lam < 10.0))
        arrays = (_exp(-lam[units]), np.ones(len(units)), self.hi[units], self.lo[units],
                  self.inc[0][units], self.inc[1][units])
        while len(units):
            limit, product, hi, lo, inc_hi, inc_lo = arrays
            # (words, units) states: state + C_j * (one step's difference)
            ahead = _mul_add(*_mul_add(hi, lo, _DIFF, inc_hi, inc_lo), _JUMPS, hi, lo)
            products = _unit_interval(_output(*ahead))
            products[0] *= product
            np.multiply.accumulate(products, axis=0, out=products)
            above = products > limit  # a prefix of each column, as the products fall
            counts[units] += above.sum(axis=0)
            going = above[-1]
            units = units[going]
            arrays = tuple(a[going] for a in (limit, products[-1], ahead[0][-1], ahead[1][-1],
                                              inc_hi, inc_lo))
        return counts


def generate(spec: DgpSpec) -> Dataset:
    """Draw a dataset from the spec, fully deterministic given its seed.

    Every unit's stream runs in lockstep (:class:`_Streams`): each draw of the
    documented order is one column over all units, and eta and psi add the
    covariate terms in declared order.  A spec that fails stops at its first
    failing unit, with that unit's message.
    """
    n = must_be(spec, DgpSpec, "generate: spec").n
    streams = _Streams(spec.seed, n)
    covariates = np.empty((n, len(spec.covariates)))
    eta, psi = np.full(n, spec.beta[0]), np.full(n, spec.gamma[0])
    # as in scalar arithmetic, a value may overflow to inf (and inf - inf be NaN) unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        for j, ((_, dist), b, g) in enumerate(zip(spec.covariates, spec.beta[1:], spec.gamma[1:])):
            x = covariates[:, j] = dist.draw(streams)
            eta, psi = eta + b * x, psi + g * x
        latlon = _centroids(spec.layout, streams)
    zero = streams.doubles() < _sigmoid(psi)
    lam = _exp(eta)
    overflow = np.isinf(lam) & np.isfinite(eta)  # where libm's exp overflowed
    failed = overflow | ~(zero | (lam <= POISSON_LAM_MAX))
    if failed.any():
        i = int(failed.argmax())
        if overflow[i]:
            raise InvalidSpec(f"lambda overflow at unit {i}: beta too large for covariates")
        lam_i = float(lam[i])
        raise InvalidSpec(
            f"lambda {lam_i} at unit {i} is NaN or above the Poisson limit {POISSON_LAM_MAX}"
        )
    width = len(str(n - 1))
    return Dataset(
        schema=spec.covariate_names,
        ids=["u" + str(i).zfill(width) for i in range(n)],
        latlon=latlon,
        y=streams.poisson(np.where(zero, 0.0, lam)),  # a structural zero draws no count
        covariates=covariates,
    )


def paper_scale_spec(seed: int = 0) -> DgpSpec:
    """Intercept-only preset at the scale of the 2009 county analysis.

    n = 2947 units.  The intercepts are checked in: they are ``brentq``'s
    roots for the targets ``PAPER_SCALE_ZERO_SHARE`` (expected zero share) and
    ``PAPER_SCALE_MEAN_POSITIVE`` (mean count among nonzero draws), and a test
    re-derives them bit for bit.
    """
    return DgpSpec(
        n=PAPER_SCALE_N,
        covariates=(),
        beta=(0.46601083115101805,),  # 0x1.dd31f17d80690p-2
        gamma=(-0.49475302479604466,),  # -0x1.faa0897462652p-2
        layout=UniformSquare(side_km=4000.0),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# JSON serialization (field names mirror DgpSpec exactly)


def _descriptor_to_json(descriptor, table: dict) -> dict:
    kind = next(name for name, cls in table.items() if type(descriptor) is cls)
    return {"type": kind, **asdict(descriptor)}


def _descriptor_from_json(payload: dict, table: dict):
    """The descriptor an object names by its ``type``; its class checks its values."""
    kind = payload.get("type")
    if not (is_kind(kind, str) and kind in table):
        raise InvalidSpec(f"descriptor {payload!r} needs a type out of {list(table)}")
    names = {f.name: object for f in fields(table[kind])}
    values = read_object(payload, f"{kind} descriptor", type=str, **names)
    del values["type"]
    return table[kind](**values)


def dgp_spec_to_json(spec: DgpSpec) -> str:
    must_be(spec, DgpSpec, "dgp_spec_to_json: spec")
    doc = {
        "n": spec.n,
        "covariates": [
            {"name": name, "distribution": _descriptor_to_json(dist, _DISTRIBUTIONS)}
            for name, dist in spec.covariates
        ],
        "beta": list(spec.beta),
        "gamma": list(spec.gamma),
        "layout": _descriptor_to_json(spec.layout, _LAYOUTS),
        "seed": spec.seed,
    }
    return json.dumps(doc, indent=2) + "\n"


def dgp_spec_from_json(text) -> DgpSpec:
    """The spec of a JSON document, ``str`` or UTF-8 ``bytes`` (``exceptions.read_json``)."""
    return DgpSpec.from_dict(read_json(text, "spec"))


# ---------------------------------------------------------------------------
# parameter-recovery harness


@dataclass(frozen=True)
class RecoveryRow:
    name: str
    truth: float
    estimate: float
    std_error: float
    z_gap: float


@dataclass(frozen=True)
class RecoveryReport:
    rows: tuple[RecoveryRow, ...]
    fit_result: FitResult

    @property
    def flagged(self) -> tuple[str, ...]:
        """Names of coefficients more than 3 standard errors from truth."""
        return tuple(r.name for r in self.rows if r.z_gap > 3.0)


def recovery_trial(
    spec: DgpSpec, model: ModelSpec, options: OptimOptions = OptimOptions()
) -> RecoveryReport:
    """Generate from the spec, fit the model, and compare against truth.

    Truths map by coefficient name: the count component against beta, the
    inflation component against gamma.  The binary-presence family has no
    coefficient truth under this process and is rejected.
    """
    if must_be(model, ModelSpec, "recovery_trial: model").family is Family.LOGIT:
        raise InvalidSpec("recovery_trial: the generating process implies no logit truth")
    if not model.add_intercept:
        raise InvalidSpec("recovery_trial: spec truths include an intercept")

    names = (INTERCEPT, *must_be(spec, DgpSpec, "recovery_trial: spec").covariate_names)
    truths = dict(zip(names, spec.beta))
    truths.update(zip([INFLATE_PREFIX + name for name in names], spec.gamma))

    dataset = generate(spec)
    result = fit(model, dataset, options)
    rows = []
    for coef in result.coefficients:
        truth = truths[coef.name]
        z_gap = abs(coef.estimate - truth) / coef.std_error
        rows.append(RecoveryRow(coef.name, truth, coef.estimate, coef.std_error, z_gap))
    return RecoveryReport(rows=tuple(rows), fit_result=result)
