"""Synthetic data generation from the zero-inflated Poisson process.

Each unit draws its covariates, a centroid from the spatial layout, a
structural-zero indicator Bernoulli(p_i) with p_i = sigma(z_i'gamma), and,
when not structurally zero, a Poisson(lambda_i) count with
lambda_i = exp(x_i'beta).

Reproducibility contract: unit i consumes draws only from its own substream,
``default_rng(SeedSequence(entropy=seed, spawn_key=(i,)))``, in a fixed
documented order (covariates in declared order, centroid, structural
indicator, count).  Because units never share a stream, generating units in
parallel or in any order yields exactly the serial output.  The streams'
PCG64 seed words are computed for all units at once (:func:`_unit_seed_states`)
rather than through one ``SeedSequence`` object per unit; the words, and so
the draws, are the same.  Each unit draws every maximal run of uniform-type
doubles (Uniform and Bernoulli covariates, square offsets, the structural-zero
draw) in one ``rng.random(m)`` call, and the doubles become values afterwards
in array expressions; numpy's ``uniform(a, b)`` is ``a + (b - a) * random()``,
so the values are bit for bit those of one draw call each.  Each field declares
its rule (``exceptions.rule``) and documents are read by ``exceptions.read_object``:
a string or bool is refused, never converted.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Union

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from .data import Dataset, is_lat_lon
from .exceptions import FINITE_NUMBERS, Checked, InvalidSpec, is_kind, read_object, refusal, rule
from .fitting import INFLATE_PREFIX, FitResult, OptimOptions, fit
from .likelihoods import Family, ModelSpec
from .spatial import EARTH_RADIUS_KM

KM_PER_DEGREE = np.pi * EARTH_RADIUS_KM / 180.0

#: Largest ``UniformSquare`` side: the great-circle distance from pole to pole.
MAX_SIDE_KM = math.pi * EARTH_RADIUS_KM

#: Largest lambda ``Generator.poisson`` accepts (numpy's ``POISSON_LAM_MAX``,
#: int64 max - 10 sqrt(int64 max)); it refuses larger values and NaN.
POISSON_LAM_MAX = 9.223372006484771e18

#: Preset name accepted by :func:`dgp_spec_from_json`.
PAPER_SCALE_PRESET = "paper-scale"
PAPER_SCALE_N = 2947
PAPER_SCALE_ZERO_SHARE = 0.505
# Mean count among nonzero draws; a calibration constant, not an observed target.
PAPER_SCALE_MEAN_POSITIVE = 2.0

_BASE_LAT = 39.0
_BASE_LON = -98.0


# Each descriptor fills ``doubles + draws`` raw values of a unit.  Its
# ``doubles`` are uniform doubles in [0, 1), drawn with its neighbours' in one
# ``rng.random(m)`` call; ``draw(rng)`` returns its ``draws`` values of any
# other kind and ends such a run.  A distribution's ``value`` maps its raw value
# to the covariate, on a float or a column alike; a layout's ``offsets`` maps
# its raw columns to the units' offsets from their base points.

_FINITE = (float, math.isfinite, "a finite number")
_NONNEGATIVE = (float, lambda v: 0.0 <= v < math.inf, "a finite number >= 0")


@dataclass(frozen=True)
class Normal(Checked):
    mu: float = rule(*_FINITE)
    sigma: float = rule(*_NONNEGATIVE)
    doubles, draws = 0, 1

    def draw(self, rng: np.random.Generator) -> list:
        return [rng.normal(self.mu, self.sigma)]

    def value(self, x):
        return x


@dataclass(frozen=True)
class Bernoulli(Checked):
    q: float = rule(float, lambda v: 0.0 <= v <= 1.0, "within [0, 1]")
    doubles, draws = 1, 0

    def value(self, u):
        return 1.0 * (u < self.q)


@dataclass(frozen=True)
class Uniform(Checked):
    a: float = rule(*_FINITE)
    b: float = rule(float, wording="a finite number >= a")
    doubles, draws = 1, 0

    def __post_init__(self):
        b = self.b  # as given, for the refusal
        super().__post_init__()
        # numpy's uniform needs b - a to be a finite number >= 0
        if not 0.0 <= self.b - self.a < math.inf:
            raise refusal(self, "b", "a finite number >= a", b)

    def value(self, u):
        return self.a + (self.b - self.a) * u  # numpy's uniform(a, b)


Distribution = Union[Normal, Bernoulli, Uniform]


@dataclass(frozen=True)
class UniformSquare(Checked):
    """Centroids uniform over a side_km square centred on the base point."""

    side_km: float = rule(float, lambda v: 0.0 <= v <= MAX_SIDE_KM,
                          f"within [0, {MAX_SIDE_KM!r}] (pole to pole)")
    doubles, draws = 2, 0

    def offsets(self, raw: np.ndarray) -> tuple:
        """(base points, each unit's base, north km, east km) from the two doubles."""
        half = self.side_km / 2.0
        low, span = -half, half - (-half)  # numpy's uniform(-half, half)
        return ((_BASE_LAT, _BASE_LON),), 0, low + span * raw[:, 0], low + span * raw[:, 1]


@dataclass(frozen=True)
class Clustered(Checked):
    """Centroids drawn around one of several (lat, lon) centers."""

    centers: tuple[tuple[float, float], ...] = rule(
        ((float,),), lambda v: v and all(map(is_lat_lon, v)),
        "one or more (lat, lon) pairs within [-90, 90] x [-180, 180]")
    spread_km: float = rule(*_NONNEGATIVE)
    doubles, draws = 0, 3

    def draw(self, rng: np.random.Generator) -> list:
        """Center index, north km, east km."""
        spread = self.spread_km
        return [rng.integers(len(self.centers)), rng.normal(0.0, spread), rng.normal(0.0, spread)]

    def offsets(self, raw: np.ndarray) -> tuple:
        """(base points, each unit's base, north km, east km) from the three draws."""
        return self.centers, raw[:, 0].astype(np.intp), raw[:, 1], raw[:, 2]


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
        if not all(type(d) in _DISTRIBUTIONS.values() for _, d in self.covariates):
            raise InvalidSpec(f"covariate distributions must be one of {list(_DISTRIBUTIONS)}")

    @property
    def covariate_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.covariates)


def _centroids(layout: Layout, raw: np.ndarray) -> np.ndarray:
    """(n, 2) centroids: latitude clipped to the poles, longitude wrapped into [-180, 180].

    Only an out-of-range longitude moves, by whole turns, so in-range draws keep their bits.
    """
    bases, base, north_km, east_km = layout.offsets(raw)
    base_lat, base_lon = np.array(bases).T
    # libm's cos of each base latitude, as one unit at a time computes it; np.cos
    # need not round the same
    km_per_lon_degree = np.array([KM_PER_DEGREE * math.cos(math.radians(b)) for b in base_lat])
    lat = base_lat[base] + north_km / KM_PER_DEGREE
    # an east offset at a pole can overflow to inf, which wraps to NaN and the Dataset
    # refuses as an InvalidCoordinate; a finite one can round past 180 and is clipped
    with np.errstate(over="ignore", invalid="ignore"):
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


def _unit_seed_states(seed: int, n: int) -> np.ndarray:
    """PCG64 seed words of every unit's stream, as an (n, 4) uint64 array.

    Row i equals ``SeedSequence(entropy=seed, spawn_key=(i,))
    .generate_state(4, np.uint64)``: the same uint32 hash, run over columns
    of units instead of one SeedSequence object per unit.  Needs
    ``seed >= 0`` and ``n < 2**32`` (both checked by :class:`DgpSpec`).
    """
    words = []  # seed as little-endian uint32 words, padded to the pool size
    while True:
        words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    words += [0] * (_POOL_SIZE - len(words))
    entropy = [np.full(n, w, dtype=np.uint32) for w in words]
    entropy.append(np.arange(n, dtype=np.uint32))  # the spawn key
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return result ^ (result >> np.uint32(16))

    pool = [hashmix(entropy[i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    state = np.empty((n, _STATE_WORDS), dtype=np.uint32)
    hash_const = _INIT_B
    for j in range(_STATE_WORDS):
        value = pool[j % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state[:, j] = value ^ (value >> np.uint32(16))
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _Words(ISeedSequence):
    """Seed source that hands PCG64 one unit's precomputed state words.

    PCG64 asks only for ``generate_state(4, np.uint64)``, which these words are.
    """

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _sigmoid(t: float) -> float:
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def _run_plan(sources) -> list:
    """A unit's draws as steps: one per ``draw`` and one per maximal run of
    doubles, the last run ending with the structural-zero double.  Each step
    takes the unit's Generator and returns the values it drew."""
    steps, run = [], 0
    for source in sources:
        run += source.doubles
        if source.draws:
            if run:
                steps.append(_doubles(run))
            steps.append(source.draw)
            run = 0
    return steps + [_doubles(run + 1)]


def _doubles(m: int):
    return lambda rng: rng.random(m).tolist()


def generate(spec: DgpSpec) -> Dataset:
    """Draw a dataset from the spec, fully deterministic given its seed.

    Each unit draws its raw values (run by run, see :func:`_run_plan`), then
    its structural-zero indicator and count; covariates and centroids are
    computed from the raw values of all units at once.
    """
    n = spec.n
    sources = [dist for _, dist in spec.covariates] + [spec.layout]
    starts = list(itertools.accumulate((s.doubles + s.draws for s in sources), initial=0))
    steps = _run_plan(sources)
    zero = starts[-1]  # the structural-zero double follows the layout's values
    terms = [
        (start, dist.value, b, g)
        for start, (_, dist), b, g in zip(starts, spec.covariates, spec.beta[1:], spec.gamma[1:])
    ]
    beta0, gamma0 = spec.beta[0], spec.gamma[0]
    raw = np.empty((n, zero + 1))
    counts = np.empty(n, dtype=np.int64)
    states = _unit_seed_states(spec.seed, n)
    for i in range(n):
        rng = Generator(PCG64(_Words(states[i])))
        row = []
        for step in steps:
            row += step(rng)
        raw[i] = row
        eta = beta0
        psi = gamma0
        for start, value, b, g in terms:
            x = value(row[start])
            eta += b * x
            psi += g * x
        try:
            lam = math.exp(eta)
        except OverflowError:
            raise InvalidSpec(f"lambda overflow at unit {i}: beta too large for covariates")
        if row[zero] < _sigmoid(psi):
            counts[i] = 0
        elif not lam <= POISSON_LAM_MAX:
            raise InvalidSpec(
                f"lambda {lam} at unit {i} is NaN or above the Poisson limit {POISSON_LAM_MAX}"
            )
        else:
            counts[i] = rng.poisson(lam)
    covariates = np.empty((n, len(spec.covariates)))
    for j, (start, value, _, _) in enumerate(terms):
        covariates[:, j] = value(raw[:, start])
    width = len(str(n - 1)) if n > 1 else 1
    return Dataset(
        schema=spec.covariate_names,
        ids=[f"u{i:0{width}d}" for i in range(n)],
        latlon=_centroids(spec.layout, raw[:, starts[-2]:zero]),
        y=counts,
        covariates=covariates,
    )


def paper_scale_spec(seed: int = 0) -> DgpSpec:
    """Intercept-only preset at the scale of the 2009 county analysis.

    n = 2947 units; intercepts are solved so the expected zero share is
    0.505 and the mean count among nonzero draws is 2.
    """
    from scipy.optimize import brentq  # imported here to keep `import geocount` light

    lam = brentq(
        lambda v: v / (1.0 - np.exp(-v)) - PAPER_SCALE_MEAN_POSITIVE, 1e-9, 50.0
    )
    p = (PAPER_SCALE_ZERO_SHARE - np.exp(-lam)) / (1.0 - np.exp(-lam))
    return DgpSpec(
        n=PAPER_SCALE_N,
        covariates=(),
        beta=(float(np.log(lam)),),
        gamma=(float(np.log(p / (1.0 - p))),),
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


def dgp_spec_from_json(text: str) -> DgpSpec:
    """Parse a DgpSpec JSON document.

    ``{"preset": "paper-scale", "seed": N}`` (``seed`` 0 if left out) expands to
    :func:`paper_scale_spec`; otherwise every field is required and no other is taken.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidSpec(f"spec is not valid JSON: {exc}") from exc
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
    return DgpSpec(**doc)


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
    if model.family is Family.LOGIT:
        raise InvalidSpec("recovery_trial: the generating process implies no logit truth")
    if not model.add_intercept:
        raise InvalidSpec("recovery_trial: spec truths include an intercept")

    truths = {"Intercept": spec.beta[0]}
    for j, name in enumerate(spec.covariate_names):
        truths[name] = spec.beta[j + 1]
    truths[INFLATE_PREFIX + "Intercept"] = spec.gamma[0]
    for j, name in enumerate(spec.covariate_names):
        truths[INFLATE_PREFIX + name] = spec.gamma[j + 1]

    dataset = generate(spec)
    result = fit(model, dataset, options)
    rows = []
    for coef in result.coefficients:
        if coef.name not in truths:
            raise InvalidSpec(f"no truth for fitted coefficient {coef.name!r}")
        truth = truths[coef.name]
        z_gap = abs(coef.estimate - truth) / coef.std_error
        rows.append(RecoveryRow(coef.name, truth, coef.estimate, coef.std_error, z_gap))
    return RecoveryReport(rows=tuple(rows), fit_result=result)
