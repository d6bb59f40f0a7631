"""Exception hierarchy shared by all geocount modules, and the rules for values.

Every error carries a stable ``code`` (the class name) so the CLI can emit
machine-parseable one-line errors.  :func:`is_kind` tests a value against a kind,
such as a number or a sequence kind ``(str,)``: JSON fields (:func:`read_object`),
constructor fields (:func:`check_fields`) and ``--config`` values are checked by it.
"""

import numbers
import reprlib
import sys


class GeocountError(Exception):
    """Base class for all geocount domain errors."""

    @property
    def code(self) -> str:
        return type(self).__name__


# ---------------------------------------------------------------------------
# data model / design construction


class UnknownCovariate(GeocountError):
    def __init__(self, name):
        super().__init__(f"covariate {name!r} is not in the dataset schema")
        self.name = name


class DuplicateCovariate(GeocountError):
    def __init__(self, name):
        super().__init__(f"covariate {name!r} selected or defined more than once")
        self.name = name


class ConstantColumn(GeocountError):
    def __init__(self, name):
        super().__init__(f"column {name!r} is constant")
        self.name = name


class EmptySelection(GeocountError):
    def __init__(self):
        super().__init__("no covariates selected and no intercept requested")


# ---------------------------------------------------------------------------
# ingestion


class MissingColumn(GeocountError):
    def __init__(self, name):
        super().__init__(f"required column {name!r} not found in header")
        self.name = name


class DuplicateColumn(GeocountError):
    def __init__(self, name):
        super().__init__(f"column {name!r} appears more than once in the header")
        self.name = name


class MalformedCsv(GeocountError):
    def __init__(self, line, reason):
        super().__init__(f"line {line}: not valid CSV: {reason}")
        self.line = line


class NonNumericCell(GeocountError):
    def __init__(self, row, column):
        super().__init__(f"row {row}: cell in column {column!r} is not numeric")
        self.row = row
        self.column = column


class NegativeCount(GeocountError, ValueError):
    def __init__(self, row=None):
        where = f"row {row}: " if row is not None else ""
        super().__init__(f"{where}count outcome must be a nonnegative integer")
        self.row = row


class NonFiniteCovariate(GeocountError, ValueError):
    def __init__(self, row):
        super().__init__(f"row {row}: covariates must be finite")
        self.row = row


class ZeroDenominator(GeocountError):
    def __init__(self, row, column):
        super().__init__(f"row {row}: zero denominator in column {column!r}")
        self.row = row
        self.column = column


class DuplicateId(GeocountError):
    def __init__(self, id):
        super().__init__(f"duplicate observation id {id!r}")
        self.id = id


class InvalidCoordinate(GeocountError, ValueError):
    def __init__(self, row, message):
        super().__init__(f"row {row}: {message}")
        self.row = row


# ---------------------------------------------------------------------------
# likelihoods / fitting


class DimensionMismatch(GeocountError):
    pass


class DomainError(GeocountError):
    pass


class DegenerateOutcome(GeocountError, ValueError):
    pass


class NonFiniteObjective(GeocountError):
    def __init__(self, iteration):
        super().__init__(f"objective became non-finite at iteration {iteration}")
        self.iteration = iteration


class RankDeficientDesign(GeocountError):
    def __init__(self, columns):
        cols = ", ".join(columns)
        super().__init__(f"design matrix is rank deficient; suspect columns: {cols}")
        self.columns = tuple(columns)


class SeparationSuspected(GeocountError):
    def __init__(self):
        super().__init__(
            "logit fit did not converge and |x'beta| exceeds 30; "
            "complete or quasi-complete separation suspected"
        )


class SingularInformation(GeocountError):
    def __init__(self):
        super().__init__("observed information matrix is singular or indefinite")


class ZeroStandardError(GeocountError):
    def __init__(self, name):
        super().__init__(f"coefficient {name!r} has zero standard error")
        self.name = name


# ---------------------------------------------------------------------------
# spatial


class DegenerateGeometry(GeocountError):
    pass


class KTooLarge(GeocountError):
    def __init__(self, k, n):
        super().__init__(f"k={k} neighbors requested but only {n} observations")
        self.k = k
        self.n = n


# ---------------------------------------------------------------------------
# simulation / configuration


class InvalidSpec(GeocountError, ValueError):
    pass


def is_integer(value) -> bool:
    """A Python or numpy integer; a bool is never one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_number(value) -> bool:
    """A real number within the float range (NaN and inf too); a bool or a string is never one."""
    if is_integer(value):
        return abs(value) <= sys.float_info.max
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


#: The test, the wording and the plural of each kind; ``object`` is any value, which its
#: constructor checks.  ``str.__instancecheck__`` is a builtin ``isinstance(v, str)``, so a
#: long sequence of strings costs no Python call per item.
_KINDS = {
    str: (str.__instancecheck__, "a string", "strings"),
    int: (is_integer, "an integer", "integers"),
    float: (is_number, "a number", "numbers"),
    bool: (bool.__instancecheck__, "true or false", "true or false values"),
    list: (list.__instancecheck__, "a list", "lists"),
    dict: (dict.__instancecheck__, "an object", "objects"),
    object: (lambda v: True, "any value", "values"),
}


def is_kind(value, kind) -> bool:
    """Whether ``value`` is of ``kind``: a kind of ``_KINDS`` (a ``float`` is any number), or a
    sequence kind ``(item,)``: a list, a tuple or a 1-D array (``ndim`` 1) whose every item is
    of kind ``item``, which may itself be a sequence kind, as in ``((str,),)``."""
    if kind in _KINDS:
        return _KINDS[kind][0](value)
    item = kind[0]
    test = _KINDS[item][0] if item in _KINDS else lambda v: is_kind(v, item)
    sequence = isinstance(value, (list, tuple)) or getattr(value, "ndim", None) == 1
    return sequence and all(map(test, value))


def kind_wording(kind, plural=False) -> str:
    """How a refusal names ``kind``: ``a number``, ``a list of numbers`` (or ``numbers``,
    ``lists of numbers`` with ``plural``)."""
    if kind in _KINDS:
        return _KINDS[kind][2 if plural else 1]
    return ("lists of " if plural else "a list of ") + kind_wording(kind[0], plural=True)


def _as_kind(value, kind):
    """``value``, which is of ``kind``, as that kind: a number as ``int`` or ``float``, a sequence
    as a tuple.  Other values are kept as they are, so ids are not copied one by one."""
    if kind in _KINDS:
        return kind(value) if kind in (int, float) else value
    item = kind[0]
    return tuple(value) if item in (str, object) else tuple(_as_kind(v, item) for v in value)


def read_object(doc, what: str, **kinds) -> dict:
    """The fields of the JSON object ``doc``, which holds exactly the keys of ``kinds``, each
    of its kind (see :func:`is_kind`), returned as that kind.  Any other document raises
    ``InvalidSpec``."""
    if not is_kind(doc, dict):
        raise InvalidSpec(f"{what} must be an object, got {doc!r}")
    for key in [*doc, *kinds]:
        if key not in doc or key not in kinds:
            raise InvalidSpec(f"{what}: {'unknown' if key in doc else 'missing'} key {key!r}")
    for key, kind in kinds.items():
        if not is_kind(doc[key], kind):
            raise InvalidSpec(f"{what}: {key!r} must be {kind_wording(kind)}, got {doc[key]!r}")
    return {key: _as_kind(doc[key], kind) for key, kind in kinds.items()}


def check_fields(obj, **rules) -> None:
    """Store each named field of the frozen dataclass ``obj`` as the kind of its rule
    ``(kind, ok, wording)`` (see :func:`is_kind`; a sequence becomes a tuple), on which ``ok``
    holds.  Rules run in order, so ``ok`` may read a field stored before it.  Any other value
    raises ``InvalidSpec``: ``<Class> <field> must be <wording>, got …``, a long value cut
    short by ``reprlib``."""
    for name, (kind, ok, wording) in rules.items():
        raw = getattr(obj, name)
        if not (is_kind(raw, kind) and ok(value := _as_kind(raw, kind))):
            got = reprlib.repr(raw)
            raise InvalidSpec(f"{type(obj).__name__} {name} must be {wording}, got {got}")
        object.__setattr__(obj, name, value)
