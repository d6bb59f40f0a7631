"""Exception hierarchy shared by all geocount modules, and the rules for values.

Every error carries a stable ``code`` (the class name) so the CLI can emit
machine-parseable one-line errors.  :func:`is_kind` tests a value against a kind,
such as a number or a sequence kind ``(str,)``: JSON fields (:func:`read_object`),
``--config`` values and constructor fields (declared by :func:`rule`) are checked by it.
Every JSON document (a spec, a saved fit, a ``--config`` file) is parsed by :func:`read_json`.
"""

import copyreg
import dataclasses
import functools
import json
import math
import numbers
import reprlib
import sys


class GeocountError(Exception):
    """Base class for all geocount domain errors.  A class with a ``template`` takes its
    ``fields`` as arguments, stores each as the attribute of its name and formats its one
    message from them; a class without one takes its message as it is."""

    fields: tuple[str, ...] = ()
    template: str | None = None

    def __init__(self, *args):
        if self.template is not None:
            values = dict(zip(self.fields, args, strict=True))
            self.__dict__.update(values)
            args = (self.template.format(**values),)
        super().__init__(*args)

    def __reduce__(self):
        # pickle would call the class on ``args``, the one formatted message; rebuild the
        # error as it is instead: its args and its attributes, with no ``__init__`` call
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__

    @property
    def code(self) -> str:
        return type(self).__name__


# ---------------------------------------------------------------------------
# data model / design construction


class UnknownCovariate(GeocountError):
    fields, template = ("name",), "covariate {name!r} is not in the dataset schema"


class DuplicateCovariate(GeocountError):
    fields, template = ("name",), "covariate {name!r} selected or defined more than once"


class ConstantColumn(GeocountError):
    fields, template = ("name",), "column {name!r} is constant"


class EmptySelection(GeocountError):
    template = "no covariates selected and no intercept requested"


# ---------------------------------------------------------------------------
# ingestion


class MissingColumn(GeocountError):
    fields, template = ("name",), "required column {name!r} not found in header"


class DuplicateColumn(GeocountError):
    fields, template = ("name",), "column {name!r} appears more than once in the header"


class MalformedCsv(GeocountError):
    def __init__(self, line, reason):
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}not valid CSV: {reason}")
        self.line = line


class NonNumericCell(GeocountError):
    fields, template = ("row", "column"), "row {row}: cell in column {column!r} is not numeric"


class NegativeCount(GeocountError, ValueError):
    def __init__(self, row=None):
        where = f"row {row}: " if row is not None else ""
        super().__init__(f"{where}count outcome must be a nonnegative integer")
        self.row = row


class NonFiniteCovariate(GeocountError, ValueError):
    fields, template = ("row",), "row {row}: covariates must be finite"


class ZeroDenominator(GeocountError):
    fields, template = ("row", "column"), "row {row}: zero denominator in column {column!r}"


class DuplicateId(GeocountError):
    fields, template = ("id",), "duplicate observation id {id!r}"


class InvalidCoordinate(GeocountError, ValueError):
    fields, template = ("row", "reason"), "row {row}: {reason}"


# ---------------------------------------------------------------------------
# likelihoods / fitting


class DimensionMismatch(GeocountError):
    pass


class DomainError(GeocountError):
    pass


class DegenerateOutcome(GeocountError, ValueError):
    pass


class NonFiniteObjective(GeocountError):
    fields, template = ("iteration",), "objective became non-finite at iteration {iteration}"


class RankDeficientDesign(GeocountError):
    def __init__(self, columns):
        cols = ", ".join(columns)
        super().__init__(f"design matrix is rank deficient; suspect columns: {cols}")
        self.columns = tuple(columns)


class SeparationSuspected(GeocountError):
    template = ("logit fit did not converge and |x'beta| exceeds 30; "
                "complete or quasi-complete separation suspected")


class SingularInformation(GeocountError):
    template = "observed information matrix is singular or indefinite"


class ZeroStandardError(GeocountError):
    fields, template = ("name",), "coefficient {name!r} has zero standard error"


# ---------------------------------------------------------------------------
# spatial


class DegenerateGeometry(GeocountError):
    pass


class KTooLarge(GeocountError):
    fields, template = ("k", "n"), "k={k} neighbors requested but only {n} observations"


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


def _is_sequence(value) -> bool:
    return isinstance(value, (list, tuple)) or getattr(value, "ndim", None) == 1


def is_kind(value, kind) -> bool:
    """Whether ``value`` is of ``kind``: a kind of ``_KINDS`` (a ``float`` is any number), or a
    sequence kind ``(item,)``: a list, a tuple or a 1-D array (``ndim`` 1) whose every item is
    of kind ``item``, which may itself be a sequence kind, as in ``((str,),)``."""
    if kind in _KINDS:
        return _KINDS[kind][0](value)
    item = kind[0]
    test = _KINDS[item][0] if item in _KINDS else lambda v: is_kind(v, item)
    return _is_sequence(value) and all(map(test, value))


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


def not_utf8(exc: UnicodeDecodeError) -> str:
    """Why a read was not UTF-8, with no position: a table is decoded a chunk at a time."""
    return f"not UTF-8 text ({exc.reason} {exc.object[exc.start : exc.end]!r})"


def read_json(document, what: str):
    """The JSON value of ``document``, a ``str`` or UTF-8 ``bytes``, after one leading U+FEFF;
    anything else (an over-long integer, deep nesting) is ``InvalidSpec`` naming ``what``."""
    if not isinstance(document, (str, bytes)):
        raise InvalidSpec(f"{what} must be text or bytes, got {reprlib.repr(document)}")
    try:
        text = document.decode("utf-8") if isinstance(document, bytes) else document
        return json.loads(text.removeprefix("\ufeff"))
    except UnicodeDecodeError as exc:
        raise InvalidSpec(f"{what} is {not_utf8(exc)}") from None
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError is a ValueError
        raise InvalidSpec(f"{what} is not valid JSON: {exc}") from None


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


#: A sequence of finite numbers, the rule of coefficient vectors.
FINITE_NUMBERS = ((float,), lambda v: all(map(math.isfinite, v)), "finite numbers")

_RULE = "geocount.rule"


def rule(kind, ok=None, wording=None, **default):
    """A dataclass field whose value must be of ``kind`` and, as that kind, pass ``ok`` (if
    given), else is refused as not ``wording`` (the kind's own, if not given).  ``default`` or
    ``default_factory`` pass on to ``dataclasses.field``; :class:`Checked` runs the rule."""
    checks = (kind, ok or (lambda v: True), wording or kind_wording(kind))
    return dataclasses.field(metadata={_RULE: checks}, **default)


@functools.cache
def field_rules(cls) -> dict:
    """``{name: (kind, ok, wording, takes_none)}`` of the fields of ``cls`` that declare a rule,
    in field order; a field whose default is ``None`` takes ``None``."""
    return {f.name: (*f.metadata[_RULE], f.default is None)
            for f in dataclasses.fields(cls) if _RULE in f.metadata}


def refusal(obj, name: str, wording: str, value) -> InvalidSpec:
    """``<Class> <field> must be <wording>, got <value>``, a long value cut short by ``reprlib``."""
    return InvalidSpec(f"{type(obj).__name__} {name} must be {wording}, got {reprlib.repr(value)}")


def must_be(value, cls, where: str):
    """``value`` if it is a ``cls``; else ``InvalidSpec: <where> must be a <Class>, got <value>``,
    where ``where`` names the function and the argument, as in ``fit: dataset``."""
    if isinstance(value, cls):
        return value
    article = "an" if cls.__name__[0] in "AEIOU" else "a"
    raise InvalidSpec(f"{where} must be {article} {cls.__name__}, got {reprlib.repr(value)}")


def check_fields(obj) -> None:
    """Store each field of the frozen dataclass ``obj`` that declares a rule as the kind of its
    rule (see :func:`is_kind`; a sequence becomes a tuple), in field order.  Any other value is
    a :func:`refusal`; a sequence not of its kind names the path to its first bad item and that
    item, as in ``Dataset ids[30] must be a string, got 5``."""
    for name, (kind, ok, wording, takes_none) in field_rules(type(obj)).items():
        raw = getattr(obj, name)
        if is_kind(raw, kind) and ok(value := _as_kind(raw, kind)):
            object.__setattr__(obj, name, value)
        elif not (takes_none and raw is None):
            while kind not in _KINDS and _is_sequence(raw) and not is_kind(raw, kind):
                i = next(i for i, item in enumerate(raw) if not is_kind(item, kind[0]))
                name, raw, kind = f"{name}[{i}]", raw[i], kind[0]  # down to the first bad item
                wording = kind_wording(kind)
            raise refusal(obj, name, wording, raw)


class Checked:
    """Base of a frozen dataclass whose fields declare their rules by :func:`rule`; each
    construction checks and stores them once.  A subclass that compares fields does so in its
    own ``__post_init__``, after ``super().__post_init__()``."""

    __post_init__ = check_fields
