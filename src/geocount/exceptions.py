"""Exception hierarchy shared by all geocount modules.

Every error carries a stable ``code`` (the class name) so the CLI can emit
machine-parseable one-line errors.
"""


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
