"""CSV ingestion: read raw county tables, derive rate covariates, standardize.

Input and output dialect is RFC-4180 CSV, UTF-8, header row required,
'.' decimal separator.  A file read may start with a byte-order mark; a byte
that is not UTF-8 raises ``MalformedCsv``.  Floats are written with up to 17
significant digits (shortest representation that round-trips); text fields are
quoted by :func:`csv_field`.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import os
import re
import reprlib
from dataclasses import dataclass

import numpy as np

from .data import Dataset, reject_duplicates
from .exceptions import (
    ConstantColumn,
    DuplicateColumn,
    DuplicateCovariate,
    InvalidSpec,
    MalformedCsv,
    MissingColumn,
    NonNumericCell,
    ZeroDenominator,
    Checked,
    must_be,
    not_utf8,
    rule,
)

#: The columns every table has: the unit's id, its centroid and its count.
ID_COLUMN, LAT_COLUMN, LON_COLUMN, COUNT_COLUMN = "id", "latitude", "longitude", "count"


@dataclass(frozen=True)
class IngestConfig(Checked):
    """Covariate derivation rules for one CSV table.

    ``rate_specs`` entries are (raw_count_column, derived_name) pairs; the
    derived covariate is raw_count / population * 10000.  ``ratio_specs``
    entries are (numerator_column, denominator_column, derived_name).
    Columns consumed by a derivation (including the population column) do not
    themselves become covariates; every other non-special column does.
    """

    population_column: str | None = rule(str, default=None)
    rate_specs: tuple[tuple[str, str], ...] = rule(
        ((str,),), lambda v: all(len(s) == 2 for s in v), "a list of (column, name) pairs",
        default=())
    ratio_specs: tuple[tuple[str, str, str], ...] = rule(
        ((str,),), lambda v: all(len(s) == 3 for s in v),
        "a list of (numerator, denominator, name) triples", default=())
    standardize: bool = rule(bool, default=False)

    def __post_init__(self):
        super().__post_init__()
        if self.rate_specs and self.population_column is None:
            raise InvalidSpec("rate_specs require a population_column")
        reject_duplicates(self.derived_names, DuplicateCovariate)

    @property
    def derived_names(self) -> tuple[str, ...]:
        return tuple(d for _, d in self.rate_specs) + tuple(d for _, _, d in self.ratio_specs)


def _open(target, mode: str, where: str):
    """The file as a context manager: a path is opened in ``mode`` and closed on exit; an open
    file is used as is and left open.  Anything else is ``InvalidSpec`` naming ``where``.

    A path is read as UTF-8 after an optional byte-order mark and written as UTF-8.
    """
    if isinstance(target, (str, os.PathLike)):
        encoding = "utf-8-sig" if mode == "r" else "utf-8"
        return open(target, mode, encoding=encoding, newline="")
    if not hasattr(target, "read" if mode == "r" else "write"):
        raise InvalidSpec(f"{where} must be a path or an open file, got {reprlib.repr(target)}")
    return contextlib.nullcontext(target)


#: A field holding one of these characters is written in double quotes.
_NEEDS_QUOTES = re.compile('[,"\r\n]')


def csv_field(text: str) -> str:
    """``text`` as a CSV field: quoted, each ``"`` doubled, if it holds a comma, quote, CR or LF.

    That is RFC 4180 plus the bare CR, which a ``csv.writer`` ending lines in LF leaves unquoted.
    """
    if _NEEDS_QUOTES.search(text) is None:
        return text
    return '"' + text.replace('"', '""') + '"'


def _is_binary(values: np.ndarray) -> bool:
    distinct = np.unique(values)
    return distinct.size == 2 and set(distinct.tolist()) <= {0.0, 1.0}


#: Data rows parsed per block; only one block's cells are held as strings at once.
BLOCK_ROWS = 4096

# Kinds of checked cell: a finite float, a finite nonzero float, an int64 integer.
_FLOAT, _DENOMINATOR, _COUNT = "float", "denominator", "count"


def _cell_checks(config: IngestConfig, passthrough) -> list[tuple[str, str]]:
    """(column, kind) for every cell a row is checked on, in the order checked."""
    checks = [
        (LAT_COLUMN, _FLOAT),
        (LON_COLUMN, _FLOAT),
        (COUNT_COLUMN, _COUNT),
    ]
    checks += [(name, _FLOAT) for name in passthrough]
    if config.rate_specs:
        checks.append((config.population_column, _DENOMINATOR))
        checks += [(raw, _FLOAT) for raw, _ in config.rate_specs]
    for num, den, _ in config.ratio_specs:
        checks += [(num, _FLOAT), (den, _DENOMINATOR)]
    return checks


def _parse_column(cells, kind: str) -> tuple[np.ndarray | None, type | None]:
    """(values, None) if every cell is a ``kind`` value, else (None, the error type).

    A count is an int64 ``int``, any other cell a finite ``float``, a denominator nonzero.
    """
    parse, dtype = (int, np.int64) if kind == _COUNT else (float, np.float64)
    try:
        values = np.fromiter(map(parse, cells), dtype, len(cells))
    except (ValueError, OverflowError):  # OverflowError: an integer beyond int64
        return None, NonNumericCell
    if kind != _COUNT and not np.isfinite(values).all():
        return None, NonNumericCell
    if kind == _DENOMINATOR and not values.all():
        return None, ZeroDenominator
    return values, None


def _parse_columns(cells: dict, checks) -> dict[str, np.ndarray] | None:
    """Each checked column of ``cells`` as an array; None if a cell fails its check."""
    parsed: dict[str, np.ndarray] = {}
    for name, kind in checks:
        values, error = _parse_column(cells[name], kind)
        if error:
            return None
        parsed.setdefault(name, values)
    return parsed


def _plain_columns(lines: list[str], width: int) -> list[list[str]] | None:
    """The cells of ``lines`` by column, if ``csv.reader`` would split them on their commas alone.

    None unless the block is plain: no quote, CR or NUL, no line longer than
    ``csv.field_size_limit()`` and ``width - 1`` commas on every line (so no
    empty line, since a header has at least four names).  Then its text is
    split once and each column is a strided slice.
    """
    body = "".join(lines)
    if (
        '"' in body or "\r" in body or "\0" in body
        or max(map(len, lines)) > csv.field_size_limit()
        or set(map(str.count, lines, itertools.repeat(","))) != {width - 1}
    ):
        return None
    cells = body.replace("\n", ",").split(",")
    if body.endswith("\n"):
        del cells[-1]  # the empty cell after the last line's newline
    return [cells[j::width] for j in range(width)]


def _raise_first_bad_cell(rows, first_row: int, header, checks) -> None:
    """Raise the error of a block's first bad cell, checking row by row.

    Called only on a block that failed its width or column check, so one cell is bad.
    """
    for row, cells in enumerate(rows, start=first_row):
        if len(cells) != len(header):
            raise NonNumericCell(row, header[min(len(cells), len(header) - 1)])
        record = dict(zip(header, cells))
        for name, kind in checks:
            if error := _parse_column((record[name],), kind)[1]:
                raise error(row, name)


def _blocks(handle, width: int, lines_read: int):
    """Yield (first_row, columns, rows) per block of data rows, ``lines_read`` lines into ``handle``.

    A plain block is split on its commas and has rows None.  The first other
    block, and every one after it, is read by ``csv.reader`` over that block's
    lines and the rest of ``handle``, which covers quoted fields and every
    malformed row; its columns are None if a row's width is not ``width``.
    """
    first_row = 1
    while lines := list(itertools.islice(handle, BLOCK_ROWS)):
        columns = _plain_columns(lines, width)
        if columns is None:
            break
        yield first_row, columns, None
        first_row += len(lines)
    reader = csv.reader(itertools.chain(lines, handle))  # at the end of handle, reads nothing
    lines_read += first_row - 1
    try:
        while rows := list(itertools.islice(reader, BLOCK_ROWS)):
            yield first_row, list(zip(*rows)) if set(map(len, rows)) == {width} else None, rows
            first_row += len(rows)
    except csv.Error as exc:  # e.g. a cell over csv.field_size_limit()
        raise MalformedCsv(lines_read + reader.line_num, exc) from None


def read_dataset(csv_source, config: IngestConfig) -> Dataset:
    """Read a CSV table into a validated :class:`Dataset`.

    One observation per data row.  Rows with missing or non-numeric cells are
    rejected with a row-indexed error rather than skipped, since silent drops
    change n and all downstream inference.  Row indices in errors are 1-based
    data rows (the header is row 0).

    ``csv_source`` is a path or an open text file.  Rows are parsed a column at
    a time in blocks of :data:`BLOCK_ROWS` lines.  A plain block (no quote, CR,
    NUL, empty line or overlong line, and the header's width on every line) is
    split on its commas; from the first other block on, ``csv.reader`` reads
    the rows, so every table reads as ``csv.reader`` reads it.  A block with a
    bad cell is checked again row by row, so the error names the first bad row
    and, within it, the first bad cell in the order a row is checked:
    latitude, longitude, count, the other columns, then derivations.
    """
    with _open(csv_source, "r", "read_dataset: csv_source") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise MissingColumn(ID_COLUMN)
            reject_duplicates(header, DuplicateColumn)

            required = [ID_COLUMN, LAT_COLUMN, LON_COLUMN, COUNT_COLUMN]
            if must_be(config, IngestConfig, "read_dataset: config").population_column is not None:
                required.append(config.population_column)
            required += [raw for raw, _ in config.rate_specs]
            required += [num for num, _, _ in config.ratio_specs]
            required += [den for _, den, _ in config.ratio_specs]
            for name in required:
                if name not in header:
                    raise MissingColumn(name)
            for name in config.derived_names:
                if name in header:
                    raise DuplicateCovariate(name)

            passthrough = [c for c in header if c not in required]
            schema = tuple(passthrough) + config.derived_names
            checks = _cell_checks(config, passthrough)

            ids: list[str] = []
            # typed empty starts, for a table with no rows
            blocks: dict[str, list[np.ndarray]] = {}
            for name, kind in checks:
                blocks.setdefault(name, [np.empty(0, np.int64 if kind == _COUNT else np.float64)])
            for first_row, columns, rows in _blocks(handle, len(header), reader.line_num):
                cells = None if columns is None else dict(zip(header, columns))
                parsed = None if cells is None else _parse_columns(cells, checks)
                if parsed is None:
                    _raise_first_bad_cell(rows or zip(*columns), first_row, header, checks)
                ids.extend(cells[ID_COLUMN])
                for name, values in parsed.items():
                    blocks[name].append(values)
        except csv.Error as exc:  # in the header, e.g. a cell over csv.field_size_limit()
            raise MalformedCsv(reader.line_num, exc) from None
        except UnicodeDecodeError as exc:
            raise MalformedCsv(None, not_utf8(exc)) from None

    column = {name: np.concatenate(parts) for name, parts in blocks.items()}
    covariates = [column[name] for name in passthrough]
    with np.errstate(over="ignore"):  # an overflow to inf fails the dataset check
        if config.rate_specs:
            population = column[config.population_column]
            covariates += [column[raw] / population * 10000.0 for raw, _ in config.rate_specs]
        covariates += [column[num] / column[den] for num, den, _ in config.ratio_specs]
    matrix = np.column_stack(covariates) if covariates else np.empty((len(ids), 0))
    standardization: dict[str, tuple[float, float]] = {}
    if config.standardize and ids:
        for j, name in enumerate(passthrough):
            col = matrix[:, j]
            if _is_binary(col):
                continue
            mean = float(np.mean(col))
            std = float(np.std(col, ddof=1)) if col.size > 1 else 0.0
            if not np.isfinite(std) or std == 0.0:
                raise ConstantColumn(name)
            matrix[:, j] = (col - mean) / std
            standardization[name] = (mean, std)

    return Dataset(
        schema=schema,
        ids=ids,
        latlon=np.column_stack((column[LAT_COLUMN], column[LON_COLUMN])),
        y=column[COUNT_COLUMN],
        covariates=matrix,
        standardization=standardization,
    )


def write_dataset(dataset: Dataset, sink) -> None:
    """Write a dataset as CSV: id, latitude, longitude, count, then covariates.

    Ids and names are quoted by :func:`csv_field`; reading the output back with
    a plain :class:`IngestConfig` gives the same ids, names and values.
    """
    must_be(dataset, Dataset, "write_dataset: dataset")
    with _open(sink, "w", "write_dataset: sink") as handle:
        header = [ID_COLUMN, LAT_COLUMN, LON_COLUMN, COUNT_COLUMN, *dataset.schema]
        columns = [
            map(csv_field, dataset.ids),
            *(map(repr, column) for column in dataset.centroids().T.tolist()),
            map(str, dataset.counts().tolist()),
            *(map(repr, column) for column in dataset.covariates.T.tolist()),
        ]
        handle.write(",".join(map(csv_field, header)) + "\n")
        handle.writelines(row + "\n" for row in map(",".join, zip(*columns)))


def dataset_to_csv_text(dataset: Dataset) -> str:
    """Render a dataset to an in-memory CSV string."""
    buf = io.StringIO()
    write_dataset(dataset, buf)
    return buf.getvalue()
