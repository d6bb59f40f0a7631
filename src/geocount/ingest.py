"""CSV ingestion: read raw county tables, derive rate covariates, standardize.

Input and output dialect is RFC-4180 CSV, UTF-8, header row required,
'.' decimal separator.  Floats are written with up to 17 significant digits
(shortest representation that round-trips).
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
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
)


@dataclass(frozen=True)
class IngestConfig:
    """Column mapping and covariate derivation rules for one CSV table.

    ``rate_specs`` entries are (raw_count_column, derived_name) pairs; the
    derived covariate is raw_count / population * 10000.  ``ratio_specs``
    entries are (numerator_column, denominator_column, derived_name).
    Columns consumed by a derivation (including the population column) do not
    themselves become covariates; every other non-special column does.
    """

    id_column: str = "id"
    lat_column: str = "latitude"
    lon_column: str = "longitude"
    count_column: str = "count"
    population_column: str | None = None
    rate_specs: tuple[tuple[str, str], ...] = ()
    ratio_specs: tuple[tuple[str, str, str], ...] = ()
    standardize: bool = False

    def __post_init__(self):
        object.__setattr__(self, "rate_specs", tuple(tuple(s) for s in self.rate_specs))
        object.__setattr__(self, "ratio_specs", tuple(tuple(s) for s in self.ratio_specs))
        if self.rate_specs and self.population_column is None:
            raise InvalidSpec("rate_specs require a population_column")
        reject_duplicates(self.derived_names, DuplicateCovariate)

    @property
    def derived_names(self) -> tuple[str, ...]:
        return tuple(d for _, d in self.rate_specs) + tuple(d for _, _, d in self.ratio_specs)


def _open(target, mode: str):
    """(file object, owned): a path is opened in ``mode``; an open file is used as is."""
    if isinstance(target, (str, os.PathLike)):
        return open(target, mode, encoding="utf-8", newline=""), True
    return target, False


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
        (config.lat_column, _FLOAT),
        (config.lon_column, _FLOAT),
        (config.count_column, _COUNT),
    ]
    checks += [(name, _FLOAT) for name in passthrough]
    if config.rate_specs:
        checks.append((config.population_column, _DENOMINATOR))
        checks += [(raw, _FLOAT) for raw, _ in config.rate_specs]
    for num, den, _ in config.ratio_specs:
        checks += [(num, _FLOAT), (den, _DENOMINATOR)]
    return checks


def _parse_block(block, header, checks) -> tuple[dict, dict[str, np.ndarray]] | None:
    """(cells, parsed): the block's cells by column, and each checked column as an array.

    None if a row has the wrong width or a cell fails its check.
    """
    if any(len(row) != len(header) for row in block):
        return None
    cells = dict(zip(header, zip(*block)))
    parsed: dict[str, np.ndarray] = {}
    for name, kind in checks:
        if name not in parsed:
            parse, dtype = (int, np.int64) if kind == _COUNT else (float, np.float64)
            try:
                parsed[name] = np.fromiter(map(parse, cells[name]), dtype, len(block))
            except (ValueError, OverflowError):  # OverflowError: an integer beyond int64
                return None
        values = parsed[name]
        if kind != _COUNT and not np.isfinite(values).all():
            return None
        if kind == _DENOMINATOR and not values.all():
            return None
    return cells, parsed


def _raise_first_bad_cell(block, first_row: int, header, checks) -> None:
    """Raise the error of a block's first bad cell, checking row by row.

    Called only on a block that failed a column check, so one cell is bad.
    """
    width = len(header)
    index = {name: i for i, name in enumerate(header)}
    for row, cells in enumerate(block, start=first_row):
        if len(cells) != width:
            raise NonNumericCell(row, header[min(len(cells), width - 1)])
        for name, kind in checks:
            try:
                value = (int if kind == _COUNT else float)(cells[index[name]])
            except ValueError:
                raise NonNumericCell(row, name) from None
            in_range = -(2**63) <= value < 2**63 if kind == _COUNT else math.isfinite(value)
            if not in_range:
                raise NonNumericCell(row, name)
            if kind == _DENOMINATOR and value == 0.0:
                raise ZeroDenominator(row, name)


def read_dataset(csv_source, config: IngestConfig) -> Dataset:
    """Read a CSV table into a validated :class:`Dataset`.

    One observation per data row.  Rows with missing or non-numeric cells are
    rejected with a row-indexed error rather than skipped, since silent drops
    change n and all downstream inference.  Row indices in errors are 1-based
    data rows (the header is row 0).

    Rows are parsed a column at a time in blocks of :data:`BLOCK_ROWS`; a
    block with a bad cell is checked again row by row, so the error names the
    first bad row and, within it, the first bad cell in the order a row is
    checked: latitude, longitude, count, the other columns, then derivations.
    """
    handle, owned = _open(csv_source, "r")
    reader = csv.reader(handle)
    try:
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumn(config.id_column) from None
        reject_duplicates(header, DuplicateColumn)

        required = [config.id_column, config.lat_column, config.lon_column, config.count_column]
        if config.population_column is not None:
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
        latlon = [np.empty((0, 2))]
        counts = [np.empty(0, dtype=np.int64)]
        covariates = [np.empty((0, len(schema)))]
        first_row = 1
        while block := list(itertools.islice(reader, BLOCK_ROWS)):
            size = len(block)
            parsed_block = _parse_block(block, header, checks)
            if parsed_block is None:
                _raise_first_bad_cell(block, first_row, header, checks)
            cells, parsed = parsed_block
            columns = [parsed[name] for name in passthrough]
            with np.errstate(over="ignore"):  # an overflow to inf fails the dataset check
                if config.rate_specs:
                    population = parsed[config.population_column]
                    columns += [parsed[raw] / population * 10000.0 for raw, _ in config.rate_specs]
                columns += [parsed[num] / parsed[den] for num, den, _ in config.ratio_specs]
            ids.extend(cells[config.id_column])
            latlon.append(np.column_stack((parsed[config.lat_column], parsed[config.lon_column])))
            counts.append(parsed[config.count_column])
            covariates.append(np.column_stack(columns) if columns else np.empty((size, 0)))
            first_row += size
    except csv.Error as exc:  # e.g. a cell over csv.field_size_limit()
        raise MalformedCsv(reader.line_num, exc) from None
    finally:
        if owned:
            handle.close()

    matrix = np.concatenate(covariates)
    standardization: dict[str, tuple[float, float]] = {}
    if config.standardize and ids:
        derived = set(config.derived_names)
        for j, name in enumerate(schema):
            if name in derived:
                continue
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
        latlon=np.concatenate(latlon),
        y=np.concatenate(counts),
        covariates=matrix,
        standardization=standardization,
    )


def write_dataset(dataset: Dataset, sink) -> None:
    """Write a dataset as CSV: id, latitude, longitude, count, then covariates.

    Reading the output back with a plain :class:`IngestConfig` reproduces the
    dataset up to float formatting.
    """
    handle, owned = _open(sink, "w")
    try:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["id", "latitude", "longitude", "count", *dataset.schema])
        columns = [
            dataset.ids,
            *(map(repr, column) for column in dataset.centroids().T.tolist()),
            map(str, dataset.counts().tolist()),
            *(map(repr, column) for column in dataset.covariates.T.tolist()),
        ]
        writer.writerows(zip(*columns))
    finally:
        if owned:
            handle.close()


def dataset_to_csv_text(dataset: Dataset) -> str:
    """Render a dataset to an in-memory CSV string."""
    buf = io.StringIO()
    write_dataset(dataset, buf)
    return buf.getvalue()
