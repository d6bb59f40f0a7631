"""CSV ingestion: read raw county tables, derive rate covariates, standardize.

Input and output dialect is RFC-4180 CSV, UTF-8, header row required,
'.' decimal separator.  Floats are written with up to 17 significant digits
(shortest representation that round-trips).
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass

import numpy as np

from .data import Dataset, reject_duplicates
from .exceptions import (
    ConstantColumn,
    DuplicateCovariate,
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
            raise ValueError("rate_specs require a population_column")
        reject_duplicates(self.derived_names, DuplicateCovariate)

    @property
    def derived_names(self) -> tuple[str, ...]:
        return tuple(d for _, d in self.rate_specs) + tuple(d for _, _, d in self.ratio_specs)


def _format_float(x: float) -> str:
    # repr() of a float is the shortest string that round-trips (<= 17 sig digits)
    return repr(float(x))


def _open(target, mode: str):
    """(file object, owned): a path is opened in ``mode``; an open file is used as is."""
    if isinstance(target, (str, os.PathLike)):
        return open(target, mode, encoding="utf-8", newline=""), True
    return target, False


def _parse_float(cell: str, row: int, column: str) -> float:
    try:
        value = float(cell)
    except (TypeError, ValueError):
        raise NonNumericCell(row, column) from None
    if not np.isfinite(value):
        raise NonNumericCell(row, column)
    return value


def _is_binary(values: np.ndarray) -> bool:
    distinct = np.unique(values)
    return distinct.size == 2 and set(distinct.tolist()) <= {0.0, 1.0}


def read_dataset(csv_source, config: IngestConfig) -> Dataset:
    """Read a CSV table into a validated :class:`Dataset`.

    One observation per data row.  Rows with missing or non-numeric cells are
    rejected with a row-indexed error rather than skipped, since silent drops
    change n and all downstream inference.  Row indices in errors are 1-based
    data rows (the header is row 0).
    """
    handle, owned = _open(csv_source, "r")
    try:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumn(config.id_column) from None

        required = [config.id_column, config.lat_column, config.lon_column, config.count_column]
        if config.population_column is not None:
            required.append(config.population_column)
        required += [raw for raw, _ in config.rate_specs]
        required += [num for num, _, _ in config.ratio_specs]
        required += [den for _, den, _ in config.ratio_specs]
        col_index = {name: i for i, name in enumerate(header)}
        for name in required:
            if name not in col_index:
                raise MissingColumn(name)
        for name in config.derived_names:
            if name in col_index:
                raise DuplicateCovariate(name)

        passthrough = [c for c in header if c not in required]
        schema = tuple(passthrough) + config.derived_names

        ids: list[str] = []
        latlon: list[tuple[float, float]] = []
        counts: list[int] = []
        rows: list[list[float]] = []

        for rownum, cells in enumerate(reader, start=1):
            if len(cells) != len(header):
                raise NonNumericCell(rownum, header[min(len(cells), len(header) - 1)])
            rec = dict(zip(header, cells))
            lat = _parse_float(rec[config.lat_column], rownum, config.lat_column)
            lon = _parse_float(rec[config.lon_column], rownum, config.lon_column)
            try:
                count = int(rec[config.count_column])
            except (TypeError, ValueError):
                raise NonNumericCell(rownum, config.count_column) from None

            values = [_parse_float(rec[c], rownum, c) for c in passthrough]
            if config.rate_specs:
                population = _parse_float(
                    rec[config.population_column], rownum, config.population_column
                )
                if population == 0.0:
                    raise ZeroDenominator(rownum, config.population_column)
                for raw, _derived in config.rate_specs:
                    raw_value = _parse_float(rec[raw], rownum, raw)
                    values.append(raw_value / population * 10000.0)
            for num, den, _derived in config.ratio_specs:
                numerator = _parse_float(rec[num], rownum, num)
                denominator = _parse_float(rec[den], rownum, den)
                if denominator == 0.0:
                    raise ZeroDenominator(rownum, den)
                values.append(numerator / denominator)

            ids.append(rec[config.id_column])
            latlon.append((lat, lon))
            counts.append(count)
            rows.append(values)
    finally:
        if owned:
            handle.close()

    matrix = np.array(rows, dtype=np.float64).reshape(len(rows), len(schema))
    standardization: dict[str, tuple[float, float]] = {}
    if config.standardize and rows:
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
        latlon=np.reshape(latlon, (-1, 2)),
        y=np.array(counts, dtype=np.int64),
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
        for obs_id, (lat, lon), count, values in zip(
            dataset.ids,
            dataset.centroids().tolist(),
            dataset.counts().tolist(),
            dataset.covariates.tolist(),
        ):
            writer.writerow(
                [obs_id, _format_float(lat), _format_float(lon), str(count)]
                + [_format_float(v) for v in values]
            )
    finally:
        if owned:
            handle.close()


def dataset_to_csv_text(dataset: Dataset) -> str:
    """Render a dataset to an in-memory CSV string."""
    buf = io.StringIO()
    write_dataset(dataset, buf)
    return buf.getvalue()
