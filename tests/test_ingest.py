"""CSV ingestion tests: derivations, standardization, round-trips."""

import csv
import io
import os
import re
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geocount import (
    CountyObservation,
    Dataset,
    IngestConfig,
    dataset_to_csv_text,
    ingest,
    read_dataset,
    write_dataset,
)
from geocount.exceptions import (
    ConstantColumn,
    DuplicateColumn,
    DuplicateCovariate,
    DuplicateId,
    GeocountError,
    InvalidSpec,
    MalformedCsv,
    MissingColumn,
    NegativeCount,
    NonFiniteCovariate,
    NonNumericCell,
    ZeroDenominator,
)


def read_text(text, config=None):
    return read_dataset(io.StringIO(text), config or IngestConfig())


class TestReadDataset:
    def test_rate_derivation(self):
        text = (
            "id,latitude,longitude,count,population,banks_raw\n"
            "a,40.0,-90.0,1,20000,4\n"
            "b,41.0,-91.0,0,10000,3\n"
        )
        config = IngestConfig(
            population_column="population",
            rate_specs=(("banks_raw", "banks_per_10k"),),
        )
        ds = read_text(text, config)
        assert ds.schema == ("banks_per_10k",)
        np.testing.assert_allclose(ds.covariate_values("banks_per_10k"), [2.0, 3.0])

    def test_rate_recovers_raw_count(self):
        # derived * population / 10000 must reproduce the raw cell
        rng = np.random.default_rng(3)
        lines = ["id,latitude,longitude,count,population,raw"]
        pops, raws = [], []
        for i in range(40):
            pop = float(rng.integers(1000, 1_000_000))
            raw = float(rng.integers(0, 500))
            pops.append(pop)
            raws.append(raw)
            lines.append(f"r{i},40.0,-90.0,0,{pop},{raw}")
        lines[1] = lines[1].replace(",0,", ",1,", 1)  # keep one positive count
        config = IngestConfig(population_column="population", rate_specs=(("raw", "per10k"),))
        ds = read_text("\n".join(lines) + "\n", config)
        derived = ds.covariate_values("per10k")
        np.testing.assert_allclose(derived * np.array(pops) / 10000.0, raws, rtol=1e-9)

    def test_ratio_derivation(self):
        text = (
            "id,latitude,longitude,count,pop,emp\n"
            "a,40.0,-90.0,1,300,100\n"
            "b,41.0,-91.0,0,500,250\n"
        )
        config = IngestConfig(ratio_specs=(("pop", "emp", "pop_emp_ratio"),))
        ds = read_text(text, config)
        np.testing.assert_allclose(ds.covariate_values("pop_emp_ratio"), [3.0, 2.0])

    def test_zero_population(self):
        text = "id,latitude,longitude,count,population,raw\na,40.0,-90.0,1,0,4\n"
        config = IngestConfig(population_column="population", rate_specs=(("raw", "r"),))
        with pytest.raises(ZeroDenominator):
            read_text(text, config)

    def test_zero_ratio_denominator(self):
        text = "id,latitude,longitude,count,p,q\na,40.0,-90.0,1,3,0\n"
        with pytest.raises(ZeroDenominator) as err:
            read_text(text, IngestConfig(ratio_specs=(("p", "q", "ratio"),)))
        assert err.value.column == "q"

    @pytest.mark.parametrize(
        "config",
        [
            IngestConfig(ratio_specs=(("p", "q", "ratio"),)),
            IngestConfig(population_column="q", rate_specs=(("p", "per10k"),)),
        ],
        ids=["ratio", "rate"],
    )
    def test_derived_covariate_overflow(self, config):
        # each cell is finite; the derived value overflows to inf
        text = "id,latitude,longitude,count,p,q\na,40.0,-90.0,1,3,1\nb,41.0,-91.0,0,1e308,1e-10\n"
        with pytest.raises(NonFiniteCovariate, match="row 2: covariates must be finite") as err:
            read_text(text, config)
        assert err.value.row == 2

    def test_standardize_hand_example(self):
        # values {1,2,3}: sample (n-1) stddev is exactly 1, so output is {-1,0,1}
        text = (
            "id,latitude,longitude,count,x\n"
            "a,40.0,-90.0,1,1\n"
            "b,41.0,-91.0,0,2\n"
            "c,42.0,-92.0,2,3\n"
        )
        ds = read_text(text, IngestConfig(standardize=True))
        np.testing.assert_allclose(ds.covariate_values("x"), [-1.0, 0.0, 1.0])
        mean, std = ds.standardization["x"]
        assert mean == 2.0 and std == 1.0

    def test_standardize_skips_binary(self):
        text = (
            "id,latitude,longitude,count,metro,x\n"
            "a,40.0,-90.0,1,0,1\n"
            "b,41.0,-91.0,0,1,2\n"
            "c,42.0,-92.0,2,1,3\n"
        )
        ds = read_text(text, IngestConfig(standardize=True))
        np.testing.assert_array_equal(ds.covariate_values("metro"), [0.0, 1.0, 1.0])
        assert "metro" not in ds.standardization
        assert "x" in ds.standardization

    def test_standardize_skips_derived(self):
        text = (
            "id,latitude,longitude,count,population,raw\n"
            "a,40.0,-90.0,1,10000,2\n"
            "b,41.0,-91.0,0,20000,9\n"
        )
        config = IngestConfig(
            population_column="population",
            rate_specs=(("raw", "per10k"),),
            standardize=True,
        )
        ds = read_text(text, config)
        np.testing.assert_allclose(ds.covariate_values("per10k"), [2.0, 4.5])
        assert "per10k" not in ds.standardization

    def test_standardize_constant_column(self):
        text = "id,latitude,longitude,count,x\na,40.0,-90.0,1,5\nb,41.0,-91.0,0,5\n"
        with pytest.raises(ConstantColumn):
            read_text(text, IngestConfig(standardize=True))

    def test_duplicate_column(self):
        text = "id,latitude,longitude,count,latitude\na,40.0,-90.0,1,95.0\n"
        with pytest.raises(DuplicateColumn, match="column 'latitude' appears more than once"):
            read_text(text)

    def test_rate_specs_need_population_column(self):
        with pytest.raises(InvalidSpec, match="rate_specs require a population_column"):
            IngestConfig(rate_specs=(("raw", "per10k"),))

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"standardize": "no"}, "standardize must be "),
            ({"population_column": "p", "rate_specs": [1]},
             "rate_specs[0] must be a list of strings, got 1"),
            ({"population_column": "p", "rate_specs": [("raw", "a", "b")]}, "rate_specs must be "),
            ({"ratio_specs": None}, "ratio_specs must be "),
            ({"ratio_specs": ["pqr"]}, "ratio_specs[0] must be a list of strings, got 'pqr'"),
            ({"population_column": 3.5}, "population_column must be a string, got 3.5"),
            ({"population_column": ["5"]}, "population_column must be a string, got ['5']"),
        ],
        ids=["standardize-string", "rate-number", "rate-triple", "ratio-none", "ratio-string",
             "population-number", "population-list"],
    )
    def test_config_fields_have_their_kind(self, kwargs, field):
        with pytest.raises(InvalidSpec, match=re.escape(f"IngestConfig {field}")):
            IngestConfig(**kwargs)

    def test_missing_column(self):
        with pytest.raises(MissingColumn) as err:
            read_text("id,longitude,count\na,-90.0,1\n")
        assert err.value.name == "latitude"

    def test_count_beyond_int64(self):
        # the block parse overflows int64 and the row check must name the cell
        text = "id,latitude,longitude,count\na,40.0,-90.0,1\nb,41.0,-91.0,-99999999999999999999\n"
        with pytest.raises(NonNumericCell) as err:
            read_text(text)
        assert err.value.row == 2 and err.value.column == "count"

    def test_bare_carriage_return_in_a_cell_is_malformed(self):
        # a stream that keeps "\r" inside a line: csv.reader refuses the unquoted cell
        with pytest.raises(MalformedCsv) as err:
            read_text("id,latitude,longitude,count\nx\ry,40.0,-90.0,1\n")
        assert err.value.line == 2

    def test_non_numeric_cell(self):
        text = "id,latitude,longitude,count,x\na,40.0,-90.0,1,oops\n"
        with pytest.raises(NonNumericCell) as err:
            read_text(text)
        assert err.value.row == 1 and err.value.column == "x"

    def test_negative_count(self):
        with pytest.raises(NegativeCount):
            read_text("id,latitude,longitude,count\na,40.0,-90.0,-2\n")

    def test_non_integer_count(self):
        with pytest.raises(NonNumericCell):
            read_text("id,latitude,longitude,count\na,40.0,-90.0,1.5\n")

    def test_duplicate_id(self):
        text = "id,latitude,longitude,count\na,40.0,-90.0,1\na,41.0,-91.0,0\n"
        with pytest.raises(DuplicateId):
            read_text(text)

    def test_derived_name_collides_with_header(self):
        text = "id,latitude,longitude,count,population,raw,per10k\na,40.0,-90.0,1,100,4,9\n"
        config = IngestConfig(population_column="population", rate_specs=(("raw", "per10k"),))
        with pytest.raises(DuplicateCovariate):
            read_text(text, config)

    def test_derived_names_must_be_distinct(self):
        with pytest.raises(DuplicateCovariate):
            IngestConfig(
                population_column="population",
                rate_specs=(("a", "same"), ("b", "same")),
            )


def random_dataset(rng, n=None, k=None):
    n = n or int(rng.integers(2, 12))
    k = k if k is not None else int(rng.integers(0, 4))
    schema = tuple(f"v{j}" for j in range(k))
    obs = []
    for i in range(n):
        obs.append(
            CountyObservation(
                id=f"row{i}",
                centroid=(float(rng.uniform(-89, 89)), float(rng.uniform(-179, 179))),
                count=int(rng.integers(0, 6)),
                covariates=tuple(float(v) for v in rng.normal(scale=100.0, size=k)),
            )
        )
    return Dataset.from_observations(schema, obs)


class TestOpen:
    """A path is opened, and closed on exit or error; an open file is used and left open."""

    def test_open_files_stay_open(self):
        ds = random_dataset(np.random.default_rng(1), n=3, k=1)
        sink = io.StringIO()
        write_dataset(ds, sink)
        source, bad = io.StringIO(sink.getvalue()), io.StringIO("id,latitude\n")
        assert read_dataset(source, IngestConfig()) == ds
        with pytest.raises(MissingColumn):
            read_dataset(bad, IngestConfig())
        assert not (sink.closed or source.closed or bad.closed)

    def test_paths_are_closed_on_exit_and_on_error(self, tmp_path):
        ds = random_dataset(np.random.default_rng(2), n=3, k=1)
        handles = []

        def tracking_open(*args, **kwargs):
            handles.append(open(*args, **kwargs))
            return handles[-1]

        (tmp_path / "bad.csv").write_text("id,latitude\n", encoding="utf-8")
        with mock.patch.object(ingest, "open", tracking_open, create=True):
            write_dataset(ds, tmp_path / "out.csv")
            assert read_dataset(tmp_path / "out.csv", IngestConfig()) == ds
            with pytest.raises(MissingColumn):
                read_dataset(tmp_path / "bad.csv", IngestConfig())
        assert len(handles) == 3 and all(handle.closed for handle in handles)


class TestWriteDataset:
    def test_empty_covariate_header(self):
        ds = random_dataset(np.random.default_rng(0), n=2, k=0)
        text = dataset_to_csv_text(ds)
        header = text.splitlines()[0].split(",")
        assert header == ["id", "latitude", "longitude", "count"]

    def test_round_trip_property(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            ds = random_dataset(rng)
            back = read_text(dataset_to_csv_text(ds))
            assert back.schema == ds.schema
            assert len(back) == len(ds)
            for a, b in zip(back.observations, ds.observations):
                assert a.id == b.id
                assert a.count == b.count
                assert a.centroid == b.centroid  # repr round-trips floats exactly
                assert a.covariates == b.covariates

    def test_derived_columns_appear_with_derived_names(self):
        text = (
            "id,latitude,longitude,count,population,raw\n"
            "a,40.0,-90.0,1,10000,2\n"
            "b,41.0,-91.0,0,20000,9\n"
        )
        config = IngestConfig(population_column="population", rate_specs=(("raw", "per10k"),))
        ds = read_text(text, config)
        out = dataset_to_csv_text(ds)
        assert out.splitlines()[0] == "id,latitude,longitude,count,per10k"

    def test_write_to_path(self, tmp_path):
        ds = random_dataset(np.random.default_rng(1), n=3, k=2)
        path = tmp_path / "out.csv"
        write_dataset(ds, path)
        back = read_dataset(path, IngestConfig())
        assert back.schema == ds.schema
        assert [o.count for o in back.observations] == [o.count for o in ds.observations]

    def test_path_is_read_after_a_byte_order_mark_and_written_without_one(self, tmp_path):
        ds = random_dataset(np.random.default_rng(2), n=3, k=2)
        path = tmp_path / "out.csv"
        write_dataset(ds, path)
        assert path.read_bytes() == dataset_to_csv_text(ds).encode("utf-8")
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert read_dataset(path, IngestConfig()) == read_text(dataset_to_csv_text(ds))

    @pytest.mark.parametrize("row", [1, 3000, 9000])
    def test_bytes_that_are_not_utf8_are_malformed_with_no_line(self, tmp_path, row):
        # the file is decoded a chunk at a time, so the error names no line
        lines = [b"id,latitude,longitude,count"]
        lines += [b"r%d,40.0,-90.0,1" % i for i in range(1, 9001)]
        lines[row] = b"r\xff,40.0,-90.0,1"
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(MalformedCsv) as caught:
            read_dataset(path, IngestConfig())
        assert str(caught.value) == "not valid CSV: not UTF-8 text (invalid start byte b'\\xff')"
        assert caught.value.line is None


# ---------------------------------------------------------------------------
# oracles: the row-at-a-time reader and writer the column-wise code replaced


def _oracle_float(cell, row, column):
    try:
        value = float(cell)
    except (TypeError, ValueError):
        raise NonNumericCell(row, column) from None
    if not np.isfinite(value):
        raise NonNumericCell(row, column)
    return value


def oracle_read(text, config):
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        return _oracle_rows(reader, config)
    except csv.Error as exc:
        raise MalformedCsv(reader.line_num, exc) from None


def _oracle_rows(reader, config):
    header = next(reader)
    duplicates = [name for name in header if header.count(name) > 1]
    if duplicates:
        raise DuplicateColumn(duplicates[0])
    required = ["id", "latitude", "longitude", "count"]
    if config.population_column is not None:
        required.append(config.population_column)
    required += [raw for raw, _ in config.rate_specs]
    required += [num for num, _, _ in config.ratio_specs]
    required += [den for _, den, _ in config.ratio_specs]
    col_index = {name: i for i, name in enumerate(header)}
    for name in required:
        if name not in col_index:
            raise MissingColumn(name)
    passthrough = [c for c in header if c not in required]
    schema = tuple(passthrough) + config.derived_names
    ids, latlon, counts, rows = [], [], [], []
    for rownum, cells in enumerate(reader, start=1):
        if len(cells) != len(header):
            raise NonNumericCell(rownum, header[min(len(cells), len(header) - 1)])
        rec = dict(zip(header, cells))
        lat = _oracle_float(rec["latitude"], rownum, "latitude")
        lon = _oracle_float(rec["longitude"], rownum, "longitude")
        try:
            count = int(rec["count"])
        except (TypeError, ValueError):
            raise NonNumericCell(rownum, "count") from None
        if not -(2**63) <= count < 2**63:
            raise NonNumericCell(rownum, "count")
        values = [_oracle_float(rec[c], rownum, c) for c in passthrough]
        if config.rate_specs:
            population = _oracle_float(
                rec[config.population_column], rownum, config.population_column
            )
            if population == 0.0:
                raise ZeroDenominator(rownum, config.population_column)
            for raw, _derived in config.rate_specs:
                values.append(_oracle_float(rec[raw], rownum, raw) / population * 10000.0)
        for num, den, _derived in config.ratio_specs:
            numerator = _oracle_float(rec[num], rownum, num)
            denominator = _oracle_float(rec[den], rownum, den)
            if denominator == 0.0:
                raise ZeroDenominator(rownum, den)
            values.append(numerator / denominator)
        ids.append(rec["id"])
        latlon.append((lat, lon))
        counts.append(count)
        rows.append(values)
    matrix = np.array(rows, dtype=np.float64).reshape(len(rows), len(schema))
    standardization = {}
    if config.standardize and rows:
        for j, name in enumerate(schema):
            col = matrix[:, j]
            if name in config.derived_names or ingest._is_binary(col):
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


def oracle_write(dataset):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "latitude", "longitude", "count", *dataset.schema])
    for obs_id, (lat, lon), count, values in zip(
        dataset.ids, dataset.latlon.tolist(), dataset.y.tolist(), dataset.covariates.tolist()
    ):
        writer.writerow([obs_id, repr(lat), repr(lon), str(count)] + [repr(v) for v in values])
    return buf.getvalue()


def outcome(read, text, config):
    """The dataset read, or (exception type, row, column) of the error raised.

    The row of a :class:`MalformedCsv` is its line.
    """
    try:
        return read(text, config)
    except Exception as exc:  # noqa: BLE001 - the type itself is compared
        row = getattr(exc, "row", getattr(exc, "line", None))
        return type(exc), row, getattr(exc, "column", None)


def assert_same_outcome(text, config, block_rows):
    """``read_dataset`` of ``text``, from a stream and from a file, equals the oracle's.

    A file is decoded after an optional byte-order mark, so the oracle reads it
    without a leading U+FEFF; a stream is read as given.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        for source, seen in ((io.StringIO(text, newline=""), text),
                             (path, text.removeprefix("\ufeff"))):
            want = outcome(oracle_read, seen, config)
            with mock.patch.object(ingest, "BLOCK_ROWS", block_rows):
                got = outcome(lambda t, c: read_dataset(source, c), text, config)
            assert type(got) is type(want)
            assert got == want


CONFIGS = {
    "plain": IngestConfig(),
    "standardize": IngestConfig(standardize=True),
    "rate": IngestConfig(population_column="pop", rate_specs=(("raw", "raw_per10k"),)),
    "ratio": IngestConfig(ratio_specs=(("num", "den", "num_den"),)),
    "rate+ratio": IngestConfig(
        population_column="pop",
        rate_specs=(("raw", "raw_per10k"), ("num", "num_per10k")),
        ratio_specs=(("num", "den", "num_den"),),
        standardize=True,
    ),
}
EXTRA_COLUMNS = ("x", "metro", "pop", "raw", "num", "den")

#: Odd spellings ``float`` and ``int`` accept (" 1", "1_0", full-width digits) or refuse.
ODD_CELLS = (
    "", " 1", "1_0", "1e400", "-1e400", "nan", "inf", "oops", "0", "-0.0", "1.5", "-3",
    "\uff11\uff12", "2 ", "0x10", "1e-320",
)

#: Ids that need CSV quoting or JSON escaping.
ODD_IDS = ("a,b", 'q"uote', "line\nbreak", "back\\slash", "caf\u00e9", "tab\tbell\x07", "\u2028")


@st.composite
def tables(draw, odd=True):
    """(CSV text, config): a random table, with odd cells and ragged rows if ``odd``."""
    config = CONFIGS[draw(st.sampled_from(sorted(CONFIGS)))]
    extra = draw(st.lists(st.sampled_from(EXTRA_COLUMNS), unique=True))
    needed = {"pop", "raw", "num", "den"} & {
        c for spec in config.rate_specs + config.ratio_specs for c in spec[:-1]
    }
    if config.population_column:
        needed.add(config.population_column)
    header = draw(st.permutations(["id", "latitude", "longitude", "count", *needed,
                                   *(c for c in extra if c not in needed)]))
    n = draw(st.integers(0, 12))
    ids = draw(st.lists(st.sampled_from(ODD_IDS) | st.text(max_size=4), min_size=n, max_size=n,
                        unique=True))
    numbers = {
        "latitude": st.floats(-90, 90),
        "longitude": st.floats(-180, 180),
        "count": st.integers(0, 20),
        "metro": st.sampled_from([0, 1]),
    }
    rows = []
    for i in range(n):
        cells = []
        for name in header:
            if name == "id":
                cells.append(ids[i])
            elif odd and draw(st.integers(0, 30)) == 0:
                cells.append(draw(st.sampled_from(ODD_CELLS)))
            else:
                value = draw(numbers.get(name, st.floats(-1e6, 1e6, allow_subnormal=False)))
                cells.append(repr(value) if isinstance(value, float) else str(value))
        if odd and draw(st.integers(0, 40)) == 0:
            cells = cells[:-1] if draw(st.booleans()) else cells + ["1"]
        rows.append(cells)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue(), config


def odd_table(rows=None, header="id,latitude,longitude,count,x,den\n", end="\n"):
    """Lines of a 7-row table: header, then row i as ``rows[i]`` or a plain row."""
    rows = rows or {}
    lines = [rows.get(i, f"r{i},4{i}.5,-90.0,{i % 3},{i}.25,2") + end for i in range(1, 8)]
    return [header, *lines]


#: Longer than ``csv.field_size_limit()``, as one cell and as a line of shorter cells.
_LIMIT = csv.field_size_limit()
_LONG_CELL, _HALF_CELL = "y" * (_LIMIT + 1), "y" * (_LIMIT // 2)

#: (lines, outcome or None) of tables a plain split must not read differently from csv.reader.
ODD_TEXT = [
    pytest.param(odd_table({3: ""}), (NonNumericCell, 3, "id"), id="blank-line"),
    pytest.param(odd_table({3: "a\0b,40.0,-90.0,1,2,3"}), None, id="nul-in-id"),
    pytest.param(odd_table({3: "r3,40.0,-90.0,1,2\0,3"}), (NonNumericCell, 3, "x"),
                 id="nul-in-number"),
    pytest.param(odd_table({3: "a\rb,40.0,-90.0,1,2,3"}), (NonNumericCell, 3, "latitude"),
                 id="bare-cr"),
    pytest.param(odd_table(end="\r\n"), None, id="crlf"),
    pytest.param(odd_table({i: f"4{i}.5,-90.0,1,2,3,r{i}" for i in range(1, 8)}, end="\r\n",
                           header="latitude,longitude,count,x,den,id\r\n"), None,
                 id="crlf-id-last"),
    pytest.param(odd_table({3: '"a,b",40.0,-90.0,1,2,3'}), None, id="quoted-comma"),
    pytest.param(odd_table(header="\ufeffid,latitude,longitude,count,x,den\n"),
                 (MissingColumn, None, None), id="bom-in-header"),
    pytest.param(odd_table({3: "r3,\ufeff40.0,-90.0,1,2,3"}), (NonNumericCell, 3, "latitude"),
                 id="bom-in-cell"),
    pytest.param(odd_table({3: f"{_LONG_CELL},40.0,-90.0,1,2,3"}), (MalformedCsv, 4, None),
                 id="cell-over-field-limit"),
    pytest.param(odd_table({3: f"{_HALF_CELL},40.0,-90.0,1,{_HALF_CELL}2,3"}),
                 (NonNumericCell, 3, "x"), id="line-over-field-limit"),
    pytest.param(odd_table({3: f"{_HALF_CELL},40.0,-90.0,1,{'0' * (_LIMIT // 2)}2,3"}), None,
                 id="line-over-field-limit-reads"),
    pytest.param(odd_table()[:-1] + ["r7,40.0,-90.0,1,2,3"], None, id="no-final-newline"),
    pytest.param(["id,latitude,longitude,count,x,den"], None, id="header-only-no-newline"),
    pytest.param(odd_table(header="id,latitude,longitude,count,x,x\n"),
                 (DuplicateColumn, None, None), id="duplicate-header"),
    pytest.param(odd_table({3: "r3,40.0,-90.0,1_0,1_0,2"}), None, id="underscore-digits"),
    pytest.param(odd_table({3: "r3,40.0,-90.0,\uff11,\uff12.5,\uff12"}), None,
                 id="full-width-digits"),
    pytest.param(odd_table({3: "r3,40.0,-90.0,9223372036854775808,1,2"}),
                 (NonNumericCell, 3, "count"), id="count-beyond-int64"),
    pytest.param(odd_table({5: "r5,40.0,-90.0,1,oops,2"}), (NonNumericCell, 5, "x"),
                 id="bad-cell-after-plain-rows"),
    pytest.param(odd_table({5: f"r5,40.0,-90.0,1,{_LONG_CELL},2"}), (MalformedCsv, 6, None),
                 id="malformed-after-plain-rows"),
    pytest.param(odd_table({5: '"r5,quoted",40.0,-90.0,1,2,3', 6: "r6,40.0,-90.0,1,2,0"}),
                 (ZeroDenominator, 6, "den"), id="quote-first-in-later-row"),
    pytest.param(odd_table({5: '"r5\nsplit",40.0,-90.0,1,2,3', 7: "r7,40.0,-90.0,1,x,2"}),
                 (NonNumericCell, 7, "x"), id="quoted-newline-in-later-row"),
    pytest.param(odd_table({4: "r4,40.0,-90.0,1,2", 6: "r6,40.0,-90.0,1,2,3,4"}),
                 (NonNumericCell, 4, "den"), id="short-then-long-row"),
]


class TestColumnOracle:
    """The block-wise column parse equals the row-at-a-time reader it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(table=tables(), block_rows=st.sampled_from([1, 2, 3, ingest.BLOCK_ROWS]))
    def test_read_matches_row_loop(self, table, block_rows):
        text, config = table
        assert_same_outcome(text, config, block_rows)

    @settings(max_examples=100, deadline=None)
    @given(table=tables(odd=False))
    def test_write_matches_row_loop(self, table):
        text, config = table
        try:
            dataset = read_text(text, config)
        except GeocountError:  # a constant column, zero denominator or duplicate id
            return
        written = dataset_to_csv_text(dataset)
        assert written == oracle_write(dataset)
        assert read_text(written) == oracle_read(written, IngestConfig())

    @pytest.mark.parametrize(
        "rows, error",
        [
            pytest.param({2: "a,40.0,-90.0,1,oops,0"}, (NonNumericCell, 2, "x"), id="one-bad-cell"),
            pytest.param({2: "a,40.0,-90.0,x1,nan,0"}, (NonNumericCell, 2, "count"),
                         id="two-bad-cells"),
            pytest.param({2: "a,40.0,-90.0,1,2,0"}, (ZeroDenominator, 2, "den"),
                         id="zero-denominator"),
            pytest.param({2: "a,40.0,-90.0,1"}, (NonNumericCell, 2, "x"), id="short-row"),
            pytest.param({2: "a,40.0,-90.0,1,2,3,4"}, (NonNumericCell, 2, "den"), id="long-row"),
            pytest.param({2: "a,40.0,-90.0,1,inf,1", 9000: "a,40.0,-90.0,1"},
                         (NonNumericCell, 2, "x"), id="bad-cell-before-short-row"),
            pytest.param({9000: "a,40.0,-90.0,1,2,3,4", 9001: "a,40.0,-90.0,1,2,0"},
                         (NonNumericCell, 9000, "den"), id="long-row-in-third-block"),
            pytest.param({4097: "a,1e400,-90.0,1,2,3"}, (NonNumericCell, 4097, "latitude"),
                         id="second-block-first-row"),
            pytest.param({4096: "a,40.0,-90.0,-2,2,3"}, (NegativeCount, 4096, None),
                         id="first-block-last-row"),
        ],
    )
    def test_error_names_first_bad_row_across_blocks(self, rows, error):
        lines = ["id,latitude,longitude,count,x,den"]
        lines += [rows.get(i, f"r{i},40.0,-90.0,{i % 3},{i}.5,2") for i in range(1, 9002)]
        text = "\n".join(lines) + "\n"
        config = IngestConfig(ratio_specs=(("x", "den", "x_den"),))
        assert outcome(lambda t, c: read_text(t, c), text, config) == error
        assert_same_outcome(text, config, ingest.BLOCK_ROWS)

    @pytest.mark.parametrize("lines, want", ODD_TEXT)
    @pytest.mark.parametrize("block_rows", [1, 2, 3, ingest.BLOCK_ROWS])
    def test_odd_text_matches_row_loop(self, lines, want, block_rows):
        text = "".join(lines)
        config = IngestConfig(ratio_specs=(("x", "den", "x_den"),))
        if want is not None:
            assert outcome(oracle_read, text, config) == want
        assert_same_outcome(text, config, block_rows)

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_header_only(self, name):
        text = "id,latitude,longitude,count,x,metro,pop,raw,num,den\n"
        dataset = read_text(text, CONFIGS[name])
        assert len(dataset) == 0 and dataset.covariates.shape == (0, len(dataset.schema))
        assert_same_outcome(text, CONFIGS[name], ingest.BLOCK_ROWS)


#: Ids and names that need quoting; ``csv.writer`` ending lines in LF leaves a bare CR unquoted.
QUOTED_TEXT = ODD_IDS + ("a\rb", "c,d", 'e"f', "g\nh", "\r\n", "")
HEADER_NAMES = ("id", "latitude", "longitude", "count")


@st.composite
def datasets(draw):
    """A valid dataset whose ids and covariate names are any text."""
    text = st.sampled_from(QUOTED_TEXT) | st.text(max_size=6)
    n = draw(st.integers(0, 8))
    ids = draw(st.lists(text, min_size=n, max_size=n, unique=True))
    schema = draw(st.lists(text.filter(lambda s: s not in HEADER_NAMES), max_size=3, unique=True))
    latlon = draw(st.lists(st.tuples(st.floats(-90, 90), st.floats(-180, 180)),
                           min_size=n, max_size=n))
    counts = draw(st.lists(st.integers(0, 2**63 - 1), min_size=n, max_size=n))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=n * len(schema), max_size=n * len(schema)))
    return Dataset(
        schema=schema,
        ids=ids,
        latlon=np.reshape(latlon, (n, 2)),
        y=np.array(counts, dtype=np.int64),
        covariates=np.reshape(values, (n, len(schema))),
    )


class TestRoundTrip:
    """``read_dataset`` reads back exactly what ``write_dataset`` wrote."""

    @settings(max_examples=300, deadline=None)
    @given(dataset=datasets())
    def test_any_ids_and_names(self, dataset):
        assert read_text(dataset_to_csv_text(dataset)) == dataset

    def test_quoted_ids_through_a_file(self, tmp_path):
        dataset = Dataset(
            schema=('x,"y"',),
            ids=("a\rb", "c,d", 'e"f', "g\nh"),
            latlon=np.array([[40.0, -90.0], [41.0, -91.0], [42.0, -92.0], [43.0, -93.0]]),
            y=np.array([0, 1, 2, 3]),
            covariates=np.array([[0.5], [1.5], [2.5], [3.5]]),
        )
        path = tmp_path / "quoted.csv"
        write_dataset(dataset, path)
        assert path.read_bytes().startswith(b'id,latitude,longitude,count,"x,""y"""\n"a\rb",')
        assert read_dataset(path, IngestConfig()) == dataset

    @pytest.mark.parametrize(
        "text, field",
        [("plain", "plain"), ("", ""), ("c,d", '"c,d"'), ('e"f', '"e""f"'), ("a\rb", '"a\rb"'),
         ("g\nh", '"g\nh"'), ("tab\t", "tab\t")],
    )
    def test_csv_field(self, text, field):
        assert ingest.csv_field(text) == field
