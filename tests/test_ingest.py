"""CSV ingestion tests: derivations, standardization, round-trips."""

import io

import numpy as np
import pytest

from geocount import (
    CountyObservation,
    Dataset,
    IngestConfig,
    dataset_to_csv_text,
    read_dataset,
    write_dataset,
)
from geocount.exceptions import (
    ConstantColumn,
    DuplicateCovariate,
    DuplicateId,
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

    def test_missing_column(self):
        with pytest.raises(MissingColumn) as err:
            read_text("id,longitude,count\na,-90.0,1\n")
        assert err.value.name == "latitude"

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
