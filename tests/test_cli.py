"""End-to-end CLI tests: exit codes, formats, determinism, config handling."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geocount
import geocount.cli as cli
from geocount import CoefficientRow, Dataset, Family, FitResult
from geocount.spatial import HotspotResult, classify

DATA_DIR = Path(__file__).parent / "data"
SMOKE_CSV = str(DATA_DIR / "smoke.csv")


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def grid_csv(path, side=12, blocks=((2, 2), (8, 8)), block_side=3, high=10, spacing=0.09):
    """Square grid with high-count blocks; returns set of block ids."""
    lines = ["id,latitude,longitude,count"]
    block_ids = set()
    for i in range(side):
        for j in range(side):
            value = 0
            for bi, bj in blocks:
                if bi <= i < bi + block_side and bj <= j < bj + block_side:
                    value = high
            uid = f"g{i:02d}_{j:02d}"
            if value:
                block_ids.add(uid)
            lines.append(f"{uid},{i * spacing},{j * spacing},{value}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return block_ids


class TestCmdFit:
    def test_smoke_golden(self, tmp_path, capsys):
        out = tmp_path / "fit.txt"
        rc = cli.main(
            ["fit", "--input", SMOKE_CSV, "--family", "logit", "--out", str(out), "--format", "text"]
        )
        assert rc == 0
        golden = (DATA_DIR / "smoke_fit_golden.txt").read_bytes()
        assert out.read_bytes() == golden
        assert "fit logit" in capsys.readouterr().out

    def test_smoke_matches_closed_form(self, tmp_path):
        out = tmp_path / "fit.json"
        rc = cli.main(
            ["fit", "--input", SMOKE_CSV, "--family", "logit", "--out", str(out), "--format", "json"]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        # 2 of 6 counties have a credit union: intercept-only MLE is ln(1/2)
        assert doc["coefficients"][0]["estimate"] == pytest.approx(math.log(0.5), abs=1e-7)
        assert doc["converged"] is True

    def test_unknown_covariate_exits_1(self, tmp_path, capsys):
        rc = cli.main(
            [
                "fit", "--input", SMOKE_CSV, "--family", "logit",
                "--covariates", "nope", "--out", str(tmp_path / "x.txt"),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("UnknownCovariate:")
        assert "\n" not in err.strip()

    def test_zip_on_pure_poisson_data(self, tmp_path):
        spec = {
            "n": 2000,
            "covariates": [],
            "beta": [math.log(2.0)],
            "gamma": [-40.0],
            "layout": {"type": "uniform_square", "side_km": 1000.0},
            "seed": 4,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        data_path = tmp_path / "data.csv"
        assert cli.main(["simulate", "--spec", str(spec_path), "--out", str(data_path)]) == 0
        out = tmp_path / "fit.json"
        rc = cli.main(
            ["fit", "--input", str(data_path), "--family", "zip", "--out", str(out), "--format", "json"]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        gamma0 = next(c for c in doc["coefficients"] if c["name"] == "inflate:Intercept")
        assert gamma0["estimate"] < -5.0

    def test_nonconvergence_exits_2_and_writes(self, tmp_path, monkeypatch, capsys):
        stub = FitResult(
            family=Family.LOGIT,
            coefficients=(CoefficientRow("Intercept", 0.1, 0.2, 0.5, 0.617, ""),),
            log_likelihood=-1.0,
            iterations=200,
            converged=False,
            covariance=np.array([[0.04]]),
        )
        monkeypatch.setattr(cli, "fit", lambda model, dataset: stub)
        out = tmp_path / "fit.json"
        rc = cli.main(
            ["fit", "--input", SMOKE_CSV, "--family", "logit", "--out", str(out), "--format", "json"]
        )
        assert rc == 2
        assert json.loads(out.read_text())["converged"] is False
        captured = capsys.readouterr()
        assert "did not converge" in captured.err

    def test_block_headings_render(self, tmp_path):
        rng = np.random.default_rng(30)
        lines = ["id,latitude,longitude,count,banks_per_10k,poverty_rate,unemployment_rate,foo"]
        for i in range(60):
            lines.append(
                f"r{i},{40 + 0.01 * i},{-90 - 0.01 * i},{rng.integers(0, 4)},"
                f"{rng.normal():.4f},{rng.normal():.4f},{rng.normal():.4f},{rng.normal():.4f}"
            )
        src = tmp_path / "blocks.csv"
        src.write_text("\n".join(lines) + "\n")
        out = tmp_path / "fit.txt"
        rc = cli.main(
            [
                "fit", "--input", str(src), "--family", "poisson",
                "--covariates", "banks_per_10k,poverty_rate,unemployment_rate,foo",
                "--out", str(out), "--format", "text",
            ]
        )
        assert rc == 0
        text = out.read_text()
        assert "Market Concentration" in text
        assert "Socio-Demographic" in text
        assert "Economic" in text
        assert "foo" in text  # unmapped names still listed
        assert "Organizations of Common Bond" not in text  # no match in that block
        assert "***: Significant at or above the 99.9% level." in text

    def test_standardize_flag(self, tmp_path):
        out = tmp_path / "fit.json"
        rc = cli.main(
            [
                "fit", "--input", SMOKE_CSV, "--family", "poisson",
                "--covariates", "banks_per_10k", "--standardize",
                "--out", str(out), "--format", "json",
            ]
        )
        assert rc == 0
        assert json.loads(out.read_text())["converged"] is True

    def test_inflation_covariates_flag(self, tmp_path):
        rng = np.random.default_rng(33)
        lines = ["id,latitude,longitude,count,a,b"]
        for i in range(200):
            lines.append(
                f"r{i},{40 + 0.001 * i},-90.0,{rng.poisson(1.2) if rng.random() > 0.4 else 0},"
                f"{rng.normal():.4f},{rng.normal():.4f}"
            )
        src = tmp_path / "zipdata.csv"
        src.write_text("\n".join(lines) + "\n")
        out = tmp_path / "fit.json"
        rc = cli.main(
            [
                "fit", "--input", str(src), "--family", "zip",
                "--covariates", "a", "--inflation-covariates", "b",
                "--out", str(out), "--format", "json",
            ]
        )
        assert rc == 0
        names = [c["name"] for c in json.loads(out.read_text())["coefficients"]]
        assert names == ["Intercept", "a", "inflate:Intercept", "inflate:b"]

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "fit.csv"
        argv = ["fit", "--input", SMOKE_CSV, "--family", "poisson", "--out", str(out), "--format", "csv"]
        assert cli.main(argv) == 0
        first = sha256(out)
        assert cli.main(argv) == 0
        assert sha256(out) == first


class TestCmdHotspot:
    def test_planted_two_clusters(self, tmp_path):
        src = tmp_path / "grid.csv"
        block_ids = grid_csv(src)
        out = tmp_path / "hot.csv"
        rc = cli.main(
            ["hotspot", "--input", str(src), "--weights", "band:12", "--out", str(out)]
        )
        assert rc == 0
        rows = out.read_text().strip().splitlines()[1:]
        classes = {}
        for line in rows:
            uid, _, cls = line.split(",")
            classes[uid] = cls
        for uid in block_ids:
            assert classes[uid] in ("Hot95", "Hot99")
        background = [c for uid, c in classes.items() if uid not in block_ids]
        share_ns = sum(1 for c in background if c == "NotSignificant") / len(background)
        assert share_ns >= 0.95

    def test_all_equal_values(self, tmp_path):
        lines = ["id,latitude,longitude,count"]
        for i in range(16):
            lines.append(f"e{i},{40 + 0.05 * (i // 4)},{-90 + 0.05 * (i % 4)},3")
        src = tmp_path / "flat.csv"
        src.write_text("\n".join(lines) + "\n")
        out = tmp_path / "hot.csv"
        rc = cli.main(["hotspot", "--input", str(src), "--weights", "knn:3", "--out", str(out)])
        assert rc == 0
        classes = {line.split(",")[2] for line in out.read_text().strip().splitlines()[1:]}
        assert classes == {"NotSignificant"}

    def test_missing_lat_column_exits_1(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("id,longitude,count\na,-90.0,1\nb,-91.0,0\n")
        rc = cli.main(
            ["hotspot", "--input", str(src), "--weights", "band:50", "--out", str(tmp_path / "o.csv")]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("MissingColumn:")

    @pytest.mark.parametrize("weights", ["band:inf", "band:-5", "band:0", "knn:-3", "knn:2.5"])
    def test_bad_weights_scheme_exits_1(self, tmp_path, capsys, weights):
        out = tmp_path / "hot.csv"
        rc = cli.main(["hotspot", "--input", SMOKE_CSV, "--weights", weights, "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("InvalidSpec: ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert captured.out == ""
        assert not out.exists()

    def test_islands_warn_on_stderr_only(self, tmp_path, capsys):
        src = tmp_path / "grid.csv"
        grid_csv(src, side=6, blocks=((1, 1),), block_side=2)
        out = tmp_path / "hot.csv"
        argv = ["hotspot", "--input", str(src), "--weights", "band:12", "--out", str(out)]
        assert cli.main(argv) == 0
        assert capsys.readouterr().err == ""

        with src.open("a", encoding="utf-8") as handle:
            handle.write("far_away,30.0,30.0,1\n")
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            "hotspot: warning: 1 of 37 units have no neighbor "
            "(islands; their z uses no neighborhood values): far_away\n"
        )
        assert captured.out.startswith("hotspot: n=37 ") and captured.out.count("\n") == 1
        assert "warning" not in out.read_text()

    def test_geojson_output(self, tmp_path):
        src = tmp_path / "grid.csv"
        grid_csv(src, side=6, blocks=((1, 1),), block_side=2)
        out = tmp_path / "hot.geojson"
        rc = cli.main(
            [
                "hotspot", "--input", str(src), "--weights", "band:12",
                "--out", str(out), "--format", "geojson",
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["type"] == "FeatureCollection"
        feature = doc["features"][0]
        assert feature["geometry"]["type"] == "Point"
        lon, lat = feature["geometry"]["coordinates"]
        assert lon == pytest.approx(0.0) and lat == pytest.approx(0.0)
        assert set(feature["properties"]) == {"id", "z", "class"}

    def test_value_column_selects_covariate(self, tmp_path):
        lines = ["id,latitude,longitude,count,assets"]
        rng = np.random.default_rng(31)
        for i in range(12):
            lines.append(f"v{i},{40 + 0.05 * i},-90.0,{rng.integers(0, 3)},{rng.uniform(1, 9):.3f}")
        src = tmp_path / "vals.csv"
        src.write_text("\n".join(lines) + "\n")
        out = tmp_path / "hot.csv"
        rc = cli.main(
            [
                "hotspot", "--input", str(src), "--value-column", "assets",
                "--weights", "knn:2", "--out", str(out),
            ]
        )
        assert rc == 0


def oracle_geojson(dataset, result):
    """The ``json.dumps`` document the templated GeoJSON renderer replaced."""
    features = []
    for obs_id, (lat, lon), z, cls in zip(
        dataset.ids, dataset.latlon.tolist(), result.z.tolist(), result.classes
    ):
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": [lon, lat]},
                "properties": {"id": obs_id, "z": z, "class": cls.value},
            }
        )
    return json.dumps({"type": "FeatureCollection", "features": features}, indent=2) + "\n"


#: Ids that need CSV quoting or JSON escaping.
ODD_IDS = ("a,b", 'q"uote', "line\nbreak", "back\\slash", "caf\u00e9", "tab\tbell\x07", "\u2028")


@st.composite
def hotspot_outputs(draw):
    """(dataset, result) with any ids, valid centroids and any z, NaN and infinities too."""
    n = draw(st.integers(0, 10))
    ids = draw(st.lists(st.sampled_from(ODD_IDS) | st.text(max_size=6), min_size=n, max_size=n,
                        unique=True))
    lat = draw(st.lists(st.floats(-90, 90), min_size=n, max_size=n))
    lon = draw(st.lists(st.floats(-180, 180), min_size=n, max_size=n))
    z = draw(st.lists(st.floats(), min_size=n, max_size=n))
    dataset = Dataset(
        schema=(),
        ids=ids,
        latlon=np.reshape(list(zip(lat, lon)), (-1, 2)),
        y=np.zeros(n, dtype=np.int64),
        covariates=np.empty((n, 0)),
    )
    result = HotspotResult(z=np.array(z), classes=tuple(map(classify, z)), mean=0.0, scale=1.0)
    return dataset, result


class TestGeojsonOracle:
    @settings(max_examples=300, deadline=None)
    @given(output=hotspot_outputs())
    def test_template_matches_json_dumps(self, output):
        assert cli.render_hotspot_geojson(*output) == oracle_geojson(*output)

    def test_cli_output_matches_json_dumps(self, tmp_path):
        src, out = tmp_path / "ids.csv", tmp_path / "hot.geojson"
        lines = ["id,latitude,longitude,count"]
        for i, obs_id in enumerate(ODD_IDS):
            quoted = '"' + obs_id.replace('"', '""') + '"'
            lines.append(f"{quoted},{40 + 0.01 * i!r},{-90 - 0.01 * i!r},{i % 3}")
        src.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = ["hotspot", "--input", str(src), "--weights", "knn:2", "--out", str(out),
                "--format", "geojson"]
        assert cli.main(argv) == 0
        dataset = geocount.read_dataset(src, geocount.IngestConfig())
        weights = geocount.build_weights(dataset.latlon, geocount.KNearest(2))
        result = geocount.getis_ord_gstar(dataset.counts().astype(float), weights)
        assert dataset.ids == ODD_IDS
        assert out.read_text(encoding="utf-8") == oracle_geojson(dataset, result)


class TestCmdSimulate:
    def test_paper_scale_preset_summary(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"preset": "paper-scale", "seed": 7}')
        out = tmp_path / "sim.csv"
        rc = cli.main(["simulate", "--spec", str(spec_path), "--out", str(out)])
        assert rc == 0
        summary = capsys.readouterr().out
        assert "n=2947" in summary
        share = float(summary.split("zero_share=")[1].split()[0])
        assert 0.485 <= share <= 0.525

    def test_repeated_seed_identical_hash(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"preset": "paper-scale", "seed": 3}')
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["simulate", "--spec", str(spec_path), "--out", str(out1), "--seed", "9"]) == 0
        assert cli.main(["simulate", "--spec", str(spec_path), "--out", str(out2), "--seed", "9"]) == 0
        assert sha256(out1) == sha256(out2)

    def test_seed_flag_overrides_spec(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"preset": "paper-scale", "seed": 3}')
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["simulate", "--spec", str(spec_path), "--out", str(out1)]) == 0
        assert cli.main(["simulate", "--spec", str(spec_path), "--out", str(out2), "--seed", "3"]) == 0
        assert sha256(out1) == sha256(out2)

    def test_zero_n_exits_1(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            '{"n": 0, "covariates": [], "beta": [0.1], "gamma": [0.1],'
            ' "layout": {"type": "uniform_square", "side_km": 10}, "seed": 1}'
        )
        rc = cli.main(["simulate", "--spec", str(spec_path), "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("InvalidSpec:")


COORDINATE_CSV = "id,latitude,longitude,count\na,40.0,-90.0,1\nb,{lat},{lon},2\n"


def spec_text(n=10, layout=None, distribution=None, beta=0.1):
    """A DgpSpec document, with one covariate when a distribution is given."""
    doc = {
        "n": n,
        "covariates": [],
        "beta": [beta],
        "gamma": [0.1],
        "layout": layout or {"type": "uniform_square", "side_km": 10},
        "seed": 1,
    }
    if distribution:
        doc["covariates"].append({"name": "x", "distribution": distribution})
        doc["beta"].append(0.2)
        doc["gamma"].append(0.2)
    return json.dumps(doc)  # writes NaN and Infinity, which Python's json reads back


SIMULATE = ["simulate", "--spec", "{src}", "--out", "{out}"]


def no_zero_counts_csv(n=300, seed=0):
    """n units with Poisson(3) + 1 counts: no zeros for a ZIP fit to inflate."""
    rng = np.random.default_rng(seed)
    lines = ["id,latitude,longitude,count"]
    for i, count in enumerate(rng.poisson(3.0, n) + 1):
        lines.append(f"u{i},{rng.uniform(30, 45)!r},{rng.uniform(-100, -80)!r},{count}")
    return "\n".join(lines) + "\n"


class TestInvalidInput:
    """Every rejected input ends as one ``Code: message`` line and exit code 1."""

    @pytest.mark.parametrize(
        "argv, text, expected",
        [
            pytest.param(
                ["fit", "--input", "{src}", "--family", "logit", "--out", "{out}"],
                COORDINATE_CSV.format(lat=95.0, lon=-90.0),
                "InvalidCoordinate: row 2: latitude 95.0 outside [-90, 90]",
                id="fit-latitude",
            ),
            pytest.param(
                ["hotspot", "--input", "{src}", "--weights", "knn:1", "--out", "{out}"],
                COORDINATE_CSV.format(lat=41.0, lon=-190.0),
                "InvalidCoordinate: row 2: longitude -190.0 outside [-180, 180]",
                id="hotspot-longitude",
            ),
            pytest.param(
                ["fit", "--input", "{src}", "--family", "poisson", "--out", "{out}"],
                "id,latitude,longitude,count\na,40.0,-90.0,0\nb,41.0,-91.0,0\n",
                "DegenerateOutcome: ",
                id="fit-all-zero",
            ),
            pytest.param(
                ["fit", "--input", "{src}", "--family", "poisson", "--out", "{out}"],
                "id,latitude,longitude,count\na,40.0,-90.0,3\n",
                "DegenerateOutcome: ",
                id="fit-one-row",
            ),
            pytest.param(
                ["fit", "--input", SMOKE_CSV, "--family", "poisson",
                 "--inflation-covariates", "banks_per_10k", "--out", "{out}"],
                None,
                "InvalidSpec: ",
                id="inflation-without-zip",
            ),
            pytest.param(["report", "--fit", "{src}"], "not json", "InvalidSpec: ", id="report-fit"),
            pytest.param(
                ["fit", "--config", "{src}", "--out", "{out}"], "{", "InvalidSpec: ", id="config"
            ),
            pytest.param(
                ["hotspot", "--input", SMOKE_CSV, "--weights", "band:nan", "--out", "{out}"],
                None,
                "InvalidSpec: ",
                id="band:nan",
            ),
            pytest.param(
                ["hotspot", "--input", SMOKE_CSV, "--weights", "knn:0", "--out", "{out}"],
                None,
                "InvalidSpec: ",
                id="knn:0",
            ),
            pytest.param(
                ["simulate", "--spec", "{src}", "--out", "{out}"],
                '{"preset": "paper-scale", "seed": -1}',
                "InvalidSpec: seed must be a non-negative integer, got -1",
                id="spec-negative-seed",
            ),
            pytest.param(
                ["simulate", "--spec", "{src}", "--out", "{out}", "--seed", "-1"],
                '{"preset": "paper-scale", "seed": 0}',
                "InvalidSpec: seed must be a non-negative integer, got -1",
                id="flag-negative-seed",
            ),
            pytest.param(
                ["simulate", "--spec", "{src}", "--out", "{out}"],
                '{"preset": "paper-scale", "seed": 2.5}',
                "InvalidSpec: seed must be a non-negative integer, got 2.5",
                id="spec-non-integer-seed",
            ),
            pytest.param(
                ["simulate", "--spec", "{src}", "--out", "{out}"],
                '{"n": 4294967296, "covariates": [], "beta": [0.1], "gamma": [0.1],'
                ' "layout": {"type": "uniform_square", "side_km": 10}, "seed": 1}',
                "InvalidSpec: n must be below 2**32",
                id="spec-n-too-large",
            ),
            pytest.param(
                ["simulate", "--spec", "{src}", "--out", "{out}"],
                b"\xff\xfe\x00",
                "InvalidSpec: simulate: spec ",
                id="spec-not-utf8",
            ),
            pytest.param(
                ["hotspot", "--input", SMOKE_CSV, "--config", "{src}", "--out", "{out}"],
                '{"band_km": "abc"}',
                "InvalidSpec: config file: 'band_km' must be a number",
                id="config-band_km-string",
            ),
            pytest.param(
                ["hotspot", "--input", SMOKE_CSV, "--config", "{src}", "--out", "{out}"],
                '{"k": 2.5}',
                "InvalidSpec: config file: 'k' must be an integer",
                id="config-k-non-integer",
            ),
            pytest.param(
                ["fit", "--input", SMOKE_CSV, "--family", "poisson",
                 "--config", "{src}", "--out", "{out}"],
                '{"covariates": "banks_per_10k"}',
                "InvalidSpec: config file: 'covariates' must be a list of names",
                id="config-covariates-not-list",
            ),
            pytest.param(
                ["simulate", "--config", "{src}", "--out", "{out}"],
                '{"input": "spec.json", "seed": 1.5}',
                "InvalidSpec: config file: 'seed' must be an integer",
                id="config-seed-non-integer",
            ),
            pytest.param(
                ["fit", "--input", SMOKE_CSV, "--config", "{src}", "--out", "{out}"],
                '{"family": "nope"}',
                "InvalidSpec: config file: 'family' must be one of",
                id="config-unknown-family",
            ),
            pytest.param(
                ["fit", "--input", SMOKE_CSV, "--family", "poisson",
                 "--config", "{src}", "--out", "{out}"],
                '{"standardize": "no"}',
                "InvalidSpec: config file: 'standardize' must be true or false",
                id="config-standardize-string",
            ),
            pytest.param(
                SIMULATE,
                spec_text(distribution={"type": "normal", "mu": 0, "sigma": -1}),
                "InvalidSpec: Normal sigma must be a finite number >= 0, got -1",
                id="spec-normal-negative-sigma",
            ),
            pytest.param(
                SIMULATE,
                spec_text(distribution={"type": "uniform", "a": 0, "b": math.inf}),
                "InvalidSpec: Uniform b must be a finite number >= a, got inf",
                id="spec-uniform-infinite-b",
            ),
            pytest.param(
                SIMULATE,
                spec_text(beta=math.nan),
                "InvalidSpec: beta and gamma must be finite numbers",
                id="spec-beta-nan",
            ),
            pytest.param(
                SIMULATE,
                spec_text(layout={"type": "clustered", "centers": [], "spread_km": 50}),
                "InvalidSpec: Clustered centers must be one or more (lat, lon) pairs",
                id="spec-clustered-no-centers",
            ),
            pytest.param(
                SIMULATE,
                spec_text(layout={"type": "clustered", "centers": [[40, -100]], "spread_km": -5}),
                "InvalidSpec: Clustered spread_km must be a finite number >= 0, got -5",
                id="spec-clustered-negative-spread",
            ),
            pytest.param(
                SIMULATE,
                spec_text(layout={"type": "uniform_square", "side_km": math.nan}),
                "InvalidSpec: UniformSquare side_km must be a finite number >= 0, got nan",
                id="spec-square-nan-side",
            ),
            pytest.param(
                SIMULATE,
                spec_text(distribution={"type": "bernoulli", "q": 2.0}),
                "InvalidSpec: Bernoulli q must be within [0, 1], got 2.0",
                id="spec-bernoulli-q-above-1",
            ),
            pytest.param(
                SIMULATE,
                spec_text(layout={"type": "clustered", "centers": [[200, -100]], "spread_km": 50}),
                "InvalidSpec: Clustered centers must be one or more (lat, lon) pairs",
                id="spec-clustered-latitude-200",
            ),
            pytest.param(
                SIMULATE,
                '{"n": 10, "covariates": [], "beta": [50.0], "gamma": [-5.0],'
                ' "layout": {"type": "uniform_square", "side_km": 10}, "seed": 1}',
                "InvalidSpec: lambda 5.184705528587072e+21 at unit 0 is NaN or above the "
                "Poisson limit 9.223372006484771e+18",
                id="spec-poisson-lambda-too-large",
            ),
            pytest.param(
                SIMULATE,
                '{"n": 50, "covariates": [{"name": "x", "distribution":'
                ' {"type": "normal", "mu": 0, "sigma": 1e308}}], "beta": [0.1, 0.0],'
                ' "gamma": [0.1, 0.2], "layout": {"type": "uniform_square", "side_km": 10},'
                ' "seed": 1}',
                "InvalidSpec: lambda nan at unit 3 is NaN or above the Poisson limit",
                id="spec-poisson-lambda-nan",
            ),
            pytest.param(
                ["fit", "--input", "{src}", "--family", "logit", "--out", "{out}"],
                "id,latitude,longitude,count,latitude\na,40.0,-90.0,1,95.0\nb,41.0,-91.0,0,41.0\n",
                "DuplicateColumn: column 'latitude' appears more than once in the header",
                id="fit-duplicate-column",
            ),
            pytest.param(
                ["fit", "--input", "{src}", "--family", "zip", "--out", "{out}"],
                no_zero_counts_csv(),
                "DegenerateOutcome: no zero counts; the zero-inflation part is not identified",
                id="zip-no-zero-counts",
            ),
            pytest.param(
                ["fit", "--input", "{src}", "--family", "poisson", "--out", "{out}"],
                "id,latitude,longitude,count\na,40.0,-90.0,1\nb,41.0,-91.0,99999999999999999999\n",
                "NonNumericCell: row 2: cell in column 'count' is not numeric",
                id="fit-count-beyond-int64",
            ),
            pytest.param(
                ["hotspot", "--input", "{src}", "--value-column", "x", "--weights", "knn:1",
                 "--out", "{out}"],
                "id,latitude,longitude,count,x\n"
                + "".join(f"u{i},{40 + i}.0,-90.0,1,{s}1e308\n" for i, s in enumerate("+-+-")),
                "DomainError: values must be finite, and their sum of squares below the float limit",
                id="hotspot-sum-of-squares-overflow",
            ),
            pytest.param(
                ["fit", "--input", "{src}", "--family", "poisson", "--out", "{out}"],
                "id,latitude,longitude,count\n" + "a" * 200_000 + ",40.0,-90.0,1\n",
                "MalformedCsv: line 2: not valid CSV: field larger than field limit",
                id="fit-cell-over-field-limit",
            ),
        ],
    )
    def test_exits_1_with_one_line(self, tmp_path, capsys, argv, text, expected):
        src, out = tmp_path / "input", tmp_path / "output"
        if isinstance(text, bytes):
            src.write_bytes(text)
        elif text is not None:
            src.write_text(text, encoding="utf-8")
        rc = cli.main([arg.format(src=src, out=out) for arg in argv])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith(expected)
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert captured.out == ""
        assert not out.exists()


class TestCmdReport:
    def test_report_renders_saved_fit(self, tmp_path, capsys):
        fit_json = tmp_path / "fit.json"
        rc = cli.main(
            ["fit", "--input", SMOKE_CSV, "--family", "logit", "--out", str(fit_json), "--format", "json"]
        )
        assert rc == 0
        capsys.readouterr()
        assert cli.main(["report", "--fit", str(fit_json)]) == 0
        text = capsys.readouterr().out
        assert "Family: logit" in text
        assert "Intercept" in text
        assert "***: Significant at or above the 99.9% level." in text

    def test_report_on_garbage_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"what": 1}')
        assert cli.main(["report", "--fit", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("InvalidSpec:")


class TestConfigFile:
    def test_config_supplies_values_and_flags_override(self, tmp_path):
        out_a = tmp_path / "a.json"
        config = {
            "input": SMOKE_CSV,
            "output": str(out_a),
            "family": "poisson",
            "format": "json",
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert cli.main(["fit", "--config", str(cfg_path)]) == 0
        assert json.loads(out_a.read_text())["family"] == "poisson"

        out_b = tmp_path / "b.json"
        assert cli.main(
            ["fit", "--config", str(cfg_path), "--family", "logit", "--out", str(out_b)]
        ) == 0
        assert json.loads(out_b.read_text())["family"] == "logit"

    @pytest.mark.parametrize(
        "flags, config",
        [
            (["--weights", "knn:5"], {"band_km": 100}),
            (["--weights", "knn:5"], {"weights": "band:100", "k": 3}),
            ([], {"weights": "knn:5", "band_km": 100}),
            ([], {"k": 5}),
        ],
        ids=["flag-over-file-band", "flag-over-file-weights", "file-weights-first", "file-k"],
    )
    def test_weights_precedence(self, tmp_path, capsys, flags, config):
        spec, data = tmp_path / "spec.json", tmp_path / "data.csv"
        spec.write_text(spec_text(n=300, layout={"type": "uniform_square", "side_km": 4000}))
        assert cli.main(["simulate", "--spec", str(spec), "--out", str(data)]) == 0
        hotspot = ["hotspot", "--input", str(data)]
        flag_only, merged = tmp_path / "flag_only.csv", tmp_path / "merged.csv"
        assert cli.main([*hotspot, "--weights", "knn:5", "--out", str(flag_only)]) == 0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert cli.main([*hotspot, *flags, "--config", str(cfg_path), "--out", str(merged)]) == 0
        assert merged.read_bytes() == flag_only.read_bytes()
        assert capsys.readouterr().err == ""

    def test_missing_required_field(self, tmp_path, capsys):
        rc = cli.main(["fit", "--input", SMOKE_CSV, "--family", "logit"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("InvalidSpec:")

    def test_missing_input_file(self, tmp_path, capsys):
        rc = cli.main(
            ["fit", "--input", str(tmp_path / "none.csv"), "--family", "logit",
             "--out", str(tmp_path / "o.txt")]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("IOError:")


def test_cli_import_loads_neither_scipy_stats_nor_optimize():
    # the CLI's cold start stays light: p-values use scipy.special.ndtr and
    # paper_scale_spec imports brentq only when it runs
    code = "import sys, geocount.cli; print(' '.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(Path(geocount.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    loaded = set(result.stdout.split())
    assert "scipy.special" in loaded  # the probe sees the modules the import loads
    assert "scipy.stats" not in loaded and "scipy.optimize" not in loaded
