"""End-to-end CLI tests: exit codes, formats, determinism, config handling."""

import argparse
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import geocount
import geocount.cli as cli
from geocount import CoefficientRow, Dataset, Family, FitResult
from geocount.spatial import HotspotResult, classify

DATA_DIR = Path(__file__).parent / "data"
SMOKE_CSV = str(DATA_DIR / "smoke.csv")
#: ``fit --family logit --format json`` of the smoke table.
SMOKE_FIT_JSON = str(DATA_DIR / "smoke_fit.json")
SMOKE_FIT_TEXT = Path(SMOKE_FIT_JSON).read_text(encoding="utf-8")


def fit_text(**fields):
    """The smoke fit document with ``fields`` replaced or added."""
    return json.dumps({**json.loads(SMOKE_FIT_TEXT), **fields})


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

    def test_byte_order_marks_read_as_without(self, tmp_path, capsys):
        # spreadsheet programs save "CSV UTF-8" with a byte-order mark
        bom = b"\xef\xbb\xbf"
        table, cfg = tmp_path / "bom.csv", tmp_path / "bom.json"
        table.write_bytes(bom + Path(SMOKE_CSV).read_bytes())
        cfg.write_bytes(bom + json.dumps({"family": "logit", "format": "text"}).encode())
        out = tmp_path / "fit.txt"
        assert cli.main(["fit", "--input", str(table), "--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA_DIR / "smoke_fit_golden.txt").read_bytes()
        spec = tmp_path / "spec.json"
        spec.write_bytes(bom + spec_text().encode())
        sims = [tmp_path / "bom_sim.csv", tmp_path / "sim.csv"]
        assert cli.main(["simulate", "--spec", str(spec), "--out", str(sims[0])]) == 0
        spec.write_text(spec_text(), encoding="utf-8")
        assert cli.main(["simulate", "--spec", str(spec), "--out", str(sims[1])]) == 0
        assert sims[0].read_bytes() == sims[1].read_bytes()
        assert capsys.readouterr().err == ""

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

    @pytest.mark.parametrize("converged, code", [(True, 0), (False, 2)])
    def test_warnings_print_one_line_each(self, tmp_path, monkeypatch, capsys, converged, code):
        stub = FitResult(
            family=Family.LOGIT,
            coefficients=(CoefficientRow("Intercept", 0.1, 0.2, 0.5, 0.617, ""),),
            log_likelihood=-1.0,
            iterations=3,
            converged=converged,
            covariance=np.array([[0.04]]),
        )

        def warning_fit(model, dataset):
            warnings.warn("ill-conditioned matrix", scipy.linalg.LinAlgWarning)
            warnings.warn("overflow encountered", RuntimeWarning)
            return stub

        monkeypatch.setattr(cli, "fit", warning_fit)
        rc = cli.main(["fit", "--input", SMOKE_CSV, "--family", "logit",
                       "--out", str(tmp_path / "fit.json"), "--format", "json"])
        assert rc == code
        lines = capsys.readouterr().err.splitlines()
        assert lines[-2:] == ["warning: LinAlgWarning: ill-conditioned matrix",
                              "warning: RuntimeWarning: overflow encountered"]
        assert len(lines) == 2 + (not converged)  # and the non-convergence line

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

    def test_scheme_number_read_as_python_int(self, tmp_path):
        # a number typed as text is read by Python's int/float, as argparse reads --seed
        outs = [tmp_path / "ascii.csv", tmp_path / "full-width.csv"]
        for weights, out in zip(["knn:3", "knn:\uff13"], outs):
            argv = ["hotspot", "--input", SMOKE_CSV, "--weights", weights, "--out", str(out)]
            assert cli.main(argv) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

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
ODD_IDS = ("a,b", 'q"uote', "line\nbreak", "back\\slash", "caf\u00e9", "tab\tbell\x07", "\u2028",
           "cr\rid")


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


def oracle_hotspot_csv(dataset, result):
    """The per-row f-string the column-wise CSV renderer replaced."""
    lines = ["id,z,class"]
    for obs_id, z, cls in zip(dataset.ids, result.z.tolist(), result.classes):
        lines.append(f"{geocount.ingest.csv_field(obs_id)},{z!r},{cls.value}")
    return "\n".join(lines) + "\n"


class TestHotspotCsvOracle:
    @settings(max_examples=200, deadline=None)
    @given(output=hotspot_outputs())
    def test_columns_match_row_loop(self, output):
        assert cli.render_hotspot_csv(*output) == oracle_hotspot_csv(*output)

    def test_summary_counts_equal_startswith_counts(self, tmp_path, monkeypatch, capsys):
        src, out = tmp_path / "units.csv", tmp_path / "hot.csv"
        rng = np.random.default_rng(41)
        members = list(geocount.HotspotClass)
        for n in [2, 5, 12, 12, 30]:
            lines = [f"u{i},{40 + 0.01 * i!r},-90.0,{i % 3}" for i in range(n)]
            src.write_text("id,latitude,longitude,count\n" + "\n".join(lines) + "\n")
            classes = tuple(members[i] for i in rng.integers(0, len(members), size=n))
            result = HotspotResult(z=np.zeros(n), classes=classes, mean=0.0, scale=1.0)
            monkeypatch.setattr(cli, "getis_ord_gstar", lambda values, weights: result)
            argv = ["hotspot", "--input", str(src), "--weights", "knn:1", "--out", str(out)]
            assert cli.main(argv) == 0
            n_hot = sum(1 for c in classes if c.value.startswith("Hot"))
            n_cold = sum(1 for c in classes if c.value.startswith("Cold"))
            assert capsys.readouterr().out == f"hotspot: n={n} hot={n_hot} cold={n_cold} -> {out}\n"
            assert out.read_text(encoding="utf-8") == oracle_hotspot_csv(
                geocount.read_dataset(src, geocount.IngestConfig()), result)


def oracle_render_fit_text(result):
    """The text table as rendered before names were unique: rows placed through a set."""
    prefix = "inflate:"
    count_rows = [r for r in result.coefficients if not r.name.startswith(prefix)]
    inflate_rows = [r for r in result.coefficients if r.name.startswith(prefix)]

    by_name = {r.name: r for r in count_rows}
    placed = set()
    intercept = [by_name["Intercept"]] if "Intercept" in by_name else []
    placed.update(r.name for r in intercept)
    blocks = []
    for heading, names in cli.COVARIATE_BLOCKS:
        hit = [by_name[n] for n in names if n in by_name]
        if hit:
            blocks.append((heading, hit))
            placed.update(r.name for r in hit)
    rest = [r for r in count_rows if r.name not in placed]
    ordered = [(None, intercept + rest)] + blocks
    if inflate_rows:
        stripped = [r._replace(name=r.name[len(prefix):]) for r in inflate_rows]
        ordered.append(("Zero-Inflation Component", stripped))

    width = max(
        [len("Variable")]
        + [len(r.name) for _, rows in ordered for r in rows]
        + [len(h) for h, _ in ordered if h]
    )
    lines = [
        f"Family: {result.family.value}",
        f"Log-likelihood: {result.log_likelihood:.6f}",
        f"Iterations: {result.iterations}   Converged: {'yes' if result.converged else 'no'}",
        "",
        f"{'Variable':<{width}}  {'Estimate':>10}  {'Stars':<5}  (p-value)",
    ]
    for heading, rows in ordered:
        if heading:
            lines.append(heading)
        for r in rows:
            indent = "  " if heading else ""
            name = f"{indent}{r.name}"
            lines.append(
                f"{name:<{width}}  {r.estimate:>10.4f}  {r.stars:<5}  {cli._format_p(r.p_value)}"
            )
    lines.append("")
    lines.append(cli._STAR_LEGEND.rstrip("\n"))
    return "\n".join(lines) + "\n"


BLOCK_NAMES = [name for _, names in cli.COVARIATE_BLOCKS for name in names]


@st.composite
def fit_results(draw):
    """A fit result with unique names: block names, other names and the intercept, and for a
    ZIP the inflation names, in any order."""
    other = st.text(min_size=1, max_size=30).filter(
        lambda n: n != "Intercept" and n not in BLOCK_NAMES and not n.startswith("inflate:"))
    name = st.sampled_from(["Intercept", *BLOCK_NAMES]) | other
    names = draw(st.lists(name, max_size=12, unique=True))
    family = draw(st.sampled_from(list(Family)))
    if family is Family.ZIP:
        names += ["inflate:" + n for n in draw(st.lists(name, max_size=8, unique=True))]
    names = draw(st.permutations(names))
    number = st.floats(-1e6, 1e6)
    rows = tuple(
        CoefficientRow(n, draw(number), 1.0, 0.0, draw(st.floats(0, 1)),
                       draw(st.sampled_from(["", "*", "**", "***"])))
        for n in names
    )
    return FitResult(family=family, coefficients=rows, log_likelihood=draw(number),
                     iterations=draw(st.integers(0, 200)), converged=draw(st.booleans()),
                     covariance=np.eye(len(rows)))


class TestFitTextOracle:
    @settings(max_examples=300, deadline=None)
    @given(result=fit_results())
    def test_pops_by_name_match_placed_set(self, result):
        assert cli.render_fit_text(result) == oracle_render_fit_text(result)


class TestCsvQuoting:
    """CSV output quotes ids and names, so every row parses back to its fields."""

    def test_hotspot_ids_with_commas(self, tmp_path):
        ids = ["Dallas, TX", "Tarrant, TX", 'Harris "Houston", TX', "Travis,\r\nTX", "Bexar"]
        src, out = tmp_path / "ids.csv", tmp_path / "hot.csv"
        with src.open("w", encoding="utf-8", newline="") as handle:
            csv.writer(handle).writerows(
                [["id", "latitude", "longitude", "count"]]
                + [[obs_id, 30 + 0.1 * i, -97 - 0.1 * i, i % 3] for i, obs_id in enumerate(ids)]
            )
        argv = ["hotspot", "--input", str(src), "--weights", "knn:2", "--out", str(out),
                "--format", "csv"]
        assert cli.main(argv) == 0
        with out.open(encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        assert {len(row) for row in rows} == {3}
        assert [row[0] for row in rows] == ["id", *ids]

    def test_fit_covariate_name_with_comma_and_quote(self, tmp_path):
        name = 'a,"b"'
        rng = np.random.default_rng(5)
        src, cfg, out = tmp_path / "data.csv", tmp_path / "cfg.json", tmp_path / "fit.csv"
        with src.open("w", encoding="utf-8", newline="") as handle:
            csv.writer(handle).writerows(
                [["id", "latitude", "longitude", "count", name]]
                + [[f"u{i}", 40.0, -90 + 0.01 * i, rng.poisson(2), rng.normal()] for i in range(40)]
            )
        cfg.write_text(json.dumps({"covariates": [name]}), encoding="utf-8")
        argv = ["fit", "--input", str(src), "--family", "poisson", "--config", str(cfg),
                "--out", str(out), "--format", "csv"]
        assert cli.main(argv) == 0
        with out.open(encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        assert {len(row) for row in rows} == {6}
        assert [row[0] for row in rows] == ["name", "Intercept", name]


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

    def test_seed_flag_read_as_python_int(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"preset": "paper-scale", "seed": 0}')
        outs = [tmp_path / "ascii.csv", tmp_path / "full-width.csv"]
        for seed, out in zip(["3", "\uff13"], outs):
            argv = ["simulate", "--spec", str(spec_path), "--out", str(out), "--seed", seed]
            assert cli.main(argv) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

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
#: 20 units whose one covariate has scale 1e8; unstandardized, the first Newton
#: step's finite-difference Hessian overflows.
SCALED_CSV = "id,latitude,longitude,count,x\n" + "".join(
    f"u{i},{40 + i / 10},-90.0,{0 if i < 3 else 1 + i % 4},{(7 * i % 20 - 9.5) * 1e8}\n"
    for i in range(20)
)

#: 7 units that ``generate`` writes for a ZIP spec at seed 807940; ``fit --family zip
#: --covariates a,b`` on them meets an ill-conditioned information matrix, whose inverse
#: raises scipy's ``LinAlgWarning`` before the fit ends in ``SingularInformation``.
ILL_CONDITIONED_CSV = """\
id,latitude,longitude,count,a,b,c
u0,39.258850235741555,-102.24118110854398,3,-1.7126457149415524,-2.4021578189380905,1.0
u1,40.905207842849414,-103.433459074209,0,-2.0608050804377847,-0.594161695286046,1.0
u2,37.856570862607946,-95.88717262101056,0,-1.7372275086049611,0.6163377803024799,0.0
u3,34.82258812402905,-97.5094622557641,0,-0.8102333375911083,-2.103905262928898,0.0
u4,39.08978294013926,-97.55253676193982,0,-1.596547641017111,0.9482238426776318,1.0
u5,41.4270967091949,-97.93017890785347,4,1.4064342108608288,-0.42387294289762856,0.0
u6,35.688785117046706,-102.48643557995995,5,-0.36328703287240194,-1.9497176658127697,1.0
"""


def spec_text(n=10, layout=None, distribution=None, beta=0.1, **fields):
    """A DgpSpec document, with one covariate when a distribution is given and
    ``fields`` replaced or added."""
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
    return json.dumps({**doc, **fields})  # writes NaN and Infinity, which Python's json reads back


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
            *(
                pytest.param(
                    ["fit", "--input", "{src}", "--family", family, "--covariates", "x",
                     "--out", "{out}"],
                    SCALED_CSV,
                    "NonFiniteObjective: objective became non-finite at iteration 1\n",
                    id=f"fit-{family}-covariate-scale-1e8",
                )
                for family in ("poisson", "zip")
            ),
            pytest.param(
                ["fit", "--input", "{src}", "--family", "zip", "--covariates", "a,b",
                 "--out", "{out}"],
                ILL_CONDITIONED_CSV,
                "SingularInformation: observed information matrix is singular or indefinite\n",
                id="fit-zip-ill-conditioned-information",
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
                ["report", "--fit", "{src}"],
                SMOKE_FIT_TEXT.replace('"iterations": 3', '"iterations": 1e400'),
                "InvalidSpec: fit result: 'iterations' must be an integer, got inf",
                id="report-iterations-overflow",
            ),
            pytest.param(
                ["report", "--fit", "{src}"],
                SMOKE_FIT_TEXT.replace('"name": "Intercept"', '"name": ["a"]'),
                "InvalidSpec: fit result coefficient: 'name' must be a string, got ['a']",
                id="report-name-not-a-string",
            ),
            pytest.param(
                ["report", "--fit", "{src}"],
                fit_text(covariance=[["0.75"]]),
                "InvalidSpec: fit result: 'covariance' must be a 1 x 1 matrix of numbers",
                id="report-covariance-strings",
            ),
            pytest.param(
                ["report", "--fit", "{src}"],
                fit_text(covariance=[[1, 2], [3, 4]]),
                "InvalidSpec: fit result: 'covariance' must be a 1 x 1 matrix of numbers",
                id="report-covariance-shape",
            ),
            pytest.param(
                ["report", "--fit", "{src}"],
                fit_text(family="nb"),
                "InvalidSpec: fit result: 'nb' is not a valid Family\n",
                id="report-family-nb",
            ),
            pytest.param(
                ["report", "--fit", "{src}"],
                fit_text(note="hand-edited"),
                "InvalidSpec: fit result: unknown key 'note'",
                id="report-unknown-key",
            ),
            pytest.param(
                ["report", "--fit", SMOKE_FIT_JSON, "--format", "text"],
                None,
                "InvalidSpec: unrecognized arguments: --format text",
                id="report-format-flag",
            ),
            pytest.param(
                ["fit", "--config", "{src}", "--out", "{out}"], "{", "InvalidSpec: ", id="config"
            ),
            pytest.param(
                ["fit", "--input", SMOKE_CSV, "--family", "poisson",
                 "--config", "{src}", "--out", "{out}"],
                "[1]",
                "InvalidSpec: config file must be a JSON object\n",
                id="config-not-an-object",
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
                "InvalidSpec: DgpSpec seed must be an integer >= 0, got -1",
                id="spec-negative-seed",
            ),
            pytest.param(
                ["simulate", "--spec", "{src}", "--out", "{out}", "--seed", "-1"],
                '{"preset": "paper-scale", "seed": 0}',
                "InvalidSpec: DgpSpec seed must be an integer >= 0, got -1",
                id="flag-negative-seed",
            ),
            pytest.param(
                ["simulate", "--spec", "{src}", "--out", "{out}"],
                '{"preset": "paper-scale", "seed": 2.5}',
                "InvalidSpec: DgpSpec seed must be an integer >= 0, got 2.5",
                id="spec-non-integer-seed",
            ),
            pytest.param(
                ["simulate", "--spec", "{src}", "--out", "{out}"],
                '{"n": 4294967296, "covariates": [], "beta": [0.1], "gamma": [0.1],'
                ' "layout": {"type": "uniform_square", "side_km": 10}, "seed": 1}',
                "InvalidSpec: DgpSpec n must be an integer within [1, 2**32), got 4294967296",
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
                "InvalidSpec: config file: unknown key 'band_km'",
                id="config-band_km-string",
            ),
            pytest.param(
                ["hotspot", "--input", SMOKE_CSV, "--config", "{src}", "--out", "{out}"],
                '{"k": 2.5}',
                "InvalidSpec: config file: unknown key 'k'",
                id="config-k-non-integer",
            ),
            pytest.param(
                ["fit", "--input", SMOKE_CSV, "--family", "poisson",
                 "--config", "{src}", "--out", "{out}"],
                '{"standardise": true}',
                "InvalidSpec: config file: unknown key 'standardise'",
                id="config-unknown-key",
            ),
            pytest.param(
                ["fit", "--input", SMOKE_CSV, "--family", "poisson",
                 "--config", "{src}", "--out", "{out}"],
                '{"weights": "knn:2"}',
                "InvalidSpec: config file: fit takes no option 'weights'",
                id="config-fit-no-weights",
            ),
            pytest.param(
                ["hotspot", "--input", SMOKE_CSV, "--weights", "knn:2",
                 "--config", "{src}", "--out", "{out}"],
                '{"standardize": true, "seed": 3, "family": "zip"}',
                "InvalidSpec: config file: hotspot takes no option 'standardize'",
                id="config-hotspot-no-standardize",
            ),
            pytest.param(
                ["simulate", "--config", "{src}", "--out", "{out}"],
                '{"input": "spec.json", "format": "csv"}',
                "InvalidSpec: config file: simulate takes no option 'format'",
                id="config-simulate-no-format",
            ),
            pytest.param(
                ["report", "--config", "{src}"],
                '{"input": "fit.json", "output": "report.txt"}',
                "InvalidSpec: config file: report takes no option 'output'",
                id="config-report-no-output",
            ),
            pytest.param(
                ["report", "--fit", SMOKE_FIT_JSON, "--config", "{src}"],
                '{"format": "csv"}',
                "InvalidSpec: config file: report takes no option 'format'",
                id="config-report-format-csv",
            ),
            pytest.param(  # the input does not exist: the file is refused before it is read
                ["fit", "--input", "{out}.csv", "--family", "logit",
                 "--config", "{src}", "--out", "{out}"],
                '{"format": "xml"}',
                "InvalidSpec: config file: 'format' must be one of ['text', 'csv', 'json'], "
                "got 'xml'",
                id="config-fit-format-xml",
            ),
            pytest.param(
                ["hotspot", "--input", SMOKE_CSV, "--weights", "knn:2", "--bogus", "1",
                 "--out", "{out}"],
                None,
                "InvalidSpec: unrecognized arguments: --bogus 1",
                id="unknown-flag",
            ),
            pytest.param(
                ["fit", "--input", SMOKE_CSV, "--family", "foo", "--out", "{out}"],
                None,
                "InvalidSpec: argument --family: invalid choice: 'foo'",
                id="flag-bad-choice",
            ),
            pytest.param(
                ["simulate", "--spec", "{src}", "--out", "{out}", "--seed", "x"],
                '{"preset": "paper-scale", "seed": 0}',
                "InvalidSpec: argument --seed: invalid int value: 'x'",
                id="flag-seed-not-int",
            ),
            pytest.param(
                ["fit", "--family", "logit", "--out", "{out}", "--input"],
                None,
                "InvalidSpec: argument --input: expected one argument",
                id="flag-missing-value",
            ),
            pytest.param(
                [], None, "InvalidSpec: the following arguments are required: command",
                id="no-subcommand",
            ),
            pytest.param(
                ["fit", "--input", SMOKE_CSV, "--family", "poisson",
                 "--config", "{src}", "--out", "{out}"],
                '{"covariates": "banks_per_10k"}',
                "InvalidSpec: config file: 'covariates' must be a list of strings, got 'banks_per_10k'",
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
                "InvalidSpec: DgpSpec beta must be finite numbers, got [nan]",
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
                "InvalidSpec: UniformSquare side_km must be within [0, 20015.114442035923] (pole to pole), "
                "got nan",
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
                spec_text(distribution={"type": "normal", "mu": "1.5", "sigma": 1}),
                "InvalidSpec: Normal mu must be a finite number, got '1.5'",
                id="spec-normal-mu-string",
            ),
            pytest.param(
                SIMULATE,
                spec_text(distribution={"type": "normal", "mu": 0, "sigma": True}),
                "InvalidSpec: Normal sigma must be a finite number >= 0, got True",
                id="spec-normal-sigma-true",
            ),
            pytest.param(
                SIMULATE,
                spec_text(layout={"type": "uniform_square", "side_km": "100"}),
                "InvalidSpec: UniformSquare side_km must be within [0, 20015.114442035923] (pole to pole), "
                "got '100'",
                id="spec-square-side-string",
            ),
            pytest.param(
                SIMULATE,
                spec_text(layout={"type": "uniform_square", "side_km": 1e308}),
                "InvalidSpec: UniformSquare side_km must be within [0, 20015.114442035923] (pole to pole), "
                "got 1e+308",
                id="spec-square-side-huge",
            ),
            pytest.param(
                SIMULATE,
                spec_text(distribution={"type": "normal", "mu": 0, "sigma": 1}, beta="0.3"),
                "InvalidSpec: DgpSpec beta[0] must be a number, got '0.3'",
                id="spec-beta-string",
            ),
            pytest.param(
                SIMULATE,
                spec_text(covariates={}),
                "InvalidSpec: spec: 'covariates' must be a list, got {}",
                id="spec-covariates-object",
            ),
            pytest.param(
                SIMULATE,
                spec_text(covariates="ab"),
                "InvalidSpec: spec: 'covariates' must be a list, got 'ab'",
                id="spec-covariates-string",
            ),
            pytest.param(
                SIMULATE,
                spec_text(note="draft"),
                "InvalidSpec: spec: unknown key 'note'",
                id="spec-unknown-key",
            ),
            pytest.param(
                SIMULATE,
                spec_text(covariates=[{"name": "x", "distribution": {"type": "bernoulli", "q": 0.5},
                                       "label": "X"}], beta=[0.1, 0.2], gamma=[0.1, 0.2]),
                "InvalidSpec: spec covariate: unknown key 'label'",
                id="spec-covariate-unknown-key",
            ),
            pytest.param(
                SIMULATE,
                spec_text(layout={"type": "uniform_square", "side_km": 10, "radius_km": 5}),
                "InvalidSpec: uniform_square descriptor: unknown key 'radius_km'",
                id="spec-descriptor-unknown-key",
            ),
            pytest.param(
                SIMULATE,
                '{"preset": "paper-scale", "n": 5}',
                "InvalidSpec: spec: unknown key 'n'",
                id="spec-preset-with-n",
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
                SIMULATE,
                spec_text(layout={"type": "clustered", "centers": [[90, 0]], "spread_km": 1e300}),
                "InvalidCoordinate: row 1: longitude nan outside [-180, 180]",
                id="spec-clustered-longitude-overflow",
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
            pytest.param(
                ["fit", "--input", "{src}", "--family", "poisson", "--out", "{out}"],
                "id,latitude,longitude,count," + "a" * 200_000 + "\n",
                "MalformedCsv: line 1: not valid CSV: field larger than field limit (131072)\n",
                id="fit-header-cell-over-field-limit",
            ),
            pytest.param(
                ["fit", "--input", "{src}", "--family", "poisson", "--out", "{out}"],
                "",
                "MissingColumn: required column 'id' not found in header\n",
                id="fit-empty-table",
            ),
            pytest.param(
                ["hotspot", "--input", SMOKE_CSV, "--value-column", "nosuch", "--weights", "knn:2",
                 "--out", "{out}"],
                None,
                "UnknownCovariate: covariate 'nosuch' is not in the dataset schema\n",
                id="hotspot-unknown-value-column",
            ),
            pytest.param(
                SIMULATE,
                '{"n": 10, "covariates": [{"name": "Intercept", "distribution":'
                ' {"type": "normal", "mu": 0, "sigma": 1}}], "beta": [0.5, 1.5],'
                ' "gamma": [0.1, 0.2], "layout": {"type": "uniform_square", "side_km": 10},'
                ' "seed": 1}',
                "InvalidSpec: covariate 'Intercept' is 'Intercept' or starts with 'inflate:'\n",
                id="spec-covariate-named-intercept",
            ),
            pytest.param(
                ["fit", "--input", "{src}", "--family", "poisson", "--covariates", "Intercept",
                 "--out", "{out}"],
                "id,latitude,longitude,count,Intercept\na,40.0,-90.0,1,0.5\nb,41.0,-91.0,2,1.5\n",
                "DuplicateCovariate: covariate 'Intercept' selected or defined more than once\n",
                id="fit-covariate-named-intercept",
            ),
            pytest.param(
                ["fit", "--input", "{src}", "--family", "poisson", "--covariates", "inflate:x",
                 "--out", "{out}"],
                "id,latitude,longitude,count,inflate:x\na,40.0,-90.0,1,0.5\nb,41.0,-91.0,2,1.5\n",
                "InvalidSpec: count covariate 'inflate:x' starts with 'inflate:'\n",
                id="fit-covariate-named-inflate",
            ),
            pytest.param(
                ["report", "--fit", "{src}"],
                fit_text(coefficients=2 * json.loads(SMOKE_FIT_TEXT)["coefficients"],
                         covariance=[[1.0, 0.0], [0.0, 1.0]]),
                "InvalidSpec: fit result: coefficient name 'Intercept' appears more than once\n",
                id="report-repeated-name",
            ),
            pytest.param(
                ["fit", "--input", "{src}", "--family", "poisson", "--out", "{out}"],
                b"id,latitude,longitude,count\na,40.0,-90.0,1\nb\xff,41.0,-91.0,0\n",
                "MalformedCsv: not valid CSV: not UTF-8 text (invalid start byte b'\\xff')\n",
                id="fit-table-not-utf8",
            ),
        ],
    )
    def test_exits_1_with_one_line(self, tmp_path, capsys, argv, text, expected):
        src, out = tmp_path / "input", tmp_path / "output"
        if isinstance(text, bytes):
            src.write_bytes(text)
        elif text is not None:
            src.write_text(text, encoding="utf-8")
        with warnings.catch_warnings(record=True) as escaped:
            warnings.simplefilter("always")
            rc = cli.main([arg.format(src=src, out=out) for arg in argv])
        captured = capsys.readouterr()
        assert rc == 1
        assert escaped == []  # a warning the command raised is not printed either
        assert captured.err.startswith(expected)
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--help"], ["hotspot", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: geocount") and captured.err == ""

    def test_bad_flag_exits_1_from_the_shell(self):
        env = {**os.environ, "PYTHONPATH": str(Path(geocount.__file__).parents[1])}
        result = subprocess.run(
            [sys.executable, "-m", "geocount.cli", "fit", "--family", "foo"],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith("InvalidSpec: argument --family: invalid choice: 'foo'")
        assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n")

    def test_ill_conditioned_fit_exits_1_from_the_shell(self, tmp_path):
        src = tmp_path / "n7.csv"
        src.write_text(ILL_CONDITIONED_CSV, encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(Path(geocount.__file__).parents[1])}
        result = subprocess.run(
            [sys.executable, "-m", "geocount.cli", "fit", "--input", str(src), "--family", "zip",
             "--covariates", "a,b", "--out", str(tmp_path / "fit.txt")],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == (
            "SingularInformation: observed information matrix is singular or indefinite\n"
        )


#: Each JSON document's command line, with the document at ``{src}``, and its name in messages.
DOCUMENT_COMMANDS = {
    "spec": (SIMULATE, "simulate: spec"),
    "fit": (["report", "--fit", "{src}"], "report: fit result"),
    "config": (["fit", "--config", "{src}", "--out", "{out}"], "config file"),
}

#: Documents no command can read, and how each message goes on after the document's name.
ODD_DOCUMENTS = {
    "huge-integer": ('{"n": ' + "7" * 5000 + "}",
                     " is not valid JSON: Exceeds the limit (4300 digits) for integer string"),
    "deep-nesting": ("[" * 200_000, " is not valid JSON: maximum recursion depth exceeded"),
    "byte-0xff": (b'{"n": 1\xff}', " is not UTF-8 text (invalid start byte b'\\xff')\n"),
    "trailing-comma": ('{"a": 1,}', " is not valid JSON: Expecting property name enclosed in"
                                    " double quotes: line 1 column 9 (char 8)\n"),
}


class TestDocuments:
    """Every JSON document (spec, fit, config) is read by one reader, with the same catches."""

    @pytest.mark.parametrize("document", ODD_DOCUMENTS)
    @pytest.mark.parametrize("kind", DOCUMENT_COMMANDS)
    def test_odd_document_exits_1_with_one_line(self, tmp_path, capsys, kind, document):
        (argv, what), (content, rest) = DOCUMENT_COMMANDS[kind], ODD_DOCUMENTS[document]
        src, out = tmp_path / "doc.json", tmp_path / "output"
        src.write_bytes(content if isinstance(content, bytes) else content.encode())
        with warnings.catch_warnings(record=True) as escaped:
            warnings.simplefilter("always")
            rc = cli.main([arg.format(src=src, out=out) for arg in argv])
        captured = capsys.readouterr()
        assert rc == 1
        assert escaped == []
        assert captured.err.startswith(f"InvalidSpec: {what} {str(src)!r}{rest}")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert "Traceback" not in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("kind", DOCUMENT_COMMANDS)
    def test_byte_order_mark_reads_as_without(self, tmp_path, capsys, kind):
        argv, _ = DOCUMENT_COMMANDS[kind]
        text = {"spec": spec_text(), "fit": SMOKE_FIT_TEXT,
                "config": json.dumps({"input": SMOKE_CSV, "family": "logit"})}[kind]
        runs = []
        for mark in (b"", b"\xef\xbb\xbf"):
            src, out = tmp_path / "doc.json", tmp_path / f"output{len(mark)}"
            src.write_bytes(mark + text.encode())
            rc = cli.main([arg.format(src=src, out=out) for arg in argv])
            captured = capsys.readouterr()
            runs.append((rc, captured.out.replace(str(out), "OUT"), captured.err,
                         out.read_bytes() if out.exists() else None))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and runs[0][2] == ""


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


def flag_and_value(action):
    """Strategy of (argv, value): one setting of ``action``'s option as flags and as JSON."""
    flag = action.option_strings[0]
    if action.choices is not None:
        values = st.sampled_from(action.choices)
    elif isinstance(action, argparse.BooleanOptionalAction):
        return st.booleans().map(lambda v: ([flag if v else "--no-" + flag[2:]], v))
    elif action.type is int:
        values = st.integers(-(2**70), 2**70)
    elif action.type is cli._name_list:
        name = st.text("abc_:. 1", min_size=1).map(str.strip).filter(bool)
        return st.lists(name, max_size=3).map(lambda v: ([flag, ",".join(v)], v))
    else:
        values = st.text()
    return values.map(lambda v: ([f"{flag}={v}"], v))


@st.composite
def command_settings(draw):
    """(command, argv, config document) setting some of one command's options both ways."""
    parser = cli.build_parser()
    command = draw(st.sampled_from(sorted(parser.commands)))
    argv, doc = [command], {}
    for key, action in sorted(cli._options(parser.commands[command]).items()):
        if draw(st.booleans()):
            flags, doc[key] = draw(flag_and_value(action))
            argv += flags
    return command, argv, doc


class TestConfigFile:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(setting=command_settings())
    def test_flag_and_config_key_parse_alike(self, tmp_path, setting):
        command, argv, doc = setting
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        from_flags = vars(cli.parse_args(argv))
        from_file = vars(cli.parse_args([command, "--config", str(cfg_path)]))
        assert from_flags.pop("config") is None and from_file.pop("config") == str(cfg_path)
        assert from_flags == from_file

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
            (["--weights", "knn:5"], {"weights": "band:100"}),
            ([], {"weights": "knn:5"}),
        ],
        ids=["flag-over-file-weights", "file-weights"],
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


def fresh_python(*args):
    """Run a new interpreter that imports geocount from this checkout."""
    env = {**os.environ, "PYTHONPATH": str(Path(geocount.__file__).parents[1])}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


@pytest.mark.parametrize("module", ["geocount.cli", "geocount"])
def test_import_loads_no_scipy(module):
    # each command imports the scipy parts it runs; the import itself costs numpy's start-up
    result = fresh_python("-c", f"import sys, {module}; print(' '.join(sys.modules))")
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    # geocount.cli, .fitting, .simulate and .spatial are what the benchmark's import probe reads
    assert {module, "geocount.fitting", "geocount.simulate", "geocount.spatial"} <= loaded
    assert not [name for name in loaded if name.split(".")[0] == "scipy"]


COLD_RUN = """
import contextlib, io, json, sys
from geocount import cli
outputs = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        outputs.append([cli.main(argv), stdout.getvalue()])
print(json.dumps([outputs, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def test_simulate_and_report_run_cold_without_scipy(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(spec_text(n=40, distribution={"type": "normal", "mu": 0.0, "sigma": 1.0}))
    preset = tmp_path / "preset.json"
    preset.write_text(json.dumps({"preset": "paper-scale", "seed": 7}))

    def commands(side):
        return [
            ["simulate", "--spec", str(spec), "--out", str(tmp_path / f"{side}.csv")],
            ["simulate", "--spec", str(preset), "--out", str(tmp_path / f"{side}_preset.csv")],
            ["report", "--fit", SMOKE_FIT_JSON],
        ]

    result = fresh_python("-c", COLD_RUN, json.dumps(commands("cold")))
    assert result.returncode == 0 and result.stderr == "", result.stderr
    cold, scipy_modules = json.loads(result.stdout)
    assert scipy_modules == []
    warm = [[cli.main(argv), capsys.readouterr().out] for argv in commands("warm")]
    assert cold == warm
    for name in ("", "_preset"):
        assert (tmp_path / f"cold{name}.csv").read_bytes() == (tmp_path / f"warm{name}.csv").read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--input", SMOKE_CSV, "--family", "logit", "--format", "json"],
        ["hotspot", "--input", SMOKE_CSV, "--weights", "knn:2", "--format", "geojson"],
    ],
    ids=["fit", "hotspot"],
)
def test_shell_command_matches_in_process(tmp_path, capsys, argv):
    # scipy's first import happens inside main here, and prints no warning line
    argv = [*argv, "--out", str(tmp_path / "out")]
    result = fresh_python("-m", "geocount.cli", *argv)
    assert result.returncode == 0 and result.stderr == "", result.stderr
    shell = (tmp_path / "out").read_bytes()
    assert cli.main(argv) == 0
    assert result.stdout == capsys.readouterr().out
    assert shell == (tmp_path / "out").read_bytes()
