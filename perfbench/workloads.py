"""The benchmark's workloads.

Each workload is closed-loop and single-process: one caller runs an
iteration, and the next starts only after the previous one returns.  Inputs
come from the workload seed alone and are the same on every iteration of a
run, so every iteration's outputs must also be the same.  Calls go through
``lib``, the benchmark's table of geocount entry points, so that the traced
run can wrap them.

Why these three (see README.md):

- ``paper_pipeline``: the ``simulate -> fit -> hotspot`` CLI pipeline a paper
  user runs at n = 2,947; most of its time is the dense weights builder.
- ``large_fit``: library generate / CSV round trip / three fits at
  n = 30,000, no spatial work; the bypass workload for a weights change.
- ``state_batch``: 48 small states of n = 64; per-call fitting and
  likelihood overhead, and spatial fixed cost per call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from types import SimpleNamespace

from checks import (
    Ledger,
    fit_arrays,
    fit_problem,
    hotspot_problem,
    knn_problem,
    parse_csv_hotspots,
    parse_geojson_hotspots,
    sha256_arrays,
    sha256_bytes,
)

COVARIATES = ("banks_per_10k", "poverty_rate", "metro")
FAMILIES = ("logit", "poisson", "zip")


def library():
    """The geocount entry points the workloads call, in one patchable table."""
    from geocount import cli, fitting, ingest, simulate, spatial

    return SimpleNamespace(
        main=cli.main,
        generate=simulate.generate,
        write_dataset=ingest.write_dataset,
        read_dataset=ingest.read_dataset,
        fit=fitting.fit,
        build_weights=spatial.build_weights,
        getis_ord_gstar=spatial.getis_ord_gstar,
    )


def spec_document(n: int, seed: int) -> dict:
    """DgpSpec JSON with the three covariates named as in the report blocks."""
    return {
        "n": n,
        "covariates": [
            {"name": "banks_per_10k", "distribution": {"type": "normal", "mu": 0.0, "sigma": 1.0}},
            {"name": "poverty_rate", "distribution": {"type": "uniform", "a": 0.05, "b": 0.35}},
            {"name": "metro", "distribution": {"type": "bernoulli", "q": 0.35}},
        ],
        "beta": [0.3, 0.35, -1.0, 0.4],
        "gamma": [0.1, -0.5, 1.5, -0.6],
        "layout": {"type": "uniform_square", "side_km": 4000.0},
        "seed": seed,
    }


class PaperPipeline:
    """The CLI pipeline through ``cli.main`` in-process at paper scale."""

    name = "paper_pipeline"
    n = 2947
    k = 8

    def __init__(self, lib, seed: int, workdir: str):
        self.lib = lib
        self.path = {
            key: os.path.join(workdir, filename)
            for key, filename in (
                ("spec", "spec.json"),
                ("simulate", "simulated.csv"),
                ("fit_zip", "fit_zip.txt"),
                ("fit_logit", "fit_logit.json"),
                ("hotspot_band", "hotspot_band.csv"),
                ("hotspot_knn", "hotspot_knn.geojson"),
            )
        }
        with open(self.path["spec"], "w", encoding="utf-8") as handle:
            json.dump(spec_document(self.n, seed), handle)
        covariates = ",".join(COVARIATES)
        data = self.path["simulate"]
        self.commands = (
            ("simulate", ["simulate", "--spec", self.path["spec"], "--out", data]),
            ("fit_zip", ["fit", "--input", data, "--family", "zip", "--covariates", covariates,
                         "--out", self.path["fit_zip"], "--format", "text"]),
            ("fit_logit", ["fit", "--input", data, "--family", "logit", "--covariates", covariates,
                           "--out", self.path["fit_logit"], "--format", "json"]),
            ("hotspot_band", ["hotspot", "--input", data, "--weights", "band:150",
                              "--out", self.path["hotspot_band"], "--format", "csv"]),
            ("hotspot_knn", ["hotspot", "--input", data, "--weights", f"knn:{self.k}",
                             "--out", self.path["hotspot_knn"], "--format", "geojson"]),
        )

    def _cli(self, argv):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            try:
                code = self.lib.main(argv)
            except SystemExit as exc:
                code = exc.code
        if code != 0:
            raise RuntimeError(f"geocount {argv[0]} exited with {code}")
        return stdout.getvalue()

    def iteration(self, ledger: Ledger) -> dict:
        return {op: ledger.call(op, self._cli, argv) for op, argv in self.commands}

    def check(self, ledger: Ledger, outputs: dict) -> dict:
        """Structural checks of the written files; returns their digests."""
        text, digests = {}, {}
        for op in outputs:
            if outputs[op] is None:
                continue
            with open(self.path[op], "rb") as handle:
                raw = handle.read()
            text[op] = raw.decode("utf-8")
            digests[op] = sha256_bytes(raw)
        checks = {
            "simulate": self._check_simulated,
            "fit_zip": self._check_zip_table,
            "fit_logit": self._check_logit_json,
            "hotspot_band": lambda t: self._check_hotspots(parse_csv_hotspots(t), digests, "band"),
            "hotspot_knn": lambda t: self._check_hotspots(parse_geojson_hotspots(t), digests, "knn"),
        }
        for op, body in text.items():
            try:
                problem = checks[op](body)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problem = f"output does not parse: {type(exc).__name__}: {exc}"
            if op == "fit_logit" and problem is None:
                digests["fit_logit.arrays"] = sha256_arrays(*fit_arrays(json.loads(body)))
            if problem is not None:
                ledger.fail(op, problem)
        return digests

    def _check_simulated(self, body: str) -> str | None:
        rows = list(csv.reader(io.StringIO(body)))
        if rows[0] != ["id", "latitude", "longitude", "count", *COVARIATES]:
            return f"unexpected header {rows[0]}"
        if len(rows) != self.n + 1:
            return f"{len(rows) - 1} rows, expected {self.n}"
        for row in rows[1:]:
            lat, lon, count = float(row[1]), float(row[2]), int(row[3])
            if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0) or count < 0:
                return f"bad row {row}"
        self.ids = [row[0] for row in rows[1:]]
        return None

    @staticmethod
    def _check_zip_table(body: str) -> str | None:
        lines = body.splitlines()
        loglik = float(lines[1].removeprefix("Log-likelihood: "))
        if not math.isfinite(loglik):
            return "non-finite log-likelihood"
        if "Converged: yes" not in lines[2]:
            return "fit did not converge"
        names = {line.split()[0] for line in lines[5:] if line.strip()}
        missing = {"Intercept", *COVARIATES} - names
        if missing or "Zero-Inflation Component" not in lines:
            return f"table lacks rows {sorted(missing)}"
        return None

    @staticmethod
    def _check_logit_json(body: str) -> str | None:
        doc = json.loads(body)
        if doc["family"] != "logit":
            return f"family {doc['family']!r}"
        return fit_problem(doc)

    def _check_hotspots(self, parsed, digests: dict, kind: str) -> str | None:
        ids, z, classes = parsed
        digests[f"hotspot_{kind}.z"] = sha256_arrays(z)
        return hotspot_problem(ids, z, classes, getattr(self, "ids", ids))


class LargeFit:
    """Library generate, CSV round trip and three fits at n = 30,000."""

    name = "large_fit"
    n = 30000

    def __init__(self, lib, seed: int, workdir: str):
        from geocount import IngestConfig, ModelSpec, dgp_spec_from_json

        self.lib = lib
        self.spec = dgp_spec_from_json(json.dumps(spec_document(self.n, seed)))
        self.csv_path = os.path.join(workdir, "large.csv")
        self.ingest = IngestConfig(standardize=True)
        self.models = {
            family: ModelSpec(family=family, count_covariates=COVARIATES) for family in FAMILIES
        }

    def iteration(self, ledger: Ledger) -> dict:
        call = ledger.call
        out = {"generate": call("generate", self.lib.generate, self.spec)}
        out["write_dataset"] = call("write_dataset", self._write, out["generate"])
        out["read_dataset"] = call("read_dataset", self.lib.read_dataset, self.csv_path, self.ingest)
        for family, model in self.models.items():
            out["fit_" + family] = call("fit_" + family, self.lib.fit, model, out["read_dataset"])
        return out

    def _write(self, dataset) -> str:
        self.lib.write_dataset(dataset, self.csv_path)
        return self.csv_path

    def check(self, ledger: Ledger, outputs: dict) -> dict:
        digests = {}
        generated = outputs["generate"]
        if generated is not None:
            if len(generated) != self.n or generated.schema != COVARIATES:
                ledger.fail("generate", f"{len(generated)} units with schema {generated.schema}")
        if outputs["write_dataset"] is not None:
            with open(self.csv_path, "rb") as handle:
                raw = handle.read()
            digests["write_dataset"] = sha256_bytes(raw)
            rows = raw.count(b"\n") - 1
            if rows != self.n:
                ledger.fail("write_dataset", f"{rows} rows written")
        read = outputs["read_dataset"]
        if read is not None:
            standardized = set(read.standardization)
            if len(read) != self.n or standardized != {"banks_per_10k", "poverty_rate"}:
                ledger.fail("read_dataset", f"{len(read)} rows, standardized {sorted(standardized)}")
        for family in FAMILIES:
            op = "fit_" + family
            if outputs[op] is None:
                continue
            problem = fit_problem(outputs[op])
            if problem is not None:
                ledger.fail(op, problem)
            digests[op] = sha256_arrays(*fit_arrays(outputs[op]))
        return digests


class StateBatch:
    """48 small states, each generated, fitted twice and scored for hot spots."""

    name = "state_batch"
    states = 48
    n_per_state = 64
    k = 6
    ops = ("generate", "fit_zip", "fit_poisson", "build_weights", "gstar")

    def __init__(self, lib, seed: int, workdir: str):
        from geocount import Clustered, DgpSpec, KNearest, ModelSpec, Normal

        self.lib = lib
        self.n = self.states * self.n_per_state
        covariates = (("banks_per_10k", Normal(0.0, 1.0)), ("poverty_rate", Normal(0.0, 1.0)))
        self.specs = []
        for state in range(self.states):
            lat, lon = 30.0 + 2.0 * (state % 8), -120.0 + 8.0 * (state // 8)
            self.specs.append(
                DgpSpec(
                    n=self.n_per_state,
                    covariates=covariates,
                    beta=(0.8, 0.4, -0.3),
                    gamma=(-0.5, 0.3, 0.2),
                    layout=Clustered(centers=((lat, lon), (lat + 1.0, lon + 1.5)), spread_km=60.0),
                    seed=seed * 1000 + state,
                )
            )
        names = tuple(name for name, _ in covariates)
        self.zip_model = ModelSpec(family="zip", count_covariates=names)
        self.poisson_model = ModelSpec(family="poisson", count_covariates=names)
        self.scheme = KNearest(self.k)

    def iteration(self, ledger: Ledger) -> dict:
        lib, call = self.lib, ledger.call
        results = []
        for state, spec in enumerate(self.specs):
            out = {"generate": call(f"generate[{state}]", lib.generate, spec)}
            data = out["generate"]
            out["fit_zip"] = call(f"fit_zip[{state}]", lib.fit, self.zip_model, data)
            out["fit_poisson"] = call(f"fit_poisson[{state}]", lib.fit, self.poisson_model, data)
            centroids = data.centroids() if data is not None else None
            out["build_weights"] = call(
                f"build_weights[{state}]", lib.build_weights, centroids, self.scheme
            )
            values = data.counts().astype(float) if data is not None else None
            out["gstar"] = call(f"gstar[{state}]", lib.getis_ord_gstar, values, out["build_weights"])
            results.append(out)
        return {"states": results}

    def check(self, ledger: Ledger, outputs: dict) -> dict:
        arrays = {op: [] for op in self.ops if op != "generate"}
        for state, out in enumerate(outputs["states"]):
            data = out["generate"]
            if data is None:
                continue
            if len(data) != self.n_per_state:
                ledger.fail(f"generate[{state}]", f"{len(data)} units")
            for op in ("fit_zip", "fit_poisson"):
                if out[op] is not None:
                    problem = fit_problem(out[op])
                    if problem is not None:
                        ledger.fail(f"{op}[{state}]", problem)
                    arrays[op].extend(fit_arrays(out[op]))
            if out["build_weights"] is not None:
                problem = knn_problem(out["build_weights"], self.k)
                if problem is not None:
                    ledger.fail(f"build_weights[{state}]", problem)
                arrays["build_weights"].append(out["build_weights"].entries.indices)
            if out["gstar"] is not None:
                result = out["gstar"]
                ids = [obs.id for obs in data.observations]
                classes = [cls.value for cls in result.classes]
                problem = hotspot_problem(ids, result.z.tolist(), classes, ids)
                if problem is not None:
                    ledger.fail(f"gstar[{state}]", problem)
                arrays["gstar"].append(result.z)
        return {op: sha256_arrays(*parts) for op, parts in arrays.items() if parts}


WORKLOADS = {w.name: w for w in (PaperPipeline, LargeFit, StateBatch)}
