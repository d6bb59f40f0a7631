"""Output checks and failure accounting for the benchmark.

Structural checks hold for any seed: outputs parse, log-likelihoods and
standard errors are finite, every knn row has k + 1 nonzeros (the unit's own
weight included) and each G* class is the one its z-score implies.  Digests
(sha256 of output files and of result arrays) are compared between
iterations of one run and, at the default seed, with the reference digests
recorded from the seed commit.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

# G* class thresholds, restated here so a change in geocount's classifier shows.
HOT_99 = 2.576
HOT_95 = 1.96


class Ledger:
    """Operations attempted and failed, with the first few failure messages.

    An operation that fails more than one check in an iteration counts once.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self._failed_now: set[str] = set()

    def new_iteration(self) -> None:
        self._failed_now.clear()

    def call(self, op: str, fn, *args, **kwargs):
        """Run one operation; one that raises is counted as failed and returns None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failing operation is counted, the run goes on
            self.fail(op, f"{type(exc).__name__}: {exc}")
            return None

    def fail(self, op: str, message: str) -> None:
        if op in self._failed_now:
            return
        self._failed_now.add(op)
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(f"{op}: {message}")


def expected_class(z: float) -> str:
    if z >= HOT_99:
        return "Hot99"
    if z >= HOT_95:
        return "Hot95"
    if z <= -HOT_99:
        return "Cold99"
    if z <= -HOT_95:
        return "Cold95"
    return "NotSignificant"


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_arrays(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return digest.hexdigest()


def hotspot_problem(ids, z, classes, expected_ids) -> str | None:
    """Problem with one hot-spot table, or None."""
    if list(ids) != list(expected_ids):
        return f"ids differ from the input ({len(ids)} rows for {len(expected_ids)} units)"
    for unit, zi, cls in zip(ids, z, classes):
        if not math.isfinite(zi):
            return f"non-finite z for {unit}"
        if cls != expected_class(zi):
            return f"class {cls} for {unit} does not match z = {zi!r}"
    return None


def fit_problem(result) -> str | None:
    """Problem with a FitResult (or its JSON form), or None."""
    doc = result if isinstance(result, dict) else result.to_dict()
    if not doc["converged"]:
        return "fit did not converge"
    if not math.isfinite(doc["log_likelihood"]):
        return "non-finite log-likelihood"
    for row in doc["coefficients"]:
        if not (math.isfinite(row["estimate"]) and math.isfinite(row["std_error"])):
            return f"non-finite estimate or SE for {row['name']}"
        if row["std_error"] <= 0.0:
            return f"non-positive SE for {row['name']}"
    return None


def fit_arrays(result) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Estimates, standard errors and log-likelihood of a fit (object or JSON form)."""
    doc = result if isinstance(result, dict) else result.to_dict()
    rows = doc["coefficients"]
    return (
        np.array([r["estimate"] for r in rows]),
        np.array([r["std_error"] for r in rows]),
        np.array([doc["log_likelihood"]]),
    )


def knn_problem(weights, k: int) -> str | None:
    """Every row of include-self knn weights holds exactly k + 1 unit weights."""
    entries = weights.entries
    per_row = np.diff(entries.indptr)
    if not np.all(per_row == k + 1):
        bad = int(np.flatnonzero(per_row != k + 1)[0])
        return f"knn row {bad} has {per_row[bad]} nonzeros, expected {k + 1}"
    if not np.all(entries.data == 1.0):
        return "knn weights are not binary"
    return None


def parse_geojson_hotspots(text: str):
    doc = json.loads(text)
    features = doc["features"]
    ids = [f["properties"]["id"] for f in features]
    z = [float(f["properties"]["z"]) for f in features]
    classes = [f["properties"]["class"] for f in features]
    return ids, z, classes


def parse_csv_hotspots(text: str):
    lines = text.splitlines()
    if lines[0] != "id,z,class":
        raise ValueError(f"unexpected hotspot header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    return [r[0] for r in rows], [float(r[1]) for r in rows], [r[2] for r in rows]


def compare_digests(ledger: Ledger, digests: dict, expected: dict, what: str) -> None:
    """Count each operation whose digest differs from ``expected`` as failed.

    Digest keys are ``<operation>`` or ``<operation>.<part>``.
    """
    for key, value in digests.items():
        if expected.get(key) != value:
            ledger.fail(key.split(".", 1)[0], f"{key} digest differs from {what}")
