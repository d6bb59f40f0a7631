"""Run one geocount benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper_pipeline --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; geocount is imported from its ``src/``.
With ``--trace 0`` the run is untraced and reports the end-to-end metrics
named in ``BENCHMARK.json``; with ``--trace 1`` it alternates untraced and
traced iterations and reports the per-layer metrics.  Every metric is
printed by name with its unit; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A result file
recording the environment is written under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from checks import Ledger, compare_digests
from spans import Tracer, self_time_by_iteration
from workloads import WORKLOADS, library

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
DEFAULT_SEED = 0
SETUP_RUNS = 3
IMPORT_RUNS = 3
IMPORTED_MODULES = ("cli", "fitting", "simulate", "spatial")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a nonnegative integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# environment


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree of its own."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, check=True, timeout=30,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    return top[1] if Path(top[0]).resolve() == ROOT else None


def environment() -> dict:
    import numpy
    import scipy

    source = hashlib.sha256()
    for path in sorted((SRC / "geocount").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "commit": _git_commit(),
        "source_sha256": source.hexdigest(),
    }


# ---------------------------------------------------------------------------
# set-up cost: fresh interpreters importing geocount.cli


def _interpreter(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # users keep compiled bytecode, so cold start is measured with it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return subprocess.run(
        [sys.executable, *args, "-c", "import geocount.cli"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=120,
    )


def setup_seconds(runs: int = SETUP_RUNS) -> float:
    """Median wall time of a fresh interpreter importing ``geocount.cli``."""
    _interpreter()  # writes bytecode and fills the file cache, as any earlier run would
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        _interpreter()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def import_seconds(runs: int = IMPORT_RUNS) -> dict[str, float]:
    """Median cumulative ``-X importtime`` seconds of the main geocount modules."""
    _interpreter()
    samples: dict[str, list[float]] = {name: [] for name in IMPORTED_MODULES}
    for _ in range(runs):
        seen = {}
        for line in _interpreter("-X", "importtime").stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip().startswith("geocount."):
                seen.setdefault(parts[2].strip()[len("geocount."):], int(parts[1]) / 1e6)
        for name in IMPORTED_MODULES:
            samples[name].append(seen[name])
    return {f"{name}.import_s": statistics.median(v) for name, v in samples.items()}


# ---------------------------------------------------------------------------
# measurement


def tail(times: list[float]) -> tuple[float, str]:
    """Highest order statistic with at least ten samples beyond it.

    Below 21 samples that statistic would fall at or below the median, so the
    maximum is reported instead; the note gives the percentile and count.
    """
    ordered = sorted(times)
    index = len(ordered) - 11 if len(ordered) >= 21 else len(ordered) - 1
    beyond = len(ordered) - 1 - index
    note = f"p{100.0 * (index + 1) / len(ordered):.0f} of {len(ordered)} samples, {beyond} beyond"
    return ordered[index], note


class Run:
    """One closed-loop run of a workload: warm-up, then iterations until the deadline."""

    def __init__(self, workload, ledger, expected, tracer=None):
        self.workload = workload
        self.ledger = ledger
        self.expected = expected
        self.tracer = tracer
        self.plain: list[float] = []
        self.traced: list[float] = []
        self.traced_ids: list[int] = []
        self.first_digests: dict | None = None

    def iteration(self, index: int, traced: bool) -> float:
        tracer = self.tracer if traced else None
        self.ledger.new_iteration()
        if tracer is not None:
            tracer.install(self.workload.lib)
            tracer.begin_iteration(index)
        start = time.perf_counter()
        try:
            outputs = self.workload.iteration(self.ledger)
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.end_iteration()
                tracer.uninstall()
        digests = self.workload.check(self.ledger, outputs)
        if self.first_digests is None:
            self.first_digests = digests
        if self.expected is not None:
            compare_digests(self.ledger, digests, self.expected, "the reference digests")
        compare_digests(self.ledger, digests, self.first_digests, "the first iteration")
        return elapsed

    def measure(self, seconds: float) -> None:
        if self.tracer is not None:
            self.tracer.probe_memory = True
        self.iteration(-1, traced=self.tracer is not None)  # warm-up, not timed
        if self.tracer is not None:
            self.tracer.probe_memory = False
        deadline = time.perf_counter() + seconds
        index = 0
        while True:
            traced = self.tracer is not None and index % 2 == 1
            elapsed = self.iteration(index, traced)
            (self.traced if traced else self.plain).append(elapsed)
            if traced:
                self.traced_ids.append(index)
            index += 1
            if time.perf_counter() >= deadline and (self.tracer is None or self.traced):
                break


def end_to_end(run: Run, units: int) -> tuple[dict, dict]:
    p50 = statistics.median(run.plain)
    tail_value, tail_note = tail(run.plain)
    metrics = {
        "iter_s_p50": p50,
        "iter_s_tail": tail_value,
        # per median iteration: on a host whose speed drifts, a mean over the run is not steady
        "counties_per_s": units / p50,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_seconds(),
    }
    return metrics, {"iter_s_tail": tail_note}


def per_layer(run: Run, names) -> tuple[dict, dict]:
    tracer = run.tracer
    own = self_time_by_iteration(tracer.spans)
    rows = []
    for index in run.traced_ids:
        row = {f"{name}_s": value for name, value in own[index].items()}
        row.update(tracer.counters[index])
        rows.append(row)
    metrics = {name: statistics.median(row.get(name, 0.0) for row in rows) for name in names}
    metrics["spatial.build_weights_peak_mb"] = tracer.weights_peak_mb
    metrics["trace_overhead_ratio"] = statistics.median(run.traced) / statistics.median(run.plain)
    metrics.update(import_seconds())
    # self times in an iteration add up to its wall time, so these shares add up to 1
    layers = defaultdict(float)
    for index in run.traced_ids:
        for name, value in own[index].items():
            if name.endswith(".self") or name == "unattributed":
                layers[name.removesuffix(".self")] += value
    wall = sum(layers.values())
    notes = {
        "traced_iterations": len(run.traced),
        "untraced_iterations": len(run.plain),
        "self_time_share": {name: value / wall for name, value in sorted(layers.items())},
    }
    return metrics, notes


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "geocount" / "__init__.py").is_file():
        print(f"error: no geocount sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import geocount

    if Path(geocount.__file__).resolve().parent != SRC / "geocount":
        print(f"error: geocount imported from {geocount.__file__}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    expected = None
    if args.seed == DEFAULT_SEED:
        reference = json.loads((BENCH / "reference_digests.json").read_text(encoding="utf-8"))
        expected = reference[args.workload]

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = OUT / "work" / stem
    workdir.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    tracer = Tracer() if args.trace else None
    try:
        workload = WORKLOADS[args.workload](library(), args.seed, str(workdir))
        run = Run(workload, ledger, expected, tracer)
        run.measure(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values, notes = per_layer(run, [m["name"] for m in declared])
        values["failed_ratio"] = ledger.failed / ledger.attempted
    else:
        values, notes = end_to_end(run, workload.n)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    result_path = results / f"{stem}.json"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "environment": environment(),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.messages,
        "metrics": metrics,
        "notes": notes,
        "iterations_s": {"untraced": run.plain, "traced": run.traced},
        "digests": run.first_digests,
    }
    result_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(results / f"{stem}.spans.jsonl")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"iterations {len(run.plain)} untraced, {len(run.traced)} traced (+1 warm-up)")
    for name, metric in metrics.items():
        if name == "failed_ratio":
            continue
        note = notes.get(name)
        print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}"
              + (f"   ({note})" if note else ""))
    print(f"  {'failed_ratio':<34} {ledger.failed / ledger.attempted:>14.6g} ratio   "
          f"({ledger.failed} of {ledger.attempted} operations)")
    if "self_time_share" in notes:
        print("  self-time share of traced iterations: " + ", ".join(
            f"{name} {share:.1%}" for name, share in notes["self_time_share"].items()))
    for message in ledger.messages:
        print(f"  failure: {message}")
    print(f"  result file: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
