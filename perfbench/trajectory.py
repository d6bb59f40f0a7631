"""Append one trajectory entry from the result files in ``.perfbench/results/``.

    python3 perfbench/trajectory.py LABEL

The entry holds, per workload, the median of each metric over the result
files (untraced runs for the end-to-end metrics, traced runs for the
per-layer ones), the seeds used, the operation counts and the environment of
the first result file.  Clear ``.perfbench/results/`` between commits.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RESULTS = BENCH.parent / ".perfbench" / "results"
TRAJECTORY = BENCH / "trajectory.jsonl"


def summarize(records: list[dict]) -> dict:
    workloads: dict[str, dict] = defaultdict(
        lambda: {"seeds": defaultdict(list), "attempted": 0, "failed": 0, "values": defaultdict(list)}
    )
    for record in records:
        entry = workloads[record["workload"]]
        kind = "per_layer" if record["trace"] else "end_to_end"
        entry["seeds"][kind].append(record["seed"])
        entry["attempted"] += record["attempted"]
        entry["failed"] += record["failed"]
        for name, metric in record["metrics"].items():
            entry["values"][(kind, name, metric["unit"])].append(metric["value"])
    out = {}
    for workload, entry in sorted(workloads.items()):
        summary = {"seeds": dict(entry["seeds"]), "attempted": entry["attempted"],
                   "failed": entry["failed"], "end_to_end": {}, "per_layer": {}}
        for (kind, name, unit), values in entry["values"].items():
            summary[kind][name] = {"median": statistics.median(values), "unit": unit,
                                   "runs": len(values)}
        out[workload] = summary
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    records = [json.loads(p.read_text()) for p in sorted(RESULTS.glob("*.json"))]
    if not records:
        print(f"error: no result files in {RESULTS}", file=sys.stderr)
        return 2
    entry = {
        "label": argv[0],
        "time": min(r["time"] for r in records),
        "environment": records[0]["environment"],
        "seconds": records[0]["seconds"],
        "workloads": summarize(records),
    }
    with open(TRAJECTORY, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    print(f"appended {argv[0]!r} from {len(records)} result files to {TRAJECTORY.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
