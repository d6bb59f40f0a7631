"""Tests of the benchmark's own machinery: span arithmetic, metric names and
failure accounting.  Run with ``python3 -m pytest perfbench/tests``."""

import json
import re

import pytest

import checks
import spans
from run import ROOT, tail
from workloads import PaperPipeline, StateBatch, library

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_times_of_nested_tree_add_up():
    tree = [
        ["iteration", 0.0, 10.0, None, 0],
        ["cli.main", 1.0, 4.0, 0, 0],
        ["ingest.read_dataset", 2.0, 3.0, 1, 0],
        ["spatial.build_weights_knn", 5.0, 9.0, 0, 0],
        ["spatial.gstar", 5.5, 6.0, 3, 0],
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx([3.0, 2.0, 1.0, 3.5, 0.5])
    assert sum(own) == pytest.approx(tree[0][2] - tree[0][1])

    totals = spans.self_time_by_iteration(tree)[0]
    assert totals["unattributed"] == pytest.approx(3.0)
    assert totals["spatial.self"] == pytest.approx(4.0)
    assert totals["cli.self"] + totals["ingest.self"] == pytest.approx(3.0)


def test_overlapping_children_are_covered_once():
    tree = [
        ["iteration", 0.0, 10.0, None, 0],
        ["a.x", 1.0, 4.0, 0, 0],
        ["a.y", 3.0, 6.0, 0, 0],
        ["a.z", 9.0, 12.0, 0, 0],  # clipped to the parent's end
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_metric_names_are_well_formed_and_cover_every_span():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for group in ("end_to_end", "per_layer") for m in doc[group]]
    names += [w["name"] for w in doc["workloads"]]
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(names) == len(set(names))

    per_layer = {m["name"] for m in doc["per_layer"]}
    tracer = spans.Tracer()
    lib = library()
    tracer.install(lib)
    try:
        run_one_small_state_batch(lib, tracer)
    finally:
        tracer.uninstall()
    emitted = {span[0] for span in tracer.spans if span[0] != spans.ROOT}
    assert {name + "_s" for name in emitted} <= per_layer
    assert {name.split(".")[0] + ".self_s" for name in emitted} <= per_layer
    assert set(tracer.counters[0]) <= per_layer


def test_uninstall_restores_every_patched_name():
    import geocount.cli as cli
    import geocount.fitting as fitting
    from geocount.data import Dataset

    lib = library()
    before = (vars(lib).copy(), vars(cli).copy(), vars(fitting).copy(), dict(vars(Dataset)))
    tracer = spans.Tracer()
    tracer.install(lib)
    assert lib.fit is not before[0]["fit"]
    tracer.uninstall()
    after = (vars(lib), vars(cli), vars(fitting), dict(vars(Dataset)))
    for old, new in zip(before, after):
        assert {k: v for k, v in old.items()} == {k: new[k] for k in old}


class SmallStateBatch(StateBatch):
    states = 2


def run_one_small_state_batch(lib, tracer=None):
    workload = SmallStateBatch(lib, seed=5, workdir="unused")
    ledger = checks.Ledger()
    if tracer is not None:
        tracer.begin_iteration(0)
    outputs = workload.iteration(ledger)
    if tracer is not None:
        tracer.end_iteration()
    return workload, ledger, outputs


def test_corrupted_library_output_counts_as_failure():
    workload, ledger, outputs = run_one_small_state_batch(library())
    digests = workload.check(ledger, outputs)
    assert (ledger.attempted, ledger.failed) == (10, 0)

    outputs["states"][1]["gstar"].z[3] += 5.0  # class no longer matches z
    corrupted = workload.check(ledger, outputs)
    assert ledger.failed == 1
    assert ledger.messages == [ledger.messages[0]] and "gstar[1]" in ledger.messages[0]

    ledger.new_iteration()
    checks.compare_digests(ledger, corrupted, digests, "the first iteration")
    assert ledger.failed == 2


def test_corrupted_cli_file_counts_as_failure(tmp_path):
    workload = PaperPipeline(library(), seed=0, workdir=str(tmp_path))
    workload.ids = ["u0", "u1"]
    (tmp_path / "hotspot_band.csv").write_text("id,z,class\nu0,3.0,NotSignificant\nu1,0.5,NotSignificant\n")
    (tmp_path / "fit_logit.json").write_text("{not json")
    ledger = checks.Ledger()
    workload.check(ledger, {"hotspot_band": "", "fit_logit": ""})
    assert ledger.failed == 2
    assert any("does not match" in m for m in ledger.messages)
    assert any("does not parse" in m for m in ledger.messages)


def test_failing_operation_is_counted_and_the_run_goes_on():
    ledger = checks.Ledger()
    assert ledger.call("boom", lambda: 1 / 0) is None
    assert ledger.call("fine", lambda: 7) == 7
    assert (ledger.attempted, ledger.failed) == (2, 1)


def test_tail_keeps_ten_samples_beyond():
    value, note = tail([float(i) for i in range(40)])
    assert value == 29.0 and "10 beyond" in note
    value, note = tail([float(i) for i in range(21)])
    assert value == 10.0 and "10 beyond" in note
    value, note = tail([float(i) for i in range(20)])
    assert value == 19.0 and "p100 of 20 samples, 0 beyond" in note
