"""The benchmark's seed-0 reference digests as a test.

One iteration of each workload in ``perfbench/workloads.py`` at seed 0, checked by the
workload's own ``check`` and compared with ``perfbench/reference_digests.json`` by
``checks.compare_digests``.  The digests pin the bytes of every CLI output file and the
estimates, SEs and log-likelihood of every fit, so any change to a fit's floating-point
operations fails here.  The benchmark's own modules are imported, so the test and the
benchmark cannot drift apart.

The pinned SEs hold for a given OpenBLAS thread count: with ``OPENBLAS_NUM_THREADS=1`` the
``state_batch`` ``fit_zip`` digest differs, since ``scipy.linalg.inv`` in
``fitting._observed_covariance`` gives other last bits at one thread than at two (ROADMAP,
"The pinned SE bits depend on OpenBLAS's thread count").
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

from checks import Ledger, compare_digests  # noqa: E402
from workloads import WORKLOADS, library  # noqa: E402

REFERENCE = json.loads((BENCH / "reference_digests.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_zero_matches_the_reference_digests(name, tmp_path):
    workload = WORKLOADS[name](library(), 0, str(tmp_path))
    ledger = Ledger()
    digests = workload.check(ledger, workload.iteration(ledger))
    compare_digests(ledger, digests, REFERENCE[name], "the reference digests")
    assert set(digests) == set(REFERENCE[name])
    assert (ledger.failed, ledger.messages) == (0, [])
