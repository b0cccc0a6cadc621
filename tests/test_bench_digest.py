"""The benchmark's ``axioms``, ``calculus`` and ``queries`` workloads give
their frozen digests.

``bench/workloads.Axioms(42)`` runs one cold ``voazhu axioms --seed 42
--n 0,1`` suite, which builds the ideal windows from scratch.
``bench/workloads.Calculus(42)`` runs the identity families and seeded
mode calculus: module vertex operators through ``modules.ModeTable`` and
the free-boson intertwiner's exponential and induced map.
``bench/workloads.Queries(42)`` runs seeded membership and reduce queries
on four prebuilt ideal windows, which exercises ``linalg``'s echelon form,
its reductions and its witnesses.  Each digest, over every check's status
(and for ``queries`` the windows' quotient bounds), is frozen in
``bench/digests.json``.  Each runs in a subprocess with PYTHONHASHSEED=0,
as the benchmark's children do, in about 3 to 15 s.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"

SCRIPT = r"""
import sys
sys.path.insert(0, sys.argv[1])
import workloads
w = getattr(workloads, sys.argv[2])(42)
print(w.check(w.run()[0])[0])
"""


@pytest.mark.parametrize("workload", ["axioms", "calculus", "queries"])
def test_digest_matches_frozen(src_env, workload):
    frozen = json.loads((BENCH / "digests.json").read_text())[workload]["42"]
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(BENCH), workload.capitalize()],
                          capture_output=True, text=True,
                          env=dict(src_env, PYTHONHASHSEED="0"), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == frozen
