"""The benchmark's ``calculus`` workload still gives its frozen digest.

``bench/workloads.Calculus(42)`` runs the identity families and seeded
mode calculus: module vertex operators through ``modules.iterate_formula``
and the free-boson intertwiner's exponential and induced map.  Its digest
over every check's status is frozen in ``bench/digests.json``.  It runs in a
subprocess with PYTHONHASHSEED=0, as the benchmark's children do, in about
10 s.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"

SCRIPT = r"""
import sys
sys.path.insert(0, sys.argv[1])
import workloads
w = workloads.Calculus(42)
print(w.check(w.run()[0])[0])
"""


def test_calculus_digest_matches_frozen(src_env):
    frozen = json.loads((BENCH / "digests.json").read_text())["calculus"]["42"]
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(BENCH)], capture_output=True,
                          text=True, env=dict(src_env, PYTHONHASHSEED="0"), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == frozen
