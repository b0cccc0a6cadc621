"""The benchmark's per-layer tracer still finds every name it wraps.

``bench/tracing.install()`` rebinds library functions process-wide, so it
runs in a subprocess.  A refactor that renames or moves a traced function
would otherwise turn its per-layer metrics into "missing" silently.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"

SCRIPT = r"""
import json, sys
sys.path.insert(0, sys.argv[1])
import tracing
tracer = tracing.install()
from voazhu import fusion_dim, lp_element, zhu_context
from voazhu.instances import fock, heisenberg_voa
heis = heisenberg_voa()
cert = zhu_context(heis, 0, 4).membership(lp_element(heis, heis.alpha()))
zhu_context(heis, 0, 4).subspace.reduce(heis.alpha())
fusion_dim(heis, fock(1), fock(2), fock(3), 0, 3)
metrics = tracer.metrics()
print(json.dumps({"missing": sorted(tracer.missing), "certified": cert.certified,
                  "unset": sorted(k for k, v in metrics.items() if v is None),
                  "windows": metrics["window.count"],
                  "memberships": metrics["membership.calls"],
                  "reductions": metrics["linalg.reduce.calls"]}))
"""


def test_tracer_wraps_every_layer(src_env):
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(BENCH)],
                          capture_output=True, text=True, env=src_env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["missing"] == []
    # the overhead share needs an untraced run and is left to the harness
    assert out["unset"] == ["trace.overhead_frac"]
    assert out["certified"]
    assert out["windows"] == 2 and out["memberships"] == 1
    # each membership reduces once, and so does the window's reduce
    assert out["reductions"] == out["memberships"] + 1
