"""Layered benchmark for voazhu.

    python3 bench/run.py --workload {axioms,queries,calculus,all}
                         [--seed 42] [--seconds 40] [--trace 0|1]

Each run of a workload is a fresh single-threaded child process, so the
library's caches start cold, as in one CLI invocation.  Children run one
after another while the next one is expected to end within ``--seconds``
(at least one runs); the end-to-end metrics are medians over them, per op
for the latencies, and every time is scaled to a reference machine speed
by ``calibrate.py``.  ``--trace 1`` instead runs the workload once untraced
and once with the per-layer wrappers of ``tracing.py`` installed, and
reports the per-layer metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See bench/README.md for the workloads, metrics, seeds and digests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("axioms", "queries", "calculus")
DEFAULT_SEED = 42
SETUP_SAMPLES = 5      # set-up is measured at least this often per run
RUN_LIMIT_S = 150      # no child starts that could end after this


class ChildFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, *, trace=False, setup_only=False) -> dict:
    """Run one cold child and return its JSON result plus the host state."""
    # bytecode is cached as in an installed package: the first child compiles
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONOPTIMIZE", "PYTHONDONTWRITEBYTECODE")}
    env.update(PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    host = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "load1": os.getloadavg()[0]}
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"{workload} child exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out.update(host=host, elapsed_s=time.monotonic() - t0)
    print(f"  child {workload:<8} nproc={host['nproc']} python={host['python']} "
          f"load1={host['load1']:.2f} elapsed={out['elapsed_s']:.2f}s", file=sys.stderr)
    return out


def tail(values):
    """(value, percentile) of the highest percentile with >= 10 values beyond it."""
    xs = sorted(values)
    if len(xs) <= 10:
        return xs[-1], 100.0
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_children(workload: str, seed: int, seconds: int):
    """Cold children until the next one would end after ``seconds`` (at least one)."""
    timed, start = [], time.monotonic()
    while True:
        timed.append(spawn(workload, seed))
        if time.monotonic() - start + timed[-1]["elapsed_s"] > min(seconds, RUN_LIMIT_S):
            break
    setups = list(timed)
    while (len(setups) < SETUP_SAMPLES and statistics.median(c["setup_s"] for c in setups) < 1.0
           and time.monotonic() - start < RUN_LIMIT_S):
        setups.append(spawn(workload, seed, setup_only=True))
    return timed, setups


def check(workload: str, children: list):
    """(problems, frozen) for the children's outputs; no problems means correct.

    frozen says how the digest compares with the one frozen for its seed:
    "match", "MISMATCH", or "none frozen" (then only the seed-independent
    checks apply).
    """
    problems = [p for c in children for p in c["problems"]]
    problems += [f"{c['failed']} of {c['attempted']} ops failed" for c in children if c["failed"]]
    digests = {c["digest"] for c in children}
    if len(digests) != 1:
        problems.append(f"children disagree on the digest: {sorted(digests)}")
    frozen = json.loads((BENCH / "digests.json").read_text())[workload]
    want = frozen.get(str(children[0]["digest_seed"]))
    if want is None:
        return problems, "none frozen"
    if want not in digests:
        problems.append(f"digest {sorted(digests)} != frozen {want}")
        return problems, "MISMATCH"
    return problems, "match"


def end_to_end(workload, seed, seconds):
    children, setups = run_children(workload, seed, seconds)
    problems, frozen = check(workload, children)
    # the children of a run repeat the same ops: an op's latency is its
    # median over them, and the percentiles are taken over the ops
    ops_ms = [statistics.median(op) for op in zip(*(c["ops_ms"] for c in children))]
    op_tail, pct = tail(ops_ms)
    series = {
        "setup_s": ("s", [c["setup_s"] for c in setups]),
        "wall_s": ("s", [c["wall_s"] for c in children]),
        "op_p50_ms": ("ms", [statistics.median(ops_ms)]),
        "op_tail_ms": ("ms", [op_tail]),
        "peak_rss_mb": ("MB", [c["peak_rss_mb"] for c in children]),
    }
    raw = {  # printed only: unscaled times and the machine speed they came from
        "setup_raw_s": ("s", [c["setup_raw_s"] for c in setups]),
        "wall_raw_s": ("s", [c["wall_raw_s"] for c in children]),
        "kernel_ms": ("ms", [statistics.median(c["kernel_ms"]) for c in setups]),
    }
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    print(f"{workload}: seed {seed}, {len(children)} cold runs, "
          f"{len(children[0]['ops_ms'])} ops each, digest {children[0]['digest'][:16]} "
          f"(seed {children[0]['digest_seed']}: {frozen})")
    print(f"  {'metric':<12} {'unit':<5} {'median':>12} {'q1':>12} {'q3':>12}  n")
    metrics = {}
    for name, (unit, values) in {**series, **raw}.items():
        q1, med, q3 = quartiles(values)
        note = f"  (p{pct:g})" if name == "op_tail_ms" else ""
        print(f"  {name:<12} {unit:<5} {med:12.6g} {q1:12.6g} {q3:12.6g}  {len(values)}{note}")
        if name in series:
            metrics[name] = {"value": med, "unit": unit}
    print(f"  {'failed_frac':<12} {'ratio':<5} {failed / attempted:12.6g}"
          f"  ({failed} of {attempted} ops)")
    for p in problems:
        print(f"  PROBLEM: {p}")
    return not problems, attempted, failed, metrics


def traced(workload, seed):
    sys.path.insert(0, str(BENCH))
    from tracing import METRICS
    plain = spawn(workload, seed)
    child = spawn(workload, seed, trace=True)
    problems, frozen = check(workload, [plain, child])
    layers = dict(child["layers"])
    layers["trace.overhead_frac"] = child["wall_s"] / plain["wall_s"] - 1
    print(f"{workload}: seed {seed}, traced run {child['wall_s']:.3f} s, "
          f"untraced {plain['wall_s']:.3f} s, digest {child['digest'][:16]} "
          f"(seed {child['digest_seed']}: {frozen}); spans in .bench_out/")
    metrics = {}
    for name, (unit, _) in METRICS.items():
        value = layers[name]
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name:<34} {unit:<6} {shown:>14}")
        metrics[name] = {"value": value, "unit": unit}
    for p in problems:
        print(f"  PROBLEM: {p}")
    attempted = plain["attempted"] + child["attempted"]
    failed = plain["failed"] + child["failed"]
    return not problems, attempted, failed, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not __debug__:
        print("refusing to run under python -O: the witness re-multiplication "
              "and containment checks are asserts", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "voazhu" / "__init__.py").is_file():
        print(f"no voazhu sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            ok, a, f, m = (traced(name, args.seed) if args.trace
                           else end_to_end(name, args.seed, args.seconds))
            correct &= ok
            attempted += a
            failed += f
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in m.items()})
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark child failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
