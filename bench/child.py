"""One cold run of one workload in a fresh interpreter, started by run.py.

Prints one JSON line: set-up and timed-part seconds and per-op latencies,
each scaled to the reference machine speed by ``calibrate.py`` and also
raw, peak RSS, the (check_id, input_hash, status) count and failures, the
behaviour digest, the problems the correctness checks found and, when
traced, the per-layer metrics.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from calibrate import Calibrator

ROOT = Path(__file__).resolve().parent.parent
SETTLE_TICKS = 3     # kernel samples taken between set-up and the timed part


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() of the parent just before it started this process")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()
    if not __debug__:
        sys.exit("refusing to run under python -O: witness checks are asserts")
    cal = Calibrator()
    cal.start()
    t_cal = time.monotonic()
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.install()
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed)
    t_setup = time.monotonic()
    for _ in range(SETTLE_TICKS):   # the speed at the end of a short set-up
        cal.tick()
    out = {"setup_raw_s": t_setup - args.t0}
    if not args.setup_only:
        t_start = time.monotonic()
        records, spans = wl.run()
        t_run = time.monotonic()
        cal.stop()
        out["wall_raw_s"] = t_run - t_start
        out["wall_s"] = cal.scaled(t_start, t_run)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # on axioms the op is the whole command, from process start to report
        spans = spans if spans is not None else [(args.t0, t_run)]
        out["ops_ms"] = [cal.scaled(a, b) * 1e3 for a, b in spans]
        if tracer is not None:
            out["layers"] = tracer.metrics()  # set-up and timed part, not the checks
        digest, problems = wl.check(records)
        out.update(attempted=len(records),
                   failed=sum(r[2] not in workloads.OK_STATUSES for r in records),
                   digest=digest, digest_seed=wl.digest_seed, problems=problems)
        if tracer is not None:
            tracer.write_spans(ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.jsonl")
    cal.stop()
    # interpreter start-up runs before the calibrator and does not follow the
    # kernel's speed: it is counted raw
    out["setup_s"] = (t_cal - args.t0) + cal.scaled(t_cal, t_setup)
    out["kernel_ms"] = [d * 1e3 for d in cal.durations]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
