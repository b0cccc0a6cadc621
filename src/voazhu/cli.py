"""Command line interface.

Subcommands:
  verify-identities   exact binomial-identity families
  zhu-table           windowed quotient table for an algebra at level N
  axioms              full seeded check suite, JSON report
  fusion              fusion-dimension upper bounds for three modules over
                      one algebra
  reduce              canonical representative of an element mod the
                      windowed ideal span

All output is JSON; --csv switches to flat tables.  Element files are
JSON lists of [monomial, coefficient] pairs, e.g.
[["a(-1)^2", "3/4"], ["a(-2)", "-1"]].

Bad input (an unknown module spec, a malformed number or element file, an
element too deep for --depth or for reduce's default window, a fusion
window below 2N+1) ends the run with a one-line message on standard error
and exit code 2.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .basis import GradedVector
from .errors import VoazhuError
from .identities import check_identity_families
from .intertwiner import fusion_report
from .report import SuiteConfig, report_json, run_suite
from .serialize import monomial_depth, pairs_to_vector, parse_module_spec, vector_to_pairs
from .zhu import lp_element, zhu_context


class InputError(Exception):
    """Bad command-line input, reported as one line with exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _nonneg_int(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _int_list(text: str) -> tuple:
    """A comma separated list of nonnegative integers, e.g. "0,1"."""
    return tuple(_nonneg_int(t) for t in text.split(","))


def _module(text: str):
    try:
        return parse_module_spec(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _algebra(text: str):
    module = _module(text)
    if module.algebra is not module:
        raise argparse.ArgumentTypeError(
            f"{module.module_id} is a module, not an algebra (try heisenberg or virasoro:c=C)")
    return module


def _read_element(path: str) -> list:
    """The [monomial, coefficient] pairs stored in a JSON element file."""
    with open(path) as fh:
        try:
            pairs = json.load(fh)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None
    if not (isinstance(pairs, list)
            and all(isinstance(p, list) and len(p) == 2 and isinstance(p[0], str)
                    for p in pairs)):
        raise ValueError("expected a JSON list of [monomial, coefficient] pairs")
    return pairs


def _emit(payload, args, flatten_rows):
    if args.csv:
        buf = io.StringIO()
        rows = flatten_rows(payload)
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = report_json(payload) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_verify_identities(args):
    entries = [{"family": family, "N": n, "pass": ok}
               for family, n, ok, _ in check_identity_families(
                   args.max_n, args.max_alt_n, args.max_bivariate_n)]
    ok = all(e["pass"] for e in entries)
    payload = {"all_pass": ok, "entries": entries}
    _emit(payload, args, flatten_rows=lambda p: p["entries"])
    return 0 if ok else 1


def cmd_zhu_table(args):
    algebra = args.algebra
    ctx = zhu_context(algebra, args.n, args.depth)
    window_dims = ctx.subspace.dims_by_depth()
    quotient = ctx.quotient_dims()
    certs = []
    for d in range(min(args.depth, 3)):
        for bv in algebra.basis_at_depth(d):
            u = GradedVector(algebra, {bv: 1})
            x = lp_element(algebra, u)
            if x.max_depth() > args.depth:
                continue
            cert = ctx.membership(x)
            certs.append({"element": f"lp[{bv}]", "status": cert.status,
                          "witness_size": cert.witness_size()})
    payload = {
        "algebra": algebra.module_id,
        "N": args.n,
        "D": args.depth,
        "window_dims": window_dims,
        "quotient_upper_bounds": quotient,
        "ideal_rank": ctx.subspace.rank,
        "generators_enumerated": len(ctx.subspace.gens),
        "certs": certs,
    }
    def flat(p):
        return [{"depth": d, "window_dim": wd, "quotient_upper_bound": q}
                for d, (wd, q) in enumerate(zip(p["window_dims"],
                                                p["quotient_upper_bounds"]))]
    _emit(payload, args, flatten_rows=flat)
    return 0


def cmd_axioms(args):
    report = run_suite(SuiteConfig(args.seed, args.n, normalize=not args.timestamp))
    def flat(p):
        return [{"module": e["module"], "check_id": e["check_id"],
                 "input_hash": e["input_hash"], "status": e["status"],
                 "witness_size": e.get("witness_size", ""),
                 "windows_tried": " ".join(map(str, e.get("windows_tried", [])))}
                for e in p["entries"]]
    _emit(report, args, flatten_rows=flat)
    counts = report["summary"]["counts"]
    bad = sum(v for k, v in counts.items() if k not in ("pass", "certified"))
    return 0 if bad == 0 else 1


def cmd_fusion(args):
    w1, w2, w3 = args.w1, args.w2, args.w3
    # a constraint needs wt u + depth + 2N <= window with wt u >= 1, so a
    # shallower window holds none and would only count the unknowns
    low = min(args.window)
    if low < 2 * args.n + 1:
        raise InputError(f"--window {low} holds no constraint at --n {args.n}; "
                         f"every window must be at least 2N+1 = {2 * args.n + 1}")
    if not (w1.algebra is w2.algebra is w3.algebra):
        raise InputError("--w1, --w2 and --w3 must be modules over the same algebra")
    payload = fusion_report(w1.algebra, w1, w2, w3, args.n, windows=args.window)
    def flat(p):
        return [{"w1": p["type"][0], "w2": p["type"][1], "w3": p["type"][2],
                 "N": p["N"], "window": w, "dim_upper": d,
                 "stabilized": p["stabilized"]}
                for w, d in zip(p["windows"], p["dims"])]
    _emit(payload, args, flatten_rows=flat)
    return 0


# reduce's deepest default window.  A cold `zhu-table --algebra heisenberg
# --n 0` takes about 1 s at depth 12, 3-4 s at 14 and 11-12 s at 16 on a
# 2-core x86 VM (Python 3.11); the cap stays at 12, since raising it would
# change which elements reduce accepts without a --depth
MAX_DEFAULT_DEPTH = 12


def cmd_reduce(args):
    algebra = args.algebra
    try:
        pairs = _read_element(args.element_file)
        # by its text, before anything is built: a(-1)^100000000 takes minutes
        depth, mono = max(((monomial_depth(m), m) for m, _ in pairs), default=(0, "1"))
        if args.depth is not None:
            if depth > args.depth:
                raise ValueError(f"monomial {mono!r} has depth {depth}, "
                                 f"beyond --depth {args.depth}")
            depth = args.depth
        else:
            depth += 2 * args.n + 4
            if depth > MAX_DEFAULT_DEPTH:
                raise ValueError(f"the default window depth {depth} is beyond "
                                 f"{MAX_DEFAULT_DEPTH}; choose one with --depth")
        x = pairs_to_vector(algebra, pairs)
    except (OSError, ValueError, VoazhuError) as exc:
        raise InputError(f"element file {args.element_file}: {exc}") from None
    ctx = zhu_context(algebra, args.n, depth)
    reduced, cert = ctx.reduce(x)
    payload = {
        "algebra": algebra.module_id,
        "N": args.n,
        "D": depth,
        "input": pairs,
        "canonical_representative": vector_to_pairs(reduced),
        "in_ideal_window": cert.status,
        "witness_size": cert.witness_size(),
    }
    def flat(p):
        return [{"monomial": m, "coefficient": c}
                for m, c in p["canonical_representative"]]
    _emit(payload, args, flatten_rows=flat)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="voazhu",
        description="Exact level-N Zhu algebra and intertwining-operator checks")
    sub = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out")
    output.add_argument("--csv", action="store_true")

    p = sub.add_parser("verify-identities", parents=[output],
                       help="run the binomial identity families")
    p.add_argument("--max-n", type=_nonneg_int, default=20)
    p.add_argument("--max-alt-n", type=_nonneg_int, default=50)
    p.add_argument("--max-bivariate-n", type=_nonneg_int, default=10)
    p.set_defaults(func=cmd_verify_identities)

    p = sub.add_parser("zhu-table", parents=[output],
                       help="windowed quotient table for an algebra")
    p.add_argument("--algebra", required=True, type=_algebra)
    p.add_argument("--n", type=_nonneg_int, default=0)
    p.add_argument("--depth", type=_nonneg_int, default=8)
    p.set_defaults(func=cmd_zhu_table)

    p = sub.add_parser("axioms", parents=[output], help="run the seeded check suite")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--n", type=_int_list, default=(0, 1),
                   help="comma separated level values")
    p.add_argument("--timestamp", action="store_true",
                   help="include a timestamp (breaks byte reproducibility)")
    p.set_defaults(func=cmd_axioms)

    p = sub.add_parser("fusion", parents=[output], help="fusion dimension upper bounds")
    p.add_argument("--w1", required=True, type=_module)
    p.add_argument("--w2", required=True, type=_module)
    p.add_argument("--w3", required=True, type=_module)
    p.add_argument("--n", type=_nonneg_int, default=0)
    p.add_argument("--window", type=_int_list, default=(6, 8))
    p.set_defaults(func=cmd_fusion)

    p = sub.add_parser("reduce", parents=[output],
                       help="canonical representative mod the ideal window")
    p.add_argument("element_file")
    p.add_argument("--algebra", required=True, type=_algebra)
    p.add_argument("--n", type=_nonneg_int, default=0)
    p.add_argument("--depth", type=_nonneg_int, default=None)
    p.set_defaults(func=cmd_reduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, VoazhuError, OSError) as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
