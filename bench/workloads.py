"""The benchmark's three workloads, each run cold inside one child process.

A workload object is built from the seed (that is its set-up: imports,
instances, inputs and, on ``queries``, the ideal windows), then ``run()``
is the timed part and ``check()`` verifies the outputs outside it.
``run()`` returns the records and the ``time.monotonic()`` start and end of
each op, or None when the whole command is the one op.

The package is driven only through its public entry points (the names
exported from ``voazhu``, the report and the CLI helpers), so refactors
behind those names keep the benchmark running unchanged.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import time
from fractions import Fraction
from typing import NamedTuple

from voazhu import (FockIntertwiner, GradedVector, alternating_binomial_sum,
                    bimodule_context, certify_bimodule_membership,
                    certify_membership, check_derivative_rule,
                    check_hom_properties, circ_w, commutator_check,
                    induced_hom, o_action, omega0_basis, star_product,
                    verify_bivariate_binomial_cancellation,
                    verify_telescoping_binomial_sum, zhu_context)
from voazhu.bimodule import AXIOM_IDS, axiom_defect, axiom_window_depth
from voazhu.report import SuiteConfig, run_suite
from voazhu.serialize import parse_module_spec

OK_STATUSES = ("pass", "certified")

# ``voazhu axioms`` runs one fixed configuration whose cost is set by the
# deepest window its samples need: 26-38 s across suite seeds 42, 7, 1 and 2
# on a 2-core x86 box.  The workload pins the CLI default seed so that its
# run time measures the program, not the draw; every run is then checked
# against the frozen digest of that seed.
AXIOMS_SUITE_SEED = 42

# Windows built in the ``queries`` set-up: (module spec, N, depth D).
QUERY_WINDOWS = (
    ("heisenberg", 0, 9),
    ("virasoro:c=1/2", 0, 11),
    ("fock:1", 0, 9),
    ("verma:c=1/2,h=1/16", 1, 11),
)
QUERY_COUNT = 6000
SAMPLE_DEPTH = 4           # deepest monomial drawn for u, v, w
ALGEBRA_CHECKS = ("unit_left", "unit_right", "centrality", "associativity", "reduce")

# ``calculus``: the verify-identities CLI defaults, then seeded mode checks.
IDENTITY_MAX_N, ALT_SUM_MAX_N, BIVARIATE_MAX_N = 20, 50, 10
MODE_FAMILIES = (  # algebra spec, module specs
    ("heisenberg", ("fock:1", "fock:1/2")),
    ("virasoro:c=1/2", ("verma:c=1/2,h=1/16", "verma:c=1/2,h=1/2")),
    ("virasoro:c=1", ("verma:c=1,h=1/4",)),
    ("virasoro:c=25", ("verma:c=25,h=1",)),
)
MODE_SAMPLES = 80          # per algebra or module
SLICE_FAMILIES = (("heisenberg", ("fock:1", "fock:1/2")),
                  ("virasoro:c=1/2", ("verma:c=1/2,h=1/16",)))
SLICE_LEVELS = (0, 1, 2)
SLICE_SAMPLES = 8          # per module and level
FOCK_PAIRS = (("1", "2"), ("1/2", "1/2"), ("0", "3"))
RHO_LEVELS = (0, 1)
RHO_SAMPLES = 16           # per pair and level
MODE_INDICES = range(-3, 4)  # m, n of the commutator formula


def input_hash(obj) -> str:
    blob = json.dumps(obj, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def digest(triples, extra=()) -> str:
    """sha256 over the sorted (check_id, input_hash, status) triples plus
    the extra lines (quotient bounds, fusion dimensions)."""
    lines = sorted("\t".join(t) for t in triples)
    lines += [f"#\t{line}" for line in extra]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class Sampler:
    """Seeded homogeneous monomials, drawn independently of library internals."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def monomial(self, module, depth: int):
        """(vector, text) of one monomial of the given depth."""
        return _monomial(module, self.rng.choice(_partitions(depth, module.min_part)))

    def homogeneous(self, module, depth: int):
        """(vector, text) of a rational combination of monomials of the given depth."""
        opts = _partitions(depth, module.min_part)
        picks = self.rng.sample(opts, self.rng.randint(1, min(3, len(opts))))
        vec, text = module.zero(), []
        for parts in picks:
            c = Fraction(self.rng.choice((-1, 1)) * self.rng.randint(1, 9),
                         self.rng.randint(1, 4))
            mono, mono_text = _monomial(module, parts)
            vec = vec + mono * c
            text.append([mono_text, str(c)])
        return vec, text


def _partitions(total: int, min_part: int, max_part: int | None = None) -> list:
    if total == 0:
        return [()]
    cap = total if max_part is None else min(max_part, total)
    return [(first,) + rest
            for first in range(cap, min_part - 1, -1)
            for rest in _partitions(total - first, min_part, first)]


def _depths(module, max_depth: int) -> list:
    return [d for d in range(max_depth + 1) if _partitions(d, module.min_part)]


def _plan(count: int, *axes) -> list:
    """``count`` rows of the grid ``axes[0] x axes[1] x ...``.

    The plan is a fixed shuffle of the whole grid, cycled, and the same for
    every seed.  It fixes the depths and mode indices of the samples, which
    set most of their cost; the seed picks the monomials of those depths.
    """
    grid = list(itertools.product(*axes))
    random.Random(0).shuffle(grid)
    return [grid[i % len(grid)] for i in range(count)]


def _sample_depths(module) -> list:
    return _depths(module, SAMPLE_DEPTH)


def _monomial(module, parts):
    tag = next(iter(module.generator_tags()))
    text = " ".join(f"{tag}(-{p})" for p in parts) or "lw"
    return module.monomial([(tag, -p) for p in parts]), text


class Axioms:
    """``voazhu axioms --seed 42 --n 0,1``: one cold batch suite per run."""

    def __init__(self, seed: int):
        self.config = SuiteConfig(seed=AXIOMS_SUITE_SEED, n_values=(0, 1))
        self.digest_seed = AXIOMS_SUITE_SEED
        self.fusion = []

    def run(self):
        entries = run_suite(self.config)["entries"]
        self.fusion = [e for e in entries if e["check_id"] == "fusion_dim"]
        return [(e["check_id"], e["input_hash"], e["status"]) for e in entries], None

    def check(self, records):
        problems, lines = [], []
        for e in self.fusion:
            lines.append(f"{e['inputs']} {e['dims']} {e['stabilized']}")
            if not (e["stabilized"] and all(d == e["expected"] for d in e["dims"])):
                problems.append(f"fusion dims {e['dims']} for {e['inputs']}")
        if len(self.fusion) != 6:
            problems.append(f"expected 6 fusion entries, got {len(self.fusion)}")
        return digest(records, lines), problems


class Window(NamedTuple):
    spec: str
    module: object
    N: int
    D: int
    ctx: object

    @property
    def is_algebra(self) -> bool:
        return self.module.algebra is self.module


class Queries:
    """Read-heavy membership and reduce queries against prebuilt windows."""

    def __init__(self, seed: int):
        self.digest_seed = seed
        self.windows = []
        for spec, N, D in QUERY_WINDOWS:
            module = parse_module_spec(spec)
            build = zhu_context if module.algebra is module else bimodule_context
            self.windows.append(Window(spec, module, N, D, build(module, N, D)))
        self._triples = {}
        # the plan fixes each query's window, check and depths, which set most
        # of its cost, the same for every seed; the seed picks the elements
        plan, sampler = random.Random(0), Sampler(seed)
        self.queries = [self._draw(plan, sampler) for _ in range(QUERY_COUNT)]
        self.reps = []

    def _draw(self, plan: random.Random, sampler: Sampler):
        win = plan.choice(self.windows)
        kind = plan.choice(ALGEBRA_CHECKS if win.is_algebra else AXIOM_IDS)
        inputs = {"window": [win.spec, win.N, win.D], "check": kind}
        if kind == "reduce":
            depth = plan.choice(_depths(win.module, win.D))
            x, inputs["x"] = sampler.homogeneous(win.module, depth)
            return kind, inputs, (x,), win
        if (win.module.module_id, kind) not in self._triples:
            self._triples[win.module.module_id, kind] = _fitting_depths(win, kind)
        du, dv, dw = plan.choice(self._triples[win.module.module_id, kind])
        alg = win.module.algebra
        (u, inputs["u"]), (v, inputs["v"]) = (sampler.monomial(alg, du),
                                              sampler.monomial(alg, dv))
        w, inputs["w"] = sampler.monomial(win.module, dw)
        return kind, inputs, (u, v, w), win

    def run(self):
        records, spans = [], []
        clock = time.monotonic
        for kind, inputs, args, win in self.queries:
            module, N, D = win.module, win.N, win.D
            t = clock()
            try:
                if kind == "reduce":
                    (x,) = args
                    rep = win.ctx.subspace.reduce(x)
                    cert = certify_membership(module, N, x - rep, D, retries=())
                    self.reps.append((win.ctx, rep))
                elif win.is_algebra:
                    cert = certify_membership(module, N, _algebra_defect(module, kind, *args, N),
                                              D, retries=())
                else:
                    defect = axiom_defect(module, kind, *args, N)
                    cert = certify_bimodule_membership(module, N, defect, D, retries=())
                status = cert.status
            except Exception as exc:  # an exception is a failed op, not a crash
                status = f"error:{type(exc).__name__}"
            spans.append((t, clock()))
            records.append((kind, input_hash(inputs), status))
        return records, spans

    def check(self, records):
        problems, bounds = [], []
        for win in self.windows:
            dims = win.ctx.quotient_dims()
            bounds.append(f"{win.spec} N={win.N} D={win.D} {dims}")
            tight = TIGHT_A0.get(win.spec) if win.N == 0 else None
            if tight is not None and dims != [tight(d) for d in range(win.D + 1)]:
                problems.append(f"A_0 bound {dims} of {win.spec} is not the known dimension")
        for ctx, rep in self.reps:
            if ctx.subspace.reduce(rep) != rep:
                problems.append(f"reduce is not idempotent on {rep}")
                break
        return digest(records, bounds), problems


# dim A_0(V) at each depth: A_0(M(1)) = C[x] with wt x = 1 (Frenkel-Zhu 1992);
# A_0(V_c) = C[x] with wt x = 2 (Wang 1993).
TIGHT_A0 = {"heisenberg": lambda d: 1, "virasoro:c=1/2": lambda d: (d + 1) % 2}


def _fitting_depths(win: Window, kind: str) -> list:
    """Depths (du, dv, dw) of u, v, w whose defect the window is sized to contain."""
    alg, N = win.module.algebra, win.N
    lowest = {(m.module_id, d): _monomial(m, _partitions(d, m.min_part)[0])[0]
              for m in (alg, win.module) for d in _sample_depths(m)}
    out = []
    for du in _sample_depths(alg):
        for dv in _sample_depths(alg):
            for dw in _sample_depths(win.module):
                if win.is_algebra:
                    need = {"unit_left": du + 2 * N + 4,
                            "unit_right": du + 2 * N + 4,
                            "centrality": du + 2 * N + 6,
                            "associativity": du + dv + dw + 2 * N + 4}[kind]
                else:
                    need = axiom_window_depth(
                        win.module, kind, lowest[alg.module_id, du],
                        lowest[alg.module_id, dv], lowest[win.module.module_id, dw], N)
                if need <= win.D:
                    out.append((du, dv, dw))
    return out


def _algebra_defect(alg, kind, u, v, w, N):
    if kind == "unit_left":
        return star_product(alg, alg.one(), u, N) - u
    if kind == "unit_right":
        return star_product(alg, u, alg.one(), N) - u
    if kind == "centrality":
        return star_product(alg, alg.omega(), u, N) - star_product(alg, u, alg.omega(), N)
    return (star_product(alg, star_product(alg, u, v, N), w, N)
            - star_product(alg, u, star_product(alg, v, w, N), N))


class Calculus:
    """verify-identities at CLI defaults, then seeded exact mode calculus.

    Each op is (check ids, inputs, function, arguments); the function returns
    one bool per check id.  An op is one identity index or one seeded sample
    with all the checks made on it, so the op mix is the same for every seed.
    """

    def __init__(self, seed: int):
        self.digest_seed = seed
        self.ops = []
        for n in range(IDENTITY_MAX_N + 1):
            self.ops.append((("telescoping_sum",), {"N": n}, _telescoping, (n,)))
        for n in range(ALT_SUM_MAX_N + 1):
            self.ops.append((("alternating_sum",), {"N": n}, _alternating, (n,)))
        for n in range(BIVARIATE_MAX_N + 1):
            self.ops.append((("bivariate_cancellation",), {"N": n}, _bivariate, (n,)))
        sampler = Sampler(seed)
        self._mode_ops(sampler)
        self._slice_ops(sampler)
        self._rho_ops(sampler)

    def _mode_ops(self, sampler):
        for alg_spec, mod_specs in MODE_FAMILIES:
            alg = parse_module_spec(alg_spec)
            for spec in (alg_spec,) + mod_specs:
                module = parse_module_spec(spec)
                da, dm = _sample_depths(alg), _sample_depths(module)
                for du, dv, dw, m, n in _plan(MODE_SAMPLES, da, da, dm, MODE_INDICES,
                                              MODE_INDICES):
                    (u, tu), (v, tv) = sampler.monomial(alg, du), sampler.monomial(alg, dv)
                    w, tw = sampler.monomial(module, dw)
                    inputs = {"module": spec, "u": tu, "m": m, "v": tv, "n": n, "w": tw}
                    self.ops.append((("commutator_formula", "vacuum_mode", "lower_truncation"),
                                     inputs, _mode_sample, (alg, module, u, m, v, n, w)))

    def _slice_ops(self, sampler):
        for alg_spec, mod_specs in SLICE_FAMILIES:
            alg = parse_module_spec(alg_spec)
            for spec in mod_specs:
                module = parse_module_spec(spec)
                for N in SLICE_LEVELS:
                    basis = omega0_basis(module, N)
                    for du, dv in _plan(SLICE_SAMPLES, _sample_depths(alg), _sample_depths(alg)):
                        (u, tu), (v, tv) = sampler.monomial(alg, du), sampler.monomial(alg, dv)
                        bv = basis[sampler.rng.randrange(len(basis))]
                        w = GradedVector(module, {bv: Fraction(1)})
                        inputs = {"module": spec, "N": N, "u": tu, "v": tv, "w": str(bv)}
                        self.ops.append((("zero_mode_product", "zero_mode_bracket"), inputs,
                                         _bottom_slice, (alg, module, u, v, w, N)))

    def _rho_ops(self, sampler):
        V = parse_module_spec("heisenberg")
        for lam, mu in FOCK_PAIRS:
            it = FockIntertwiner(V, Fraction(lam), Fraction(mu))
            W1, W2, W3 = it.w1_module, it.w2_module, it.w3_module
            for N in RHO_LEVELS:
                b2 = omega0_basis(W2, N)
                plan = _plan(RHO_SAMPLES, _sample_depths(V), _sample_depths(W1), range(4))
                for k, (du, dw, lowering) in enumerate(plan):
                    u, tu = sampler.monomial(V, du)
                    w1, tw1 = sampler.monomial(W1, dw)
                    bv2 = b2[k % len(b2)]
                    w2 = GradedVector(W2, {bv2: Fraction(1)})
                    n_mode = w1.weight() + w2.weight() - W3.lowest_weight - 1 - lowering
                    inputs = {"lam": lam, "mu": mu, "N": N, "u": tu, "w1": tw1,
                              "w2": str(bv2), "n": str(n_mode)}
                    self.ops.append((RHO_CHECKS, inputs, _rho_sample, (it, N, u, w1, n_mode, w2)))

    def run(self):
        records, spans = [], []
        clock = time.monotonic
        for check_ids, inputs, fn, args in self.ops:
            h = input_hash(inputs)
            t = clock()
            try:
                statuses = ["pass" if ok else "fail" for ok in fn(*args)]
            except Exception as exc:  # an exception is a failed op, not a crash
                statuses = [f"error:{type(exc).__name__}"] * len(check_ids)
            spans.append((t, clock()))
            records.extend((cid, h, st) for cid, st in zip(check_ids, statuses))
        return records, spans

    def check(self, records):
        return digest(records), []


def _telescoping(n):
    return (verify_telescoping_binomial_sum(n),)


def _alternating(n):
    return (all(alternating_binomial_sum(n, i) == (1 if i == 0 else 0) for i in range(n + 1)),)


def _bivariate(n):
    return (verify_bivariate_binomial_cancellation(n),)


def _mode_sample(alg, module, u, m, v, n, w):
    one = alg.one()
    vacuum = (module.mode_action(one, -1, w) == w
              and all(module.mode_action(one, j, w).is_zero() for j in (-3, -2, 0, 1, 2)))
    bound = module.mode_vanishing_bound(u, w)
    truncation = all(module.mode_action(u, k, w).is_zero() for k in range(bound, bound + 4))
    return commutator_check(module, u, m, v, n, w), vacuum, truncation


def _bottom_slice(alg, module, u, v, w, N):
    uv, vu = star_product(alg, u, v, N), star_product(alg, v, u, N)
    ouv_w = o_action(module, u, o_action(module, v, w))
    product = o_action(module, uv, w) == ouv_w
    bracket = ouv_w - o_action(module, v, o_action(module, u, w)) == o_action(module, uv - vu, w)
    return product, bracket


RHO_CHECKS = ("image_containment", "residue_family_vanishing", "hom_left",
              "hom_right_alt", "derivative_rule")


def _rho_sample(it, N, u, w1, n, w2):
    hom = check_hom_properties(it, N, u, w1, w2)
    return (induced_hom(it, N, w1, w2).max_depth() <= N,
            induced_hom(it, N, circ_w(it.w1_module, u, w1, N), w2).is_zero(),
            hom["left"], hom["right"],
            check_derivative_rule(it, w1, n, 0, w2))


WORKLOADS = {"axioms": Axioms, "queries": Queries, "calculus": Calculus}
