"""Batch verification driver: runs the fixed check suite and emits a report.

The suite's modules (``_suite``), samples and window cap are fixed below;
a run sets only the three ``SuiteConfig`` fields (the seed, the levels N
and ``normalize``), which the report's ``config`` block records.
A report is a plain JSON-serializable dictionary.  Identical configs give
byte-identical normalized reports: sample streams are seeded, entries are
sorted by (module, check id, input hash), and timestamps are only added
when normalization is switched off.  Individual check failures are
recorded as entries; they never abort the suite.

Each section evaluates a sample where it is drawn.  The streams draw with
replacement, so a repeated draw is evaluated again and adds the same
entries again; that is cheap, because each residue is memoized per pair of
basis vectors on its module and every ideal window a check needs is
already owned by its module.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction

from . import __version__
from .basis import GradedVector
from .bimodule import AXIOM_IDS, check_axiom, circ_w
from .identities import check_identity_families
from .instances import fock, heisenberg_voa, verma, virasoro_voa
from .intertwiner import (FockIntertwiner, check_derivative_rule,
                          check_hom_properties, fusion_report, induced_hom)
from .ops import commutator_check
from .sampling import SampleStream
from .serialize import vector_to_pairs
from .zhu import certify, o_action, omega0_basis, star_product, zhu_context

CHECK_DESCRIPTIONS = {
    "telescoping_sum": "sum_m C(m+N,N)[(-1)^m (1+x)^(N+1) - (-1)^N (1+x)^m] x^-(N+m+1) = 1",
    "alternating_sum": "sum_m C(m+N,N) C(-N-m-1,i-m) = [i=0]",
    "bivariate_cancellation": "double binomial sum in x1, x2 vanishes identically",
    "commutator_formula": "[Y_m(u),Y_n(v)] = sum_j C(m,j) Y_{m+n-j}(Y_j(u)v)",
    "vacuum_mode": "Y_-1(1) = id and Y_k(1) = 0 for k != -1",
    "weight_bookkeeping": "wt Y_n(u)w = wt u - n - 1 + wt w on every term",
    "lower_truncation": "Y_n(u)w = 0 for all n at and above the weight bound",
    "unit_left": "1 *_N u - u in O_N(V)",
    "unit_right": "u *_N 1 - u in O_N(V)",
    "centrality": "omega *_N u - u *_N omega in O_N(V)",
    "associativity": "(u *_N v) *_N w - u *_N (v *_N w) in O_N(V)",
    "zero_mode_product": "o(u *_N v) w = o(u) o(v) w on the bottom slice",
    "zero_mode_bracket": "[o(u),o(v)] w = o(u *_N v - v *_N u) w on the bottom slice",
    "image_containment": "induced map lands in the bottom slice of W3",
    "residue_family_vanishing": "induced map kills u o_N w generators",
    "hom_left": "rho(u *_N w1 (x) w2) = o(u) rho(w1 (x) w2)",
    "hom_right_alt": "rho(w1 *_N' u (x) w2) = rho(w1 (x) o(u) w2)",
    "derivative_rule": "Y_{n;k}(L(-1)w1) = -n Y_{n-1;k}(w1) + (k+1) Y_{n-1;k+1}(w1)",
    "injectivity_smoke": "normalized free-boson operator has nonzero induced map",
    "fusion_dim": "solution dimension of the windowed quotient-hom system",
}


# (lam, mu) of the induced-map and fusion sections; the strings feed the input hashes
FOCK_PAIRS = (("1", "2"), ("1/2", "1/2"), ("0", "3"))
# samples drawn per section, and the depth bound of a drawn monomial
MODE_SAMPLES, QUOTIENT_SAMPLES, BIMODULE_SAMPLES, RHO_SAMPLES = 40, 6, 4, 8
MAX_DEPTH, BIMODULE_MAX_DEPTH = 3, 2
# the last N of the telescoping, alternating and bivariate identity families
IDENTITY_MAX_N, ALT_SUM_MAX_N, BIVARIATE_MAX_N = 12, 20, 6
# the deepest ideal window a certification may ask for; a heis associativity
# defect of ``axioms --seed 42 --n 3`` has depth 19
WINDOW_CAP = 19


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 42
    n_values: tuple = (0, 1)
    normalize: bool = True


def _hash_inputs(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class _Reporter:
    def __init__(self):
        self.entries = []

    def add(self, module: str, check_id: str, inputs, status: str, **extra):
        entry = {
            "module": module,
            "check_id": check_id,
            "identity": CHECK_DESCRIPTIONS.get(check_id, check_id),
            "inputs": inputs,
            "input_hash": _hash_inputs(inputs),
            "status": status,
        }
        entry.update(extra)
        self.entries.append(entry)

    def sorted_entries(self):
        return sorted(self.entries,
                      key=lambda e: (e["module"], e["check_id"], e["input_hash"]))


def _suite() -> tuple:
    """The suite's algebras, each with its modules (itself excluded), in draw order."""
    return ((heisenberg_voa(), (fock("1"), fock("1/2"))),
            (virasoro_voa("1/2"), (verma("1/2", "1/16"),)))


def run_identities(rep: _Reporter) -> None:
    for family, n, ok, extra in check_identity_families(
            IDENTITY_MAX_N, ALT_SUM_MAX_N, BIVARIATE_MAX_N):
        rep.add("exact-formal", family, {"N": n}, "pass" if ok else "fail", **extra)


def run_mode_axioms(config: SuiteConfig, rep: _Reporter) -> None:
    stream = SampleStream(config.seed)
    for alg, modules in _suite():
        mods = [alg, *modules]
        for k in range(MODE_SAMPLES):
            module = mods[k % len(mods)]
            u = stream.monomial(alg, MAX_DEPTH)
            v = stream.monomial(alg, MAX_DEPTH)
            w = stream.monomial(module, MAX_DEPTH)
            m = stream.mode_index(-3, 3)
            n = stream.mode_index(-3, 3)
            inputs = {"algebra": alg.module_id, "module": module.module_id,
                      "u": vector_to_pairs(u), "m": m, "v": vector_to_pairs(v), "n": n,
                      "w": vector_to_pairs(w)}
            ok = commutator_check(module, u, m, v, n, w)
            rep.add("voa-core", "commutator_formula", inputs, "pass" if ok else "fail")
            one = alg.one()
            vac_ok = (module.mode_action(one, -1, w) == w
                      and all(module.mode_action(one, j, w).is_zero()
                              for j in (-3, -2, 0, 1, 2)))
            rep.add("voa-core", "vacuum_mode", inputs, "pass" if vac_ok else "fail")
            bound = module.mode_vanishing_bound(u, w)
            trunc_ok = all(module.mode_action(u, n2, w).is_zero()
                           for n2 in range(bound, bound + 4))
            rep.add("voa-core", "lower_truncation", inputs, "pass" if trunc_ok else "fail")
            out = module.mode_action(u, n, w)
            wb_ok = True
            if not out.is_zero():
                want = u.weight() - n - 1 + w.weight()
                wb_ok = out.is_homogeneous() and out.weight() == want
            rep.add("voa-core", "weight_bookkeeping", inputs, "pass" if wb_ok else "fail")


def run_algebra_quotient(config: SuiteConfig, rep: _Reporter) -> None:
    stream = SampleStream(config.seed + 1)
    for alg, _ in _suite():
        for N in config.n_values:
            for _ in range(QUOTIENT_SAMPLES):
                u = stream.monomial(alg, MAX_DEPTH)
                v = stream.monomial(alg, MAX_DEPTH)
                w = stream.monomial(alg, 2)
                sample = {"algebra": alg.module_id, "N": N, "u": vector_to_pairs(u),
                          "v": vector_to_pairs(v), "w": vector_to_pairs(w)}
                checks = [
                    ("unit_left", star_product(alg, alg.one(), u, N) - u),
                    ("unit_right", star_product(alg, u, alg.one(), N) - u),
                    ("centrality", star_product(alg, alg.omega(), u, N)
                     - star_product(alg, u, alg.omega(), N)),
                    ("associativity", star_product(alg, star_product(alg, u, v, N), w, N)
                     - star_product(alg, u, star_product(alg, v, w, N), N)),
                ]
                for check_id, defect in checks:
                    cert, tried = certify(lambda d: zhu_context(alg, N, d), defect,
                                          defect.max_depth(), cap=WINDOW_CAP)
                    rep.add("zhu-quotient", check_id, dict(sample, check=check_id),
                            cert.status, windows_tried=tried,
                            witness_size=cert.witness_size())


def run_bottom_slice_action(config: SuiteConfig, rep: _Reporter) -> None:
    stream = SampleStream(config.seed + 2)
    for alg, modules in _suite():
        for module in modules:
            for N in config.n_values:
                basis = omega0_basis(module, N)
                for k in range(QUOTIENT_SAMPLES):
                    u = stream.monomial(alg, MAX_DEPTH)
                    v = stream.monomial(alg, MAX_DEPTH)
                    w = GradedVector(module, {basis[k % len(basis)]: 1})
                    inputs = {"algebra": alg.module_id, "module": module.module_id,
                              "N": N, "u": vector_to_pairs(u), "v": vector_to_pairs(v),
                              "w": vector_to_pairs(w)}
                    uv = star_product(alg, u, v, N)
                    prod_ok = (o_action(module, uv, w)
                               == o_action(module, u, o_action(module, v, w)))
                    rep.add("zhu-quotient", "zero_mode_product", inputs,
                            "pass" if prod_ok else "fail")
                    vu = star_product(alg, v, u, N)
                    br_ok = (o_action(module, u, o_action(module, v, w))
                             - o_action(module, v, o_action(module, u, w))
                             == o_action(module, uv - vu, w))
                    rep.add("zhu-quotient", "zero_mode_bracket", inputs,
                            "pass" if br_ok else "fail")


def run_bimodule_axioms(config: SuiteConfig, rep: _Reporter) -> None:
    stream = SampleStream(config.seed + 3)
    for alg, modules in _suite():
        for module in modules:
            for N in config.n_values:
                for _ in range(BIMODULE_SAMPLES):
                    u = stream.monomial(alg, BIMODULE_MAX_DEPTH)
                    v = stream.monomial(alg, BIMODULE_MAX_DEPTH)
                    w = stream.monomial(module, BIMODULE_MAX_DEPTH)
                    inputs_base = {"module": module.module_id, "N": N,
                                   "u": vector_to_pairs(u), "v": vector_to_pairs(v),
                                   "w": vector_to_pairs(w)}
                    for axiom_id in AXIOM_IDS:
                        cert, tried = check_axiom(module, axiom_id, u, v, w, N,
                                                  cap=WINDOW_CAP)
                        inputs = dict(inputs_base, axiom=axiom_id)
                        rep.add("an-bimodule", axiom_id, inputs, cert.status,
                                windows_tried=tried, witness_size=cert.witness_size())


def run_induced_map(config: SuiteConfig, rep: _Reporter) -> None:
    stream = SampleStream(config.seed + 4)
    V = heisenberg_voa()
    for lam_s, mu_s in FOCK_PAIRS:
        lam, mu = Fraction(lam_s), Fraction(mu_s)
        it = FockIntertwiner(V, lam, mu)
        W1, W2, W3 = it.w1_module, it.w2_module, it.w3_module
        smoke = induced_hom(it, 0, W1.lw(), W2.lw())
        rep.add("intertwiner-rho", "injectivity_smoke",
                {"lam": lam_s, "mu": mu_s}, "pass" if not smoke.is_zero() else "fail")
        for N in config.n_values:
            b2 = omega0_basis(W2, N)
            for k in range(RHO_SAMPLES):
                u = stream.monomial(V, MAX_DEPTH)
                w1 = stream.monomial(W1, MAX_DEPTH)
                w2 = GradedVector(W2, {b2[k % len(b2)]: 1})
                inputs = {"lam": lam_s, "mu": mu_s, "N": N, "u": vector_to_pairs(u),
                          "w1": vector_to_pairs(w1), "w2": vector_to_pairs(w2)}
                out = induced_hom(it, N, w1, w2)
                rep.add("intertwiner-rho", "image_containment", inputs,
                        "pass" if out.max_depth() <= N else "fail")
                gen = circ_w(W1, u, w1, N)
                ok = induced_hom(it, N, gen, w2).is_zero()
                rep.add("intertwiner-rho", "residue_family_vanishing", inputs,
                        "pass" if ok else "fail")
                hom = check_hom_properties(it, N, u, w1, w2)
                rep.add("intertwiner-rho", "hom_left", inputs,
                        "pass" if hom["left"] else "fail")
                rep.add("intertwiner-rho", "hom_right_alt", inputs,
                        "pass" if hom["right"] else "fail")
                n_mode = (w1.weight() + w2.weight() - W3.lowest_weight
                          - 1 - stream.mode_index(0, 3))
                ok = check_derivative_rule(it, w1, n_mode, 0, w2)
                rep.add("intertwiner-rho", "derivative_rule", inputs, "pass" if ok else "fail")


def run_fusion(rep: _Reporter) -> None:
    V = heisenberg_voa()
    for lam_s, mu_s in FOCK_PAIRS:
        lam, mu = Fraction(lam_s), Fraction(mu_s)
        if lam == 0:
            continue  # degenerate pair exercised by the induced-map section
        for delta in (0, 1, -1):
            nu = lam + mu + delta
            result = fusion_report(V, fock(lam), fock(mu), fock(nu), 0)
            expected = 1 if delta == 0 else 0
            status = "pass" if (result["fusion_dim_upper"] == expected
                                and result["stabilized"]) else "fail"
            rep.add("intertwiner-rho", "fusion_dim",
                    {"lam": lam_s, "mu": mu_s, "nu": str(nu)},
                    status, dims=result["dims"], windows=result["windows"],
                    expected=expected, stabilized=result["stabilized"])


def run_suite(config: SuiteConfig) -> dict:
    rep = _Reporter()
    run_identities(rep)
    run_mode_axioms(config, rep)
    run_algebra_quotient(config, rep)
    run_bottom_slice_action(config, rep)
    run_bimodule_axioms(config, rep)
    run_induced_map(config, rep)
    run_fusion(rep)
    entries = rep.sorted_entries()
    counts = dict(Counter(e["status"] for e in entries))
    report = {
        "tool": {"name": "voazhu", "version": __version__},
        "config": asdict(config),
        "entries": entries,
        "summary": {"counts": counts, "total": len(entries)},
    }
    if not config.normalize:
        report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    return report


def report_json(report: dict) -> str:
    """Canonical serialized form; identical configs give identical bytes."""
    return json.dumps(report, sort_keys=True, indent=2, default=str)
