"""Acceptance gate: one test per criterion, each printing a PASS line and
enforcing its runtime budget.  All arithmetic is exact; there are no
tolerances anywhere.

Criterion 6 appears twice: the parts that are true (and certified here)
and, separately, the literal reading whose lowest-weight half is a
verified defect of the source material - kept as a strict expected
failure with the counterexample frozen in test_discrepancy.py and the
analysis in the decisions ledger.
"""

import time
from fractions import Fraction

import pytest

from voazhu import GradedVector
from voazhu.bimodule import (AXIOM_IDS, action_swap_defect, axiom_defect,
                             axiom_window_depth, bimodule_context, circ_w,
                             circ_wv, commutator_defect, right_star,
                             right_star_alt)
from voazhu.identities import (alternating_binomial_sum,
                               verify_bivariate_binomial_cancellation,
                               verify_telescoping_binomial_sum)
from voazhu.instances import fock, heisenberg_voa, verma, virasoro_voa
from voazhu.intertwiner import (FockIntertwiner, check_hom_properties,
                                fusion_report, induced_hom)
from voazhu.ops import commutator_check
from voazhu.report import SuiteConfig, report_json, run_suite
from voazhu.sampling import SampleStream
from voazhu.zhu import (lp_element, o_action, omega0_basis, star_product,
                        zhu_context)


def _announce(num, label):
    print(f"\nACCEPTANCE {num}: PASS - {label}")


def test_criterion_1_combinatorial_identities():
    """Exact identity families, total runtime under 10 seconds."""
    t0 = time.monotonic()
    for n in range(21):
        assert verify_telescoping_binomial_sum(n), n
    for n in range(51):
        for i in range(n + 1):
            assert alternating_binomial_sum(n, i) == (1 if i == 0 else 0), (n, i)
    for n in range(11):
        assert verify_bivariate_binomial_cancellation(n), n
    elapsed = time.monotonic() - t0
    assert elapsed < 10, f"identities took {elapsed:.1f}s"
    _announce(1, f"binomial identity families exact (in {elapsed:.1f}s)")


def test_criterion_2_voa_axioms_desk_scale():
    """Commutator formula, vacuum axioms, weight bookkeeping, and lower
    truncation on >= 200 seeded samples per instance at depth <= 4."""
    t0 = time.monotonic()
    instances = [(heisenberg_voa(), [heisenberg_voa(), fock(1), fock("1/2")])]
    for cstr in ("1/2", "1", "25"):
        vc = virasoro_voa(cstr)
        instances.append((vc, [vc, verma(cstr, "1/16")]))
    for alg, modules in instances:
        stream = SampleStream(2024)
        checked = 0
        for k in range(200):
            module = modules[k % len(modules)]
            u = stream.monomial(alg, 4)
            v = stream.monomial(alg, 4)
            w = stream.monomial(module, 4)
            m = stream.mode_index(-3, 3)
            n = stream.mode_index(-3, 3)
            assert commutator_check(module, u, m, v, n, w), (alg.module_id, k)
            assert module.mode_action(alg.one(), -1, w) == w
            k2 = stream.mode_index(-4, 4)
            if k2 != -1:
                assert module.mode_action(alg.one(), k2, w).is_zero()
            out = module.mode_action(u, n, w)
            if not out.is_zero():
                assert out.is_homogeneous()
                assert out.weight() == u.weight() - n - 1 + w.weight()
            bound = module.mode_vanishing_bound(u, w)
            assert all(module.mode_action(u, b, w).is_zero()
                       for b in range(bound, bound + 3))
            checked += 1
        assert checked >= 200
    elapsed = time.monotonic() - t0
    assert elapsed < 30, f"mode axioms took {elapsed:.1f}s"
    _announce(2, f"mode axioms on 200 samples x 4 instances (in {elapsed:.1f}s)")


def test_criterion_3_level_n_algebra_structure():
    """Unit, conformal-vector centrality, and associativity congruences
    certified for N in {0,1,2} at window <= depth-sum + 2N + 4, with at
    most one retry and no Inconclusive left."""
    t0 = time.monotonic()
    inconclusive = 0
    for alg in (heisenberg_voa(), virasoro_voa("1/2")):
        stream = SampleStream(3033)
        one, omega = alg.one(), alg.omega()
        for N in (0, 1, 2):
            max_d = 3 if N == 0 else 2
            triples = [(stream.monomial(alg, max_d), stream.monomial(alg, max_d),
                        stream.monomial(alg, max_d)) for _ in range(6)]
            if N == 0:
                deep = alg.monomial([(next(iter(alg.generator_tags())),
                                      -alg.min_part)] * (3 // alg.min_part))
                triples.append((deep, deep, deep))
            for u, v, w in triples:
                ds = u.max_depth() + v.max_depth() + w.max_depth()
                cap = ds + 2 * N + 4
                defects = {
                    "unit_left": star_product(alg, one, u, N) - u,
                    "unit_right": star_product(alg, u, one, N) - u,
                    "centrality": (star_product(alg, omega, u, N)
                                   - star_product(alg, u, omega, N)),
                    "associativity": (star_product(alg, star_product(alg, u, v, N), w, N)
                                      - star_product(alg, u, star_product(alg, v, w, N), N)),
                }
                for check_id, defect in defects.items():
                    first = min(max(defect.max_depth() + 1, 4), cap)
                    cert = zhu_context(alg, N, first).membership(defect)
                    if not cert.certified and first < cap:
                        cert = zhu_context(alg, N, cap).membership(defect)  # one retry
                    if not cert.certified:
                        inconclusive += 1
                    assert cert.certified, (alg.module_id, N, check_id, defect)
                    assert cert.window_depth <= cap
    assert inconclusive == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 120, f"algebra structure took {elapsed:.1f}s"
    _announce(3, f"level-N algebra congruences certified, zero inconclusive "
                 f"(in {elapsed:.1f}s)")


def test_criterion_4_bottom_slice_module_structure():
    """o(u *_N v) w = o(u) o(v) w and the bracket identity, exactly, on 100
    samples per (instance, N) with w in the bottom slice."""
    t0 = time.monotonic()
    families = [
        (heisenberg_voa(), [fock(1), fock("1/2")]),
        (virasoro_voa("1/2"), [verma("1/2", "1/16"), virasoro_voa("1/2")]),
    ]
    for alg, modules in families:
        for N in (0, 1, 2):
            stream = SampleStream(4000 + N)
            for k in range(100):
                module = modules[k % len(modules)]
                basis = omega0_basis(module, N)
                u = stream.monomial(alg, 3)
                v = stream.monomial(alg, 3)
                w = GradedVector(module, {basis[k % len(basis)]: Fraction(1)})
                uv = star_product(alg, u, v, N)
                vu = star_product(alg, v, u, N)
                assert o_action(module, uv, w) == \
                    o_action(module, u, o_action(module, v, w))
                assert (o_action(module, u, o_action(module, v, w))
                        - o_action(module, v, o_action(module, u, w))
                        == o_action(module, uv - vu, w))
    elapsed = time.monotonic() - t0
    assert elapsed < 120, f"bottom slice action took {elapsed:.1f}s"
    _announce(4, f"bottom-slice action and bracket exact on 100 samples x "
                 f"(2 instances) x (3 levels) (in {elapsed:.1f}s)")


def test_criterion_5_bimodule_suite():
    """Action-swap congruences, deep residues, commutator defects, the
    ideal-invariance block, associativity and commuting-action congruences,
    and the right-action agreement: all certified on >= 50 seeded samples
    per (module, N in {0,1}); under 10 minutes."""
    t0 = time.monotonic()
    modules = [fock("1/2"), fock(1), verma("1/2", "1/16")]
    for module in modules:
        alg = module.algebra
        for N in (0, 1):
            stream = SampleStream(5000 + N)
            for k in range(50):
                u = stream.monomial(alg, 2)
                v = stream.monomial(alg, 2)
                w = stream.monomial(module, 2)
                # the three congruence families stated for pairs
                pair_defects = [
                    action_swap_defect(module, u, w, N),
                    right_star(module, w, u, N) - right_star_alt(module, w, u, N),
                    circ_w(module, u, w, N, p=1, q=0),
                    circ_wv(module, w, u, N, p=1, q=1),
                    commutator_defect(module, u, w, N),
                    commutator_defect(module, u, w, N, mirrored=True),
                ]
                for defect in pair_defects:
                    if defect.is_zero():
                        continue
                    depth = defect.max_depth() + 1
                    cert = bimodule_context(module, N, depth).membership(defect)
                    if not cert.certified:
                        cert = bimodule_context(module, N, depth + 2).membership(defect)
                    assert cert.certified, (module.module_id, N, k)
                # the full axiom battery
                for axiom_id in AXIOM_IDS:
                    defect = axiom_defect(module, axiom_id, u, v, w, N)
                    if defect.is_zero():
                        continue
                    depth = max(axiom_window_depth(module, axiom_id, u, v, w, N) - 1,
                                defect.max_depth() + 1)
                    cert = bimodule_context(module, N, depth).membership(defect)
                    if not cert.certified:
                        cert = bimodule_context(module, N, depth + 2).membership(defect)
                    assert cert.certified, (module.module_id, N, axiom_id, k)
    elapsed = time.monotonic() - t0
    assert elapsed < 600, f"bimodule suite took {elapsed:.1f}s"
    _announce(5, f"bimodule congruence suite certified on 50 samples x 3 "
                 f"modules x 2 levels (in {elapsed:.1f}s)")


def test_criterion_6_induced_map_true_parts():
    """Image containment, vanishing on the residue family of the ideal, and
    both homomorphism equalities (left action as stated; right action in
    the alternative form its own derivation establishes) - exact on 50
    samples per (pair, N)."""
    t0 = time.monotonic()
    V = heisenberg_voa()
    for lam_s, mu_s in (("1", "2"), ("1/2", "1/2"), ("0", "3")):
        it = FockIntertwiner(V, Fraction(lam_s), Fraction(mu_s))
        F1, F2 = it.w1_module, it.w2_module
        for N in (0, 1):
            stream = SampleStream(6000 + N)
            b2 = omega0_basis(F2, N)
            for k in range(50):
                u = stream.monomial(V, 3)
                w1 = stream.monomial(F1, 3)
                w2 = GradedVector(F2, {b2[k % len(b2)]: Fraction(1)})
                out = induced_hom(it, N, w1, w2)
                assert out.max_depth() <= N
                gen = circ_w(F1, u, w1, N)
                assert induced_hom(it, N, gen, w2).is_zero()
                res = check_hom_properties(it, N, u, w1, w2)
                assert res["left"], (lam_s, mu_s, N, k)
                assert res["right"], (lam_s, mu_s, N, k)
    elapsed = time.monotonic() - t0
    assert elapsed < 300, f"induced-map checks took {elapsed:.1f}s"
    _announce(6, f"induced-map containment, residue-family vanishing, and "
                 f"both homomorphism equalities exact (in {elapsed:.1f}s)")


@pytest.mark.xfail(strict=True,
                   reason="verified defect: the lowest-weight family of the "
                          "ideal is not annihilated by the induced map; "
                          "counterexample in test_discrepancy.py, analysis "
                          "in the decisions ledger")
def test_criterion_6_literal_full_ideal_vanishing():
    """The literal reading: vanishing on ALL ideal generators including the
    (L(-1)+L(0)_s) family.  False; kept as a strict expected failure."""
    V = heisenberg_voa()
    it = FockIntertwiner(V, 1, 2)
    F1, F2 = it.w1_module, it.w2_module
    stream = SampleStream(6100)
    for _ in range(10):
        w = stream.monomial(F1, 3)
        gen = lp_element(F1, w)
        assert induced_hom(it, 0, gen, F2.lw()).is_zero()


def test_criterion_7_fusion_isomorphism_instance():
    """Fusion dimension 1 on the momentum-conserving channel and 0 off it,
    stabilized across windows 6 and 8, plus the injectivity smoke test."""
    t0 = time.monotonic()
    V = heisenberg_voa()
    for lam_s, mu_s in (("1", "2"), ("1/2", "1/2")):
        lam, mu = Fraction(lam_s), Fraction(mu_s)
        for delta in (0, 1, -1):
            nu = lam + mu + delta
            rep = fusion_report(V, fock(lam), fock(mu), fock(nu), 0, windows=(6, 8))
            expected = 1 if delta == 0 else 0
            assert rep["stabilized"], (lam_s, mu_s, str(nu))
            assert rep["dims"] == [expected, expected], (lam_s, mu_s, str(nu))
        it = FockIntertwiner(V, lam, mu)
        assert not induced_hom(it, 0, it.w1_module.lw(), it.w2_module.lw()).is_zero()
    elapsed = time.monotonic() - t0
    assert elapsed < 600, f"fusion table took {elapsed:.1f}s"
    _announce(7, f"fusion dimensions 1/0/0 stabilized at windows 6 and 8 "
                 f"(in {elapsed:.1f}s)")


def test_criterion_8_report_determinism():
    """Two runs with one seed give byte-identical normalized reports."""
    config = SuiteConfig(seed=1234, n_values=(0,))
    first = report_json(run_suite(config))
    second = report_json(run_suite(config))
    assert first == second
    assert first.encode() == second.encode()
    _announce(8, "suite reports byte-identical across runs with equal config")
