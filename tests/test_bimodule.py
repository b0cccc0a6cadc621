"""Bimodule actions, ideal windows, and the certified congruence battery."""

from fractions import Fraction

import pytest

from oracles import (residue_oracle, star_oracle, ywv_residue_oracle,
                     ywv_series_oracle, ywv_star_oracle)
from voazhu import GradedVector, binom
from voazhu.bimodule import (AXIOM_IDS, action_swap_defect, axiom_defect, bimodule_context,
                             certify_bimodule_membership, check_axiom, circ_w,
                             circ_wv, commutator_defect, intertwiner_ideal_context,
                             left_star, right_star, right_star_alt)
from voazhu.sampling import SampleStream
from voazhu.zhu import lp_element, star_product


def test_left_action_examples(heis, fock_one):
    alpha = heis.alpha()
    w = fock_one.monomial([("a", -2)])
    assert left_star(fock_one, heis.one(), w, 0) == w
    assert left_star(fock_one, heis.one(), w, 2) == w
    got = left_star(fock_one, alpha, fock_one.lw(), 0)
    assert got == fock_one.monomial([("a", -1)]) + fock_one.lw()


def test_left_action_matches_oracle(heis, fock_half):
    stream = SampleStream(61)
    for N in (0, 1):
        for _ in range(10):
            u = stream.monomial(heis, 3)
            w = stream.monomial(fock_half, 2)
            assert left_star(fock_half, u, w, N) == star_oracle(fock_half, u, w, N)


def test_omega_left_action_frozen_value(heis, fock_one):
    # omega *_0 |1>: frozen from the residue oracle
    got = left_star(fock_one, heis.omega(), fock_one.lw(), 0)
    want = residue_oracle(fock_one, heis.omega(), fock_one.lw(), 0, -1)
    assert got == want
    # L(-2) + 2L(-1) + L(0) on |1>: a(-1)^2/2 + a(-2) + 2a(-1) + 1/2
    assert got == (fock_one.monomial([("a", -1), ("a", -1)], Fraction(1, 2))
                   + fock_one.monomial([("a", -2)])
                   + fock_one.monomial([("a", -1)], 2)
                   + fock_one.lw() * Fraction(1, 2))


def test_right_action_examples(heis, fock_one):
    assert right_star(fock_one, fock_one.lw(), heis.one(), 0) == fock_one.lw()
    # frozen value: |1> *_0 alpha = -1/2 |1>
    assert right_star(fock_one, fock_one.lw(), heis.alpha(), 0) == fock_one.lw() * Fraction(-1, 2)


@pytest.mark.parametrize("name", ["heis", "vir_half"])
def test_right_action_on_the_algebra_is_the_product(name, request):
    """W = V: skew symmetry makes Y_WV(w, x)u = Y(w, x)u, so w *_N u is the
    algebra product w *_N u."""
    alg = request.getfixturevalue(name)
    stream = SampleStream(67)
    for N in (0, 1, 2):
        for _ in range(6):
            w = stream.monomial(alg, 3)
            u = stream.monomial(alg, 3)
            assert right_star(alg, w, u, N) == star_product(alg, w, u, N)


def test_right_action_matches_ywv_oracle(heis, fock_one):
    stream = SampleStream(62)
    for N in (0, 1):
        for _ in range(8):
            w = stream.monomial(fock_one, 2)
            u = stream.monomial(heis, 2)
            total = fock_one.zero()
            for m in range(N + 1):
                c = Fraction((-1) ** m) * binom(Fraction(m + N), N)
                a = w.weight() + N
                # series route for Res_x x^(-N-m-1) (1+x)^a Y_WV(w,x)u
                part = fock_one.zero()
                for j in range(0, 12):
                    bc = binom(a, j)
                    if bc == 0:
                        continue
                    term = ywv_series_oracle(fock_one, w, u, j - N - m - 1)
                    part = part + term * bc
                total = total + part * c
            assert right_star(fock_one, w, u, N) == total


def test_right_alt_matches_residue_oracle(fock_half, verma_ising):
    stream = SampleStream(68)
    for module in (fock_half, verma_ising):
        for N in (0, 1, 2):
            for _ in range(3):
                u = stream.monomial(module.algebra, 2)
                w = stream.monomial(module, 2)
                want = module.zero()
                for m in range(N + 1):
                    c = (-1) ** N * binom(m + N, N)
                    want = want + residue_oracle(module, u, w, m - 1, -N - m - 1) * c
                assert right_star_alt(module, w, u, N) == want


@pytest.mark.parametrize("p,q", [(1, 0), (2, 1), (1, 1)])
def test_deep_residues_match_oracles(p, q, fock_one, verma_ising):
    stream = SampleStream(69)
    for module in (fock_one, verma_ising):
        for N in (0, 1):
            u = stream.monomial(module.algebra, 2)
            w = stream.monomial(module, 2)
            x_power = -2 * N - 2 - p
            assert circ_w(module, u, w, N, p, q) == residue_oracle(
                module, u, w, N + q, x_power)
            assert circ_wv(module, w, u, N, p, q) == ywv_residue_oracle(
                module, w, u, N + q, x_power)


def test_commutator_defect_matches_oracles(fock_half, verma_ising):
    """The commutator term is Res_x Y((1+x)^(L(0)_s - 1) u, x) w, for
    either operator family."""
    for module in (fock_half, verma_ising):
        alg = module.algebra
        for N in (0, 1):
            for u_bv in alg.basis_at_depth(2):
                for w_bv in module.basis_at_depth(1) + module.basis_at_depth(2):
                    u = GradedVector(alg, {u_bv: Fraction(1)})
                    w = GradedVector(module, {w_bv: Fraction(1)})
                    left, right = star_oracle(module, u, w, N), ywv_star_oracle(module, w, u, N)
                    assert commutator_defect(module, u, w, N) == (
                        left - right - residue_oracle(module, u, w, -1, 0))
                    assert commutator_defect(module, u, w, N, mirrored=True) == (
                        right - left - ywv_residue_oracle(module, w, u, -1, 0))


def test_right_agreement_modulo_ideal(heis, fock_one, fock_half, verma_ising):
    stream = SampleStream(63)
    for module in (fock_one, fock_half, verma_ising):
        alg = module.algebra
        for N in (0, 1):
            for _ in range(4):
                u = stream.monomial(alg, 2)
                w = stream.monomial(module, 2)
                d = right_star(module, w, u, N) - right_star_alt(module, w, u, N)
                cert = certify_bimodule_membership(
                    module, N, d, max(6, d.max_depth() + 1))
                assert cert.certified


def test_right_alt_unit_congruence(heis, fock_one):
    for N in (0, 1):
        d = right_star_alt(fock_one, fock_one.lw(), heis.one(), N) - fock_one.lw()
        cert = certify_bimodule_membership(fock_one, N, d, max(4, d.max_depth() + 1))
        assert cert.certified


def test_circ_families(heis, fock_one):
    one = heis.one()
    w = fock_one.monomial([("a", -1)])
    assert circ_w(fock_one, one, w, 0).is_zero()
    assert circ_w(fock_one, one, w, 2).is_zero()
    # membership of the mirrored residue element (proved, then certified)
    got = circ_wv(fock_one, fock_one.lw(), heis.alpha(), 0)
    cert = certify_bimodule_membership(fock_one, 0, got, 6)
    assert cert.certified
    with pytest.raises(ValueError):
        circ_w(fock_one, one, w, 0, p=0, q=1)


def test_deep_power_memberships(heis, fock_one):
    stream = SampleStream(64)
    for (p, q) in ((1, 0), (2, 1), (1, 1)):
        u = stream.monomial(heis, 2)
        w = stream.monomial(fock_one, 1)
        for mirrored in (False, True):
            x = (circ_wv(fock_one, w, u, 0, p=p, q=q) if mirrored
                 else circ_w(fock_one, u, w, 0, p=p, q=q))
            cert = certify_bimodule_membership(fock_one, 0, x, max(7, x.max_depth() + 1))
            assert cert.certified, (p, q, mirrored)


def test_action_swap_defects_certified(heis, fock_one):
    for N in (0, 1):
        u, w = heis.alpha(), fock_one.lw()
        for d in (action_swap_defect(fock_one, u, w, N),
                  right_star(fock_one, w, u, N) - right_star_alt(fock_one, w, u, N)):
            cert = certify_bimodule_membership(fock_one, N, d, max(8, d.max_depth() + 1))
            assert cert.certified


def test_commutator_defect_examples(heis, fock_one, fock_half):
    w = fock_one.monomial([("a", -2)])
    assert commutator_defect(fock_one, heis.one(), w, 0).is_zero()
    for N in (0, 1):
        d = commutator_defect(fock_half, heis.omega(),
                              fock_half.monomial([("a", -1)]), N)
        cert = certify_bimodule_membership(fock_half, N, d, max(8, d.max_depth() + 1))
        assert cert.certified
        dm = commutator_defect(fock_half, heis.omega(),
                               fock_half.monomial([("a", -1)]), N, mirrored=True)
        cert = certify_bimodule_membership(fock_half, N, dm, max(8, dm.max_depth() + 1))
        assert cert.certified


def axiom_statuses(module, u, v, w, N):
    """The status of every axiom on one sample."""
    return {check_axiom(module, a, u, v, w, N)[0].status for a in AXIOM_IDS}


def test_trivial_axiom_sample(heis, fock_one):
    lw = fock_one.lw()
    assert axiom_statuses(fock_one, heis.one(), heis.one(), lw, 0) == {"certified"}


def test_axiom_battery_samples(heis, fock_one, fock_half):
    lw = fock_one.lw()
    assert axiom_statuses(fock_one, heis.alpha(), heis.alpha(), lw, 0) == {"certified"}
    w = fock_half.monomial([("a", -1)])
    assert axiom_statuses(fock_half, heis.omega(), heis.alpha(), w, 1) == {"certified"}


def test_axiom_battery_verma(vir_half, verma_ising):
    om = vir_half.omega()
    w = verma_ising.monomial([("L", -1)])
    assert axiom_statuses(verma_ising, om, om, w, 0) == {"certified"}


def test_axioms_certify_at_the_defect_depth(fock_half, fock_one, verma_ising):
    """check_axiom's first window has the defect's own depth, and that window
    certifies every axiom on seeded samples, with no deeper retry."""
    stream = SampleStream(26)
    for module in (fock_half, fock_one, verma_ising):
        alg = module.algebra
        for N in (0, 1):
            for _ in range(3):
                u, v = stream.monomial(alg, 2), stream.monomial(alg, 2)
                w = stream.monomial(module, 2)
                for axiom_id in AXIOM_IDS:
                    cert, tried = check_axiom(module, axiom_id, u, v, w, N)
                    depth = axiom_defect(module, axiom_id, u, v, w, N).max_depth()
                    assert cert.certified and tried == [depth], (
                        module.module_id, N, axiom_id, u, v, w, tried)


def test_ideal_action_invariance(heis, fock_one):
    """Left and right actions preserve the ideal window span."""
    ctx = bimodule_context(fock_one, 0, 6)
    stream = SampleStream(65)
    u = stream.monomial(heis, 2)
    for g, label in list(zip(ctx.subspace.gens, ctx.labels))[:12]:
        if g.is_zero():
            continue
        for moved in (left_star(fock_one, u, g, 0), right_star(fock_one, g, u, 0)):
            cert = certify_bimodule_membership(fock_one, 0, moved,
                                               max(8, moved.max_depth() + 1))
            assert cert.certified, label


def test_algebra_ideal_acts_into_module_ideal(heis, fock_one):
    """Every enumerated algebra-ideal generator, acting on a sampled module
    vector from either side, lands in the module ideal."""
    from voazhu.zhu import zhu_context
    actx = zhu_context(heis, 0, 4)
    stream = SampleStream(66)
    w = stream.monomial(fock_one, 2)
    checked = 0
    for q, label in zip(actx.subspace.gens, actx.labels):
        if q.is_zero() or checked >= 10:
            continue
        for moved in (left_star(fock_one, q, w, 0), right_star(fock_one, w, q, 0)):
            cert = certify_bimodule_membership(fock_one, 0, moved,
                                               max(8, moved.max_depth() + 1))
            assert cert.certified, label
        checked += 1
    assert checked >= 10


def test_degenerate_w_equals_v(heis):
    """W = V as a bimodule cross-checks against the algebra-side quotient.

    The two ideal notions have different generating families and stay
    distinct: the bimodule window at level 0 is compared here against the
    algebra window on the same elements.
    """
    from voazhu.zhu import zhu_context
    bctx = bimodule_context(heis, 0, 6)
    actx = zhu_context(heis, 0, 6)
    x = lp_element(heis, heis.alpha())
    assert bctx.membership(x).certified
    assert actx.membership(x).certified
    # the level-0 bimodule product on W = V agrees with the algebra product
    u = heis.monomial([("a", -2)])
    v = heis.alpha()
    assert left_star(heis, u, v, 0) == star_product(heis, u, v, 0)


def test_window_overflow_raises(heis, fock_one):
    ctx = bimodule_context(fock_one, 0, 2)
    from voazhu.errors import WindowOverflowError
    x = left_star(fock_one, heis.monomial([("a", -3)]), fock_one.monomial([("a", -1)]), 0)
    with pytest.raises(WindowOverflowError):
        ctx.membership(x)
    # the ladder reads an overflow as Inconclusive at that depth
    cert = certify_bimodule_membership(fock_one, 0, x, 2, retries=())
    assert not cert.certified and cert.window_depth == 2


def test_intertwiner_ideal_is_smaller(fock_one):
    full = bimodule_context(fock_one, 0, 6)
    circ_only = intertwiner_ideal_context(fock_one, 0, 6)
    assert circ_only.subspace.rank < full.subspace.rank
    for g in circ_only.subspace.gens:
        assert full.subspace.reduce(g).is_zero()
