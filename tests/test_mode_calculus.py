"""Mode actions on the Heisenberg and Virasoro instances.

The Virasoro action derived through the iterate recursion is checked
against the direct quadratic (normal-ordered) expression for L(k) on
Heisenberg modules, and against the bracket relations on Virasoro modules.
"""

from fractions import Fraction

import pytest

from oracles import sugawara_mode
from voazhu import commutator_check
from voazhu.heisenberg import FockModule
from voazhu.instances import fock, verma, virasoro_voa
from voazhu.modules import ModeTable, basis_window
from voazhu.sampling import SampleStream


def test_vacuum_axioms(heis, fock_half):
    one = heis.one()
    w = fock_half.monomial([("a", -2), ("a", -1)])
    assert fock_half.mode_action(one, -1, w) == w
    for k in (-3, -2, 0, 1, 5):
        assert fock_half.mode_action(one, k, w).is_zero()


def test_vacuum_axioms_bulk(heis, vir_half):
    stream = SampleStream(99)
    for module in (heis, vir_half):
        for _ in range(100):
            w = stream.monomial(module, 4)
            assert module.mode_action(module.one(), -1, w) == w
            k = stream.mode_index(-4, 4)
            if k != -1:
                assert module.mode_action(module.one(), k, w).is_zero()


@pytest.mark.parametrize("module", ["heis", "fock_half", "vir_half", "verma_ising", "vir_25"])
def test_vacuum_leaves_match_the_iterate_formula(module, request):
    """The vertex operator's closed-form leaves 1_(n) w and (a_(m)1)_(n) w,
    and every entry recursed down to them, equal a table that runs the
    iterate formula down to a plain vacuum bottom."""
    W = virasoro_voa(25) if module == "vir_25" else request.getfixturevalue(module)
    alg = W.algebra

    def vacuum(n, w_bv, d_out):
        return W.monomial(w_bv.modes) if n == -1 else W.zero()

    reference = ModeTable(alg, W, W, vacuum)
    us = [u for u in basis_window(alg, 6) if len(u.modes) <= 3]
    assert {len(u.modes) for u in us} == {0, 1, 2, 3}
    for u in us:
        for w in basis_window(W, 4):
            for n in range(-6, 6):
                assert W._modes.basis(u, n, w) == reference.basis(u, n, w), (u, n, w)


def test_vacuum_entries_are_never_stored(heis):
    """The closed-form leaves never ask for a mode of the vacuum itself."""
    F = FockModule(heis, Fraction(5, 2))  # not the registry's: a cold table
    w = F.monomial([("a", -2), ("a", -1)])
    assert F.mode_action(heis.omega(), 0, w)
    assert F.mode_action(heis.monomial([("a", -2), ("a", -1), ("a", -1)]), -1, w)
    keys = list(F._mode_cache)
    assert keys and all(u_bv.modes for u_bv, _, _ in keys)


def test_heisenberg_bracket(heis):
    alpha = heis.alpha()
    assert heis.mode_action(alpha, 1, alpha) == heis.one()
    assert heis.mode_action(alpha, 0, alpha).is_zero()


def test_omega_is_sugawara_on_fock(heis, fock_half, fock_one):
    """The iterate recursion for omega reproduces (1/2) sum :alpha alpha:."""
    omega = heis.omega()
    stream = SampleStream(5)
    for module in (fock_half, fock_one, heis):
        for _ in range(25):
            w = stream.monomial(module, 4)
            k = stream.mode_index(-3, 3)
            got = module.mode_action(omega, k + 1, w)  # Y_{k+1}(omega) = L(k)
            want = sugawara_mode(module, k, w)
            assert got == want, (module.module_id, k, w)


def test_fock_lowest_weight_eigenvalue(heis):
    omega = heis.omega()
    for lam in (Fraction(1, 2), Fraction(2), Fraction(-3, 2)):
        F = fock(lam)
        assert F.mode_action(omega, 1, F.lw()) == F.lw() * (lam * lam / 2)


def test_virasoro_central_term(vir_half):
    om = vir_half.omega()
    one = vir_half.one()
    # [L(2), L(-2)] 1 = (4 L(0) + c/2) 1 = c/2
    lhs = (vir_half.mode_action(om, 3, vir_half.mode_action(om, -1, one))
           - vir_half.mode_action(om, -1, vir_half.mode_action(om, 3, one)))
    assert lhs == one * Fraction(1, 4)


def test_commutator_named_cases(heis, vir_half):
    """The bracket of the conformal field with itself, in mode form."""
    alpha, omega = heis.alpha(), heis.omega()
    # the current's bracket is central on the vacuum
    assert commutator_check(heis, alpha, 1, alpha, -1, heis.one())
    # [L(-1), L(0)] = L(-1) read through modes (m, n) = (0, 1) of omega
    assert commutator_check(heis, omega, 0, omega, 1, alpha)
    # central term (c/12)(m^3 - m) visible at (m, n) = (2, -2), c = 1/2
    om = vir_half.omega()
    assert commutator_check(vir_half, om, 2, om, -2, vir_half.one())
    lhs = (vir_half.mode_action(om, 2, vir_half.mode_action(om, -2, vir_half.one()))
           - vir_half.mode_action(om, -2, vir_half.mode_action(om, 2, vir_half.one())))
    # modes Y_2, Y_-2 of omega are L(1), L(-3): [L(1), L(-3)] = 4 L(-2)
    assert lhs == vir_half.monomial([("L", -2)], 4)


def test_virasoro_l0_grading(vir_half, verma_ising):
    om = vir_half.omega()
    for module in (vir_half, verma_ising):
        stream = SampleStream(17)
        for _ in range(20):
            w = stream.monomial(module, 4)
            assert module.mode_action(om, 1, w) == w * w.weight()


def test_verma_sl2_relations(verma_ising):
    om = verma_ising.algebra.omega()
    v = verma_ising.lw()
    l_minus = verma_ising.mode_action(om, 0, v)       # L(-1) v
    back = verma_ising.mode_action(om, 2, l_minus)    # L(1) L(-1) v = 2h v
    assert back == v * Fraction(1, 8)
    assert verma_ising.mode_action(om, 2, v).is_zero()


@pytest.mark.parametrize("cstr", ["1/2", "1", "25"])
def test_commutator_formula_all_instances(cstr, heis, fock_half):
    vc = virasoro_voa(cstr)
    mv = verma(cstr, "1/16")
    stream = SampleStream(271)
    pairs = [(heis, heis), (heis, fock_half), (vc, vc), (vc, mv)]
    for alg, module in pairs:
        for _ in range(12):
            u = stream.homogeneous(alg, 3)
            v = stream.homogeneous(alg, 3)
            w = stream.monomial(module, 3)
            m = stream.mode_index(-3, 3)
            n = stream.mode_index(-3, 3)
            assert commutator_check(module, u, m, v, n, w)


def test_lower_truncation_scan(heis, fock_one, vir_half):
    stream = SampleStream(31)
    for module in (fock_one, vir_half):
        alg = module.algebra
        for _ in range(20):
            u = stream.monomial(alg, 3)
            w = stream.monomial(module, 3)
            bound = module.mode_vanishing_bound(u, w)
            # below the weight bound a mode lands at depth bound - 1 - n >= 0,
            # so the mode at bound - 1, when nonzero, lands at depth 0
            for n in range(bound - 4, bound):
                out = module.mode_action(u, n, w)
                assert {bv.depth for bv in out.terms} <= {bound - 1 - n}
            for n in range(bound, bound + 5):
                assert module.mode_action(u, n, w).is_zero()
    # a weight bound, not the smallest vanishing index: alpha(0) kills |0>
    zero_momentum = fock(0)
    assert zero_momentum.mode_vanishing_bound(heis.alpha(), zero_momentum.lw()) == 1
    assert zero_momentum.mode_action(heis.alpha(), 0, zero_momentum.lw()).is_zero()


def test_vanishing_bound_is_the_pairwise_maximum(heis, fock_one, verma_ising):
    """The bound is max depth of u plus max depth of w, which equals the
    maximum over every pair of terms of u_bv.depth - 1 + w_bv.depth, plus 1."""
    stream = SampleStream(17)
    multi = 0
    for module in (fock_one, verma_ising):
        alg = module.algebra
        for _ in range(20):
            u = stream.monomial(alg, 4) + stream.monomial(alg, 4) + stream.monomial(alg, 4)
            w = stream.monomial(module, 4) + stream.monomial(module, 4) * 2
            if u.is_zero() or w.is_zero():
                continue
            multi += len(u.terms) > 1 and len(w.terms) > 1
            pairwise = max(u_bv.depth - 1 + w_bv.depth
                           for u_bv in u.terms for w_bv in w.terms) + 1
            assert module.mode_vanishing_bound(u, w) == pairwise
    assert multi >= 20
    assert fock_one.mode_vanishing_bound(heis.alpha(), fock_one.lw() * 0) == 0


def test_unit_modes_are_shared_memo_entries_left_unchanged(heis, fock_one):
    """For unit basis vectors ``mode_action`` hands out the mode table's memo
    entry itself, so the vector arithmetic done on it must not edit it."""
    u = heis.monomial([("a", -1), ("a", -1)])
    w = fock_one.monomial([("a", -2), ("a", -1)])
    v = fock_one.mode_action(u, 1, w)
    assert v and v is fock_one.mode_action(u, 1, w)
    before = dict(v.terms)
    for other in (v + v, v - v, -v, v * 3, v * Fraction(1, 2), 2 * v,
                  fock_one.mode_action(heis.omega(), 0, v),
                  *v.homogeneous_components().values()):
        assert other.terms is not v.terms
    assert v.terms == before and v is fock_one.mode_action(u, 1, w)
    scaled = fock_one.mode_action(u * 2, 1, w)
    assert scaled == v * 2 and scaled is not v


def test_weight_bookkeeping(heis, fock_half):
    stream = SampleStream(41)
    for module in (heis, fock_half):
        for _ in range(30):
            u = stream.monomial(module.algebra, 3)
            w = stream.monomial(module, 3)
            n = stream.mode_index(-3, 3)
            out = module.mode_action(u, n, w)
            if not out.is_zero():
                assert out.is_homogeneous()
                assert out.weight() == u.weight() - n - 1 + w.weight()


def test_mode_cache_is_consistent(fock_one, heis):
    u = heis.monomial([("a", -2), ("a", -1)])
    w = fock_one.monomial([("a", -1)])
    first = fock_one.mode_action(u, 0, w)
    second = fock_one.mode_action(u, 0, w)
    assert first == second
    assert first is not None


def test_concurrent_mode_calls_return_identical_values(heis):
    """The memoizing oracle's contract: concurrent readers agree."""
    import concurrent.futures

    from voazhu.instances import fock
    F = fock("3/2")  # fresh module, cold cache
    u = heis.monomial([("a", -2), ("a", -1), ("a", -1)])
    jobs = [(n, F.monomial([("a", -d)] if d else []))
            for n in range(-3, 3) for d in (0, 1, 2, 3)]
    def run(job):
        n, w = job
        return repr(F.mode_action(u, n, w))
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(run, jobs * 4))
    serial = [repr(F.mode_action(u, n, w)) for n, w in jobs] * 4
    assert results == serial
