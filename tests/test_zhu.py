"""Level-N product, ideal windows, membership, and the bottom-slice action.

Expected values tagged as derived were computed with the series-based
residue oracle in oracles.py and frozen here.
"""

from fractions import Fraction

import pytest

from oracles import dense_rref, residue_oracle, star_oracle, ywv_residue_oracle
from voazhu import GradedVector
from voazhu.heisenberg import FockModule, HeisenbergVOA
from voazhu.instances import fock, heisenberg_voa, verma, virasoro_voa
from voazhu.intertwiner import TableIntertwiner, induced_hom
from voazhu.ops import ywv_mode
from voazhu.sampling import SampleStream
from voazhu.virasoro import VermaModule, VirasoroVOA
from voazhu.zhu import (certify_membership, circ_residue, lp_element,
                        circ_terms, o_action, omega0_basis, residue,
                        star_alt_terms, star_product, star_terms, zhu_context)

ALGEBRAS = {"heis": heisenberg_voa, "vir(1/2)": lambda: virasoro_voa("1/2"),
            "vir(25)": lambda: virasoro_voa(25)}


def test_star_unit_examples(heis):
    alpha = heis.alpha()
    assert star_product(heis, heis.one(), alpha, 0) == alpha
    assert star_product(heis, heis.one(), heis.one(), 3) == heis.one()
    assert star_product(heis, alpha, alpha, 0) == heis.monomial([("a", -1), ("a", -1)])


def test_star_matches_residue_oracle(heis, vir_half):
    stream = SampleStream(101)
    for alg in (heis, vir_half):
        for N in (0, 1, 2):
            for _ in range(10):
                u = stream.monomial(alg, 3)
                v = stream.monomial(alg, 3)
                assert star_product(alg, u, v, N) == star_oracle(alg, u, v, N)


def test_residue_evaluates_each_mode_once(heis, fock_one):
    """Terms that share a mode Y_k(u_d) w ask for it once; terms that cancel
    ask for nothing."""
    asked = []

    def counting(module, comp, k, w):
        asked.append((repr(comp), k))
        return module.mode_action(comp, k, w)

    u = heis.alpha() + heis.omega() + heis.monomial([("a", -3)])
    w = fock_one.monomial([("a", -1)])
    for N in (0, 1, 2):
        for terms in (star_terms(N), star_alt_terms(N) + [(1, -1, 0)]):
            asked.clear()
            got = residue(fock_one, u, w, terms, counting)
            assert asked and len(asked) == len(set(asked))
            want = fock_one.zero()
            for c, e, p in terms:
                want = want + residue_oracle(fock_one, u, w, e, p) * c
            assert got == want
    asked.clear()
    assert residue(fock_one, u, w, [(1, 1, -3), (-1, 1, -3)], counting).is_zero()
    assert asked == []


MODULES = {"heis": heisenberg_voa, "fock(1)": lambda: fock(1),
           "fock(1/2)": lambda: fock("1/2"), "verma(1/2,1/16)": lambda: verma("1/2", "1/16")}


def _composite(module, depths, coeffs):
    """sum of c times the first basis vector at each depth (depths without
    basis vectors are skipped): several terms of several weights."""
    out = module.zero()
    for d, c in zip(depths, coeffs):
        for bv in module.basis_at_depth(d)[:1]:
            out = out + GradedVector(module, {bv: c})
    return out


@pytest.mark.parametrize("name", sorted(MODULES))
def test_memoized_residue_matches_oracles_on_composites(name):
    """The residue of composite u and w, summed from the per-pair memo,
    equals the series oracles, for Y_W and for its Y_WV twin."""
    W = MODULES[name]()
    u = _composite(W.algebra, (1, 2, 3), (Fraction(1, 2), -3, 1))
    w = _composite(W, (0, 1, 2), (2, Fraction(-2, 3), 1))
    assert len(u.terms) >= 2 and len(w.terms) == 3
    for N in (0, 1, 2):
        for terms in (star_terms(N), star_alt_terms(N), circ_terms(N)):
            want, want_ywv = W.zero(), W.zero()
            for c, e, p in terms:
                want = want + residue_oracle(W, u, w, e, p) * c
                want_ywv = want_ywv + ywv_residue_oracle(W, w, u, e, p) * c
            for _ in range(2):   # a miss, then a hit on every pair
                assert residue(W, u, w, terms) == want
                assert residue(W, w, u, terms, ywv_mode) == want_ywv


def test_residue_memo_asks_nothing_on_a_repeat(heis, fock_one):
    """A second identical call, and a unit pair already summed inside a
    composite call, are read from the memo without asking ``mode``."""
    asked = []

    def counting(module, comp, k, w):
        asked.append((repr(comp), k))
        return module.mode_action(comp, k, w)

    u = heis.alpha() * 2 + heis.omega() + heis.monomial([("a", -3)])
    w = fock_one.lw() + fock_one.monomial([("a", -1)]) * Fraction(1, 3)
    first = residue(fock_one, u, w, star_terms(1), counting)
    assert asked
    asked.clear()
    assert residue(fock_one, u, w, star_terms(1), counting) == first
    unit_u, unit_w = heis.monomial([("a", -3)]), fock_one.monomial([("a", -1)])
    residue(fock_one, unit_u, unit_w, star_terms(1), counting)
    assert asked == []
    residue(fock_one, unit_u, unit_w, star_terms(2), counting)
    assert asked


def test_unit_residues_are_shared_memo_entries_left_unchanged(heis, fock_one):
    """For unit basis vectors ``residue`` hands out its memo entry itself,
    so the vector arithmetic done on it must not edit it."""
    u = heis.monomial([("a", -1), ("a", -1)])
    w = fock_one.monomial([("a", -2), ("a", -1)])
    v = residue(fock_one, u, w, star_terms(1))
    assert v and v is residue(fock_one, u, w, star_terms(1))
    before = dict(v.terms)
    for other in (v + v, v - v, -v, v * 3, v * Fraction(1, 2), 2 * v,
                  residue(fock_one, u, v, star_terms(1)),
                  *v.homogeneous_components().values()):
        assert other.terms is not v.terms
    assert v.terms == before and v is residue(fock_one, u, w, star_terms(1))
    scaled = residue(fock_one, u * 2, w, star_terms(1))
    assert scaled == v * 2 and scaled is not v and v.terms == before


def _circ_n(alg, u, v, N, n):
    """Res_x x^(-2N-1-n) Y((1+x)^(L(0)+N) u, x) v; ``circ_residue`` is n = 1."""
    return residue(alg, u, v, [(1, N, -2 * N - 1 - n)])


def _basis_vectors(alg, depths):
    return [GradedVector(alg, {bv: Fraction(1)})
            for d in depths for bv in alg.basis_at_depth(d)]


def test_circ_examples(heis):
    one = heis.one()
    alpha = heis.alpha()
    for n in (1, 2, 3):
        assert _circ_n(heis, one, one, 0, n).is_zero()
    # frozen from the residue oracle: Res_x x^-2 (1+x) Y(alpha,x) alpha
    got = circ_residue(heis, alpha, alpha, 0)
    assert got == residue_oracle(heis, alpha, alpha, 0, -2)
    assert got == _circ_n(heis, alpha, alpha, 0, 1)
    assert got == heis.monomial([("a", -2), ("a", -1)]) + heis.monomial([("a", -1), ("a", -1)])


def test_circ_top_weight(heis):
    stream = SampleStream(55)
    for N in (0, 1):
        for n in (1, 2):
            u = stream.monomial(heis, 3)
            v = stream.monomial(heis, 2)
            out = _circ_n(heis, u, v, N, n)
            if not out.is_zero():
                assert out.max_depth() == u.weight() + v.weight() + 2 * N + n


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_circ_l_minus_one_recursion(name):
    """circ_n(L(-1)u, v) = k circ_{n+1}(u, v) + (k - A - 1) circ_n(u, v) with
    k = 2N+1+n and A = wt u + N: Y(L(-1)u, x) = d/dx Y(u, x) integrated by
    parts.  So every n >= 2 residue is a combination of n = 1 residues."""
    alg = ALGEBRAS[name]()
    cases = 0
    for u in _basis_vectors(alg, (1, 2, 3)):
        du = alg.mode_action(alg.omega(), 0, u)
        for v in _basis_vectors(alg, (0, 1, 2)):
            for N in (0, 1, 2):
                for n in (1, 2, 3):
                    k, A = 2 * N + 1 + n, u.weight() + N
                    assert _circ_n(alg, du, v, N, n) == (
                        _circ_n(alg, u, v, N, n + 1) * Fraction(k)
                        + _circ_n(alg, u, v, N, n) * Fraction(k - A - 1))
                    cases += 1
    assert cases == (216 if name == "heis" else 36)


@pytest.mark.parametrize("name,N,D", [
    ("heis", 0, 8), ("heis", 1, 9), ("heis", 2, 10),
    ("vir(1/2)", 0, 8), ("vir(1/2)", 1, 9), ("vir(1/2)", 2, 10),
    ("vir(25)", 0, 8), ("vir(25)", 1, 9),
])
def test_deep_residues_lie_in_the_window(name, N, D):
    """Each n >= 2 residue that fits the depth-D window of O_N(V) reduces to
    zero there, though the window enumerates only the n = 1 residues."""
    alg = ALGEBRAS[name]()
    ctx = zhu_context(alg, N, D)
    for a in range(1, D + 1):
        for b in range(0, D - a + 1):
            # circ_n(u, v) tops out at depth wt u + depth v + 2N + n
            for n in range(2, D - a - b - 2 * N + 1):
                for u in _basis_vectors(alg, (a,)):
                    for v in _basis_vectors(alg, (b,)):
                        rep, cert = ctx.reduce(_circ_n(alg, u, v, N, n))
                        assert rep.is_zero() and cert.certified, (u, v, n)


def test_lp_element_example(heis):
    assert lp_element(heis, heis.alpha()) == (heis.monomial([("a", -2)])
                                              + heis.monomial([("a", -1)]))


def _lp_unmemoized(module, w):
    """(L(-1) + L(0)_s) w over the homogeneous components of w."""
    out = module.mode_action(module.algebra.omega(), 0, w)
    for wt, comp in w.homogeneous_components().items():
        out = out + comp * wt
    return out


@pytest.mark.parametrize("make", [
    lambda: FockModule(HeisenbergVOA(), Fraction(1, 2)),
    lambda: VermaModule(VirasoroVOA(Fraction(1, 2)), Fraction(1, 16)),
], ids=["fock(1/2)", "verma(1/2,1/16)"])
def test_lp_element_is_memoized_per_basis_vector(make):
    """A unit basis vector gets the memo entry itself, and every vector gets
    (L(-1) + L(0)_s) w, the memo entries left unchanged."""
    W = make()
    units = [GradedVector(W, {bv: 1}) for d in range(4) for bv in W.basis_at_depth(d)]
    entries = [lp_element(W, w) for w in units]
    before = [dict(v.terms) for v in entries]
    for w, v in zip(units, entries):
        assert v == _lp_unmemoized(W, w)
        assert lp_element(W, GradedVector(W, dict(w.terms))) is v
    x = units[0] * 3 - units[2] * Fraction(2, 7) + units[-1]
    assert lp_element(W, x) == _lp_unmemoized(W, x)
    assert lp_element(W, units[1] * 2) == entries[1] * 2
    assert [dict(v.terms) for v in entries] == before


def test_ideal_window_examples(heis):
    ctx2 = zhu_context(heis, 0, 2)
    assert ctx2.membership(lp_element(heis, heis.alpha())).certified
    ctx0 = zhu_context(heis, 0, 0)
    assert ctx0.subspace.rank == 0  # no generator fits in depth 0
    assert not ctx0.membership(heis.one()).certified


def test_identity_never_certified(heis, vir_half):
    for alg in (heis, vir_half):
        for N in (0, 1):
            for depth in (2, 5, 8):
                assert not zhu_context(alg, N, depth).membership(alg.one()).certified


def test_membership_zero_vector(heis):
    ctx = zhu_context(heis, 0, 4)
    z = star_product(heis, heis.alpha(), heis.alpha(), 0) * 0
    cert = ctx.membership(z)
    assert cert.certified and cert.witness == {}


def test_enumeration_order_independence(vir_half):
    """Span is enumeration-order independent: shuffled insertion gives the
    same rank and the two spans contain each other's generators."""
    import random
    ctx = zhu_context(vir_half, 0, 6)
    from voazhu.linalg import WindowSubspace
    shuffled = WindowSubspace(ctx.module, ctx.depth)
    gens = list(ctx.subspace.gens)
    random.Random(3).shuffle(gens)
    for g in gens:
        shuffled.add_generator(g)
    assert shuffled.rank == ctx.subspace.rank
    assert all(shuffled.reduce(g).is_zero() for g in ctx.subspace.gens)
    assert all(ctx.subspace.reduce(g).is_zero() for g in shuffled.gens)


def test_membership_monotone_in_window(heis):
    stream = SampleStream(77)
    for _ in range(10):
        u = stream.monomial(heis, 2)
        x = star_product(heis, heis.omega(), u, 0) - star_product(heis, u, heis.omega(), 0)
        small = zhu_context(heis, 0, max(4, x.max_depth())).membership(x)
        if small.certified:
            big = zhu_context(heis, 0, max(4, x.max_depth()) + 2).membership(x)
            assert big.certified


def test_unit_centrality_associativity_certified(heis, vir_half):
    stream = SampleStream(200)
    for alg in (heis, vir_half):
        for N in (0, 1):
            for _ in range(4):
                u = stream.monomial(alg, 3)
                v = stream.monomial(alg, 2)
                w = stream.monomial(alg, 2)
                one = alg.one()
                checks = [
                    star_product(alg, one, u, N) - u,
                    star_product(alg, u, one, N) - u,
                    star_product(alg, alg.omega(), u, N) - star_product(alg, u, alg.omega(), N),
                    star_product(alg, star_product(alg, u, v, N), w, N)
                    - star_product(alg, u, star_product(alg, v, w, N), N),
                ]
                # the defect's own depth certifies, with no deeper retry
                for defect in checks:
                    cert = certify_membership(alg, N, defect, defect.max_depth(), retries=())
                    assert cert.certified, (alg.module_id, N, defect)


def test_omega0_examples(fock_one, vir_half):
    from voazhu.instances import fock
    F = fock(2)
    assert [str(b) for b in omega0_basis(F, 0)] == ["lw"]
    assert len(omega0_basis(F, 2)) == 4
    names = [str(b) for b in omega0_basis(vir_half, 2)]
    assert names == ["lw", "L(-2)"]  # no depth-1 vector in the vacuum algebra


def _lowering_kernel_dims(module, depths):
    """dim of the common kernel of L(1), L(2), L(3) on each graded piece."""
    dims = []
    for d in depths:
        basis = module.basis_at_depth(d)
        rows: dict = {}
        for j, bv in enumerate(basis):
            for p in (1, 2, 3):
                out = module.gen_action("L", p, GradedVector(module, {bv: 1}))
                for bv2, c in out.terms.items():
                    rows.setdefault((p, bv2), {})[j] = c
        rank, _ = dense_rref(list(rows.values()), len(basis))
        dims.append(len(basis) - rank)
    return dims


def test_bottom_slice_is_the_slice_of_the_hom_space():
    """The bottom N+1 pieces, not the annihilator slice Omega_N, are the slice.

    On M(1/2, 1/16), h = h_{1,2}, the level-2 singular vector s is killed by
    every weight-lowering mode, so s lies in Omega_0; but s generates a
    proper submodule, so it is not in the A_0(V)-module the Verma module is
    induced from, and the bottom slice and the induced map both leave it
    out.  On the irreducible M(1/2, 1/3) the two slices agree at depths 1-3.
    """
    M = verma("1/2", "1/16")
    s = M.monomial([("L", -2)]) - M.monomial([("L", -1), ("L", -1)], Fraction(4, 3))
    assert M.gen_action("L", 1, s).is_zero() and M.gen_action("L", 2, s).is_zero()
    assert [str(b) for b in omega0_basis(M, 0)] == ["lw"]
    it = TableIntertwiner(M, M, M, {}, log_bound=0)
    with pytest.raises(ValueError):
        induced_hom(it, 0, M.lw(), s)
    assert _lowering_kernel_dims(M, (1, 2, 3)) == [0, 1, 0]
    assert _lowering_kernel_dims(verma("1/2", "1/3"), (1, 2, 3)) == [0, 0, 0]


def test_o_action_examples(heis, fock_one):
    assert o_action(fock_one, heis.one(), fock_one.monomial([("a", -1)])) \
        == fock_one.monomial([("a", -1)])
    for lam in (Fraction(1), Fraction(1, 2)):
        from voazhu.instances import fock
        F = fock(lam)
        assert o_action(F, heis.omega(), F.lw()) == F.lw() * (lam * lam / 2)


def test_o_action_module_property(heis, fock_one):
    alpha = heis.alpha()
    w = fock_one.lw()
    lhs = o_action(fock_one, star_product(heis, alpha, alpha, 0), w)
    rhs = o_action(fock_one, alpha, o_action(fock_one, alpha, w))
    assert lhs == rhs == w  # momentum 1: alpha(0)^2 = 1


def test_o_action_bracket_property(heis, vir_half, fock_half, verma_ising):
    stream = SampleStream(404)
    for module in (fock_half, verma_ising):
        alg = module.algebra
        for N in (0, 1, 2):
            basis = omega0_basis(module, N)
            for k in range(8):
                u = stream.monomial(alg, 3)
                v = stream.monomial(alg, 3)
                w = GradedVector(module, {basis[k % len(basis)]: Fraction(1)})
                uv = star_product(alg, u, v, N)
                vu = star_product(alg, v, u, N)
                assert o_action(module, uv, w) == o_action(module, u, o_action(module, v, w))
                assert (o_action(module, u, o_action(module, v, w))
                        - o_action(module, v, o_action(module, u, w))
                        == o_action(module, uv - vu, w))


def test_quotient_dims_reported_as_upper_bounds(heis):
    ctx = zhu_context(heis, 0, 4)
    dims = ctx.quotient_dims()
    assert dims[0] == 1  # the vacuum class survives
    assert all(d >= 0 for d in dims)


def test_context_star_window_overflow(heis):
    from voazhu.errors import WindowOverflowError
    ctx = zhu_context(heis, 0, 2)
    u = heis.monomial([("a", -2)])
    uu = star_product(heis, u, u, 0)
    with pytest.raises(WindowOverflowError):
        ctx.membership(uu)  # top weight 4 escapes the depth-2 window
    # the ladder reads an overflow as Inconclusive at that depth
    cert = certify_membership(heis, 0, uu, 2, retries=())
    assert not cert.certified and cert.window_depth == 2
    inside = star_product(heis, heis.one(), u, 0)
    assert inside == u and ctx.subspace.row_of(inside)  # in-window products fit


def test_context_circ_generator_shape(heis):
    ctx = zhu_context(heis, 0, 6)
    g = circ_residue(heis, heis.alpha(), heis.alpha(), 0)
    assert g.max_depth() == 1 + 1 + 0 + 1
    assert ctx.membership(g).certified  # generators certify against their own span


def test_tight_a0_bounds(heis, vir_half):
    """The depth-10 windows meet the known dimensions of A_0, so the upper
    bounds are tight: A_0(M(1)) = C[x] with wt x = 1 (Frenkel-Zhu 1992) and
    A_0(V_c) = C[x] with wt x = 2 (Wang 1993)."""
    assert zhu_context(heis, 0, 10).quotient_dims() == [1] * 11
    assert zhu_context(vir_half, 0, 10).quotient_dims() == [1, 0] * 5 + [1]
