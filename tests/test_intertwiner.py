"""The free-boson operator, synthetic log tables, and the induced map."""

from fractions import Fraction

import pytest

from oracles import LogLaurent, exponential_fock_table
from voazhu import GradedVector, binom
from voazhu.bimodule import circ_w
from voazhu.errors import DepthExceededError
from voazhu.heisenberg import HeisenbergVOA
from voazhu.instances import fock, heisenberg_voa
from voazhu.intertwiner import (FockIntertwiner, TableIntertwiner,
                                check_derivative_rule, check_hom_properties,
                                induced_hom, y0_part)
from voazhu.modules import basis_window
from voazhu.sampling import SampleStream
from voazhu.zhu import omega0_basis


@pytest.fixture(scope="module")
def it12():
    return FockIntertwiner(heisenberg_voa(), 1, 2)


def test_leading_mode(it12):
    lead = it12.mode(it12.w1_module.lw(), -Fraction(2) - 1, 0, it12.w2_module.lw())
    assert lead == it12.w3_module.lw()
    for extra in range(1, 21):  # scan 20 indices above the leading one
        assert it12.mode(it12.w1_module.lw(), -Fraction(2) - 1 + extra, 0,
                         it12.w2_module.lw()).is_zero()
    w1 = it12.w1_module.monomial([("a", -2)])
    w2 = it12.w2_module.monomial([("a", -1)])
    top = it12.leading_index(w1, w2)
    for extra in range(1, 21):
        assert it12.mode(w1, top + extra, 0, w2).is_zero()


def test_leading_index_helper(it12):
    n = it12.leading_index(it12.w1_module.lw(), it12.w2_module.lw())
    assert n == -Fraction(2) - 1
    assert not it12.mode(it12.w1_module.lw(), n, 0, it12.w2_module.lw()).is_zero()


def test_wrong_coset_rejected(it12):
    with pytest.raises(ValueError):
        it12.mode(it12.w1_module.lw(), Fraction(1, 3), 0, it12.w2_module.lw())
    # exponents of F_1/2 x F_1/2 -> F_1 lie in -1/4 + Z, for composite w1 too
    half = FockIntertwiner(heisenberg_voa(), Fraction(1, 2), Fraction(1, 2))
    w1 = half.w1_module.monomial([("a", -2), ("a", -1)])
    with pytest.raises(ValueError, match=r"exponent coset -1/4 \+ Z"):
        half.mode(w1, 0, 0, half.w2_module.lw())


def test_log_modes_vanish(it12):
    assert it12.mode(it12.w1_module.lw(), -3, 1, it12.w2_module.lw()).is_zero()
    assert it12.log_bound == 0


def test_degenerate_momentum_zero_is_module_operator():
    V = heisenberg_voa()
    it = FockIntertwiner(V, 0, 3)
    F3 = fock(3)
    w2 = F3.monomial([("a", -1)])
    # w1 = lowest weight vector of F_0 acts like the vacuum: identity at -1
    assert it.mode(it.w1_module.lw(), -1, 0, w2) == w2
    assert it.mode(it.w1_module.lw(), 0, 0, w2).is_zero()
    # F_0 is V, so every mode is F_3's own vertex operator: the intertwiner
    # and module paths through the iterate formula must agree
    cases = 0
    for w1_bv in basis_window(it.w1_module, 3):
        u = V.monomial(w1_bv.modes)
        for w2_bv in basis_window(F3, 2):
            w2 = GradedVector(F3, {w2_bv: Fraction(1)})
            for n in range(-4, 4):
                got = it.tables[0].basis(w1_bv, Fraction(n), w2_bv)
                assert got == F3.mode_action(u, n, w2), (w1_bv, n, w2_bv)
                cases += 1
    assert cases == 224


@pytest.mark.parametrize("lam, mu", [(Fraction(1), Fraction(2)),
                                     (Fraction(1, 2), Fraction(1, 2))],
                         ids=["1-2", "half-half"])
def test_intertwiner_commutator_identity(lam, mu):
    """[Y_m(u), Y_n(w1)] = sum_j C(m,j) Y_{m+n-j}(Y_j(u) w1) for u = alpha,
    with n in the exponent coset -lam*mu + Z (non-integral for 1/2, 1/2)."""
    V = heisenberg_voa()
    alpha = V.alpha()
    it = FockIntertwiner(V, lam, mu)
    F1, F2, F3 = it.w1_module, it.w2_module, it.w3_module
    stream = SampleStream(301)
    for _ in range(100):
        w1 = stream.monomial(F1, 3)
        w2 = stream.monomial(F2, 3)
        m = stream.mode_index(-3, 3)
        n = -lam * mu + stream.mode_index(-3, 3)
        lhs = (F3.mode_action(alpha, m, it.mode(w1, n, 0, w2))
               - it.mode(w1, n, 0, F2.mode_action(alpha, m, w2)))
        rhs = F3.zero()
        for j in range(0, w1.max_depth() + 2):
            c = binom(Fraction(m), j)
            if c == 0:
                continue
            yju = F1.mode_action(alpha, j, w1)
            if yju.is_zero():
                continue
            rhs = rhs + it.mode(yju, m + n - j, 0, w2) * c
        assert lhs == rhs


@pytest.mark.parametrize("lam, mu", [(Fraction(1), Fraction(2)),
                                     (Fraction(1, 2), Fraction(1, 2)),
                                     (Fraction(2), Fraction(-1, 3))],
                         ids=["1-2", "half-half", "2-minus-third"])
def test_modes_match_the_exponential_expansion(lam, mu):
    """Every mode against the textbook E_-(lam,x) E_+(lam,x) partition
    expansion: w1 of depth <= 3, w2 of depth <= 4, the 7 highest indices."""
    it = FockIntertwiner(heisenberg_voa(), lam, mu)
    oracle = exponential_fock_table(lam, mu)
    F1, F2 = it.w1_module, it.w2_module
    cases = 0
    for w1_bv in basis_window(F1, 3):
        w1 = GradedVector(F1, {w1_bv: Fraction(1)})
        for w2_bv in basis_window(F2, 4):
            w2 = GradedVector(F2, {w2_bv: Fraction(1)})
            top = it.leading_index(w1, w2)
            for below in range(7):
                got = it.mode(w1, top - below, 0, w2)
                assert got == oracle.apply(w1, top - below, w2), (w1_bv, below, w2_bv)
                cases += 1
    assert cases == 7 * 12 * 7


def test_derivative_rule_fock(it12):
    stream = SampleStream(302)
    for _ in range(30):
        w1 = stream.monomial(it12.w1_module, 2)
        w2 = stream.monomial(it12.w2_module, 2)
        n = -Fraction(2) + stream.mode_index(-3, 3)
        assert check_derivative_rule(it12, w1, n, 0, w2)
    # n = 0 component: the first right-hand term drops out
    it03 = FockIntertwiner(heisenberg_voa(), 0, 3)
    assert check_derivative_rule(it03, it03.w1_module.lw(), 0, 0, it03.w2_module.lw())


def test_derivative_rule_against_formal_differentiation():
    """Re-derive the mode rule by differentiating x^(-n-1) (log x)^k."""
    series = LogLaurent({(Fraction(5, 2), 0): Fraction(3), (Fraction(5, 2), 1): Fraction(2),
                         (Fraction(3, 2), 2): Fraction(-1)})
    deriv = series.differentiate()
    for (n, k), _ in series.coeffs.items():
        # the rule says: coefficient at (n+1, k) of the derivative is
        # -(n+1) c_{n,k} + (k+1) c_{n,k+1}
        got = deriv.coefficient(n + 1, k)
        want = -(n + 1) * series.coefficient(n, k) + (k + 1) * series.coefficient(n, k + 1)
        assert got == want


def test_derivative_rule_applied_twice(it12):
    V = heisenberg_voa()
    omega = V.omega()
    F1 = it12.w1_module
    w1 = F1.monomial([("a", -1)])
    w2 = it12.w2_module.lw()
    l1 = F1.mode_action(omega, 0, w1)
    n = -Fraction(2) - 1
    assert check_derivative_rule(it12, w1, n, 0, w2)
    assert check_derivative_rule(it12, l1, n, 0, w2)
    lhs = it12.mode(F1.mode_action(omega, 0, l1), n, 0, w2)
    rhs = (it12.mode(l1, n - 1, 0, w2) * (-n))
    assert lhs == rhs


def test_synthetic_log_table_satisfies_rule(verma_ising):
    """A finite k > 0 mode table built from the rule passes the checker."""
    M = verma_ising
    om = M.algebra.omega()
    lw = M.lw()
    l1 = M.mode_action(om, 0, lw)  # L(-1) lw, a basis vector
    lw_bv = M.basis_vector([])
    l1_bv = M.basis_vector([("L", -1)])
    table = {}
    base = {(Fraction(-1), 0): M.monomial([("L", -1)], 2),
            (Fraction(-1), 1): M.monomial([("L", -1)], 1),
            (Fraction(-2), 0): M.monomial([("L", -2)], 5),
            (Fraction(-2), 1): M.monomial([("L", -1), ("L", -1)], 3)}
    for (n, k), vec in base.items():
        table[(lw_bv, n, k, lw_bv)] = vec
    # define modes of L(-1)lw through the derivative rule, so it holds
    for n in [Fraction(-1), Fraction(0), Fraction(-2)]:
        for k in (0, 1):
            prev = table.get((lw_bv, n - 1, k, lw_bv), M.zero())
            nxt = table.get((lw_bv, n - 1, k + 1, lw_bv), M.zero())
            val = prev * (-n) + nxt * (k + 1)
            if not val.is_zero():
                table[(l1_bv, n, k, lw_bv)] = val
    it = TableIntertwiner(M, M, M, table, log_bound=1)
    for n in [Fraction(-1), Fraction(0), Fraction(-2)]:
        for k in (0, 1):
            assert check_derivative_rule(it, lw, n, k, lw)
    # log-power bound enforced
    assert it.mode(lw, Fraction(-1), 2, lw).is_zero()
    with pytest.raises(ValueError):
        TableIntertwiner(M, M, M, {(lw_bv, Fraction(0), 3, lw_bv): M.lw()}, log_bound=1)
    # a negative log power is rejected too, not stored where no mode reads it
    with pytest.raises(ValueError):
        TableIntertwiner(M, M, M, {(lw_bv, Fraction(0), -1, lw_bv): M.lw()}, log_bound=1)


def test_y0_part(it12, verma_ising):
    assert y0_part(it12) is it12  # already log free
    M = verma_ising
    lw_bv = M.basis_vector([])
    table = {(lw_bv, Fraction(-1), 0, lw_bv): M.lw() * 2,
             (lw_bv, Fraction(-1), 1, lw_bv): M.lw() * 7}
    it = TableIntertwiner(M, M, M, table, log_bound=1)
    restricted = y0_part(it)
    assert restricted.mode(M.lw(), Fraction(-1), 0, M.lw()) == M.lw() * 2
    assert restricted.mode(M.lw(), Fraction(-1), 1, M.lw()).is_zero()
    assert y0_part(restricted) is restricted  # idempotent


def test_modules_come_from_the_registry(it12):
    """The operator reads the very instances that own the fusion windows."""
    assert it12.w1_module is fock(1)
    assert it12.w2_module is fock(2)
    assert it12.w3_module is fock(3)
    assert fock(1) is fock(Fraction(1)) is fock("1")


def test_algebra_outside_the_registry_rejected():
    with pytest.raises(ValueError):
        FockIntertwiner(HeisenbergVOA(), 1, 2)


def test_depth_guard():
    it = FockIntertwiner(heisenberg_voa(), 1, 2)
    it.tables[0].depth_max = 3
    with pytest.raises(DepthExceededError):
        it.mode(it.w1_module.lw(), -Fraction(2) - 1 - 6, 0, it.w2_module.lw())
    # a composite first argument a(-1)|lam> meets the same bound (output depth 7)
    with pytest.raises(DepthExceededError):
        it.mode(it.w1_module.monomial([("a", -1)]), -9, 0, it.w2_module.lw())


def test_induced_hom_examples(it12):
    for N in (0, 1):
        out = induced_hom(it12, N, it12.w1_module.lw(), it12.w2_module.lw())
        assert out.coefficient(it12.w3_module.basis_vector([])) == 1
        assert out.max_depth() <= N
    with pytest.raises(ValueError):
        induced_hom(it12, 0, it12.w1_module.lw(),
                    it12.w2_module.monomial([("a", -1)]))


def test_induced_hom_kills_residue_family(it12):
    V = heisenberg_voa()
    stream = SampleStream(303)
    F1, F2 = it12.w1_module, it12.w2_module
    for N in (0, 1):
        b2 = omega0_basis(F2, N)
        for k in range(25):
            u = stream.monomial(V, 3)
            w = stream.monomial(F1, 3)
            w2 = GradedVector(F2, {b2[k % len(b2)]: Fraction(1)})
            gen = circ_w(F1, u, w, N)
            assert induced_hom(it12, N, gen, w2).is_zero()


def test_hom_properties_three_instances():
    V = heisenberg_voa()
    stream = SampleStream(304)
    for lam, mu in ((Fraction(1), Fraction(2)), (Fraction(1, 2), Fraction(1, 2)),
                    (Fraction(0), Fraction(3))):
        it = FockIntertwiner(V, lam, mu)
        for N in (0, 1):
            b2 = omega0_basis(it.w2_module, N)
            for k in range(10):
                u = stream.monomial(V, 3)
                w1 = stream.monomial(it.w1_module, 3)
                w2 = GradedVector(it.w2_module, {b2[k % len(b2)]: Fraction(1)})
                res = check_hom_properties(it, N, u, w1, w2)
                assert res["left"] and res["right"], (lam, mu, N, u, w1)


def test_injectivity_smoke():
    V = heisenberg_voa()
    for lam, mu in ((1, 2), ("1/2", "1/2"), (0, 3)):
        it = FockIntertwiner(V, lam, mu)
        assert not induced_hom(it, 0, it.w1_module.lw(), it.w2_module.lw()).is_zero()
