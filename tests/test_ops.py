"""The module-to-algebra operator Y_WV."""

from fractions import Fraction

import pytest

from oracles import ywv_series_oracle
from voazhu.instances import fock, verma, virasoro_voa
from voazhu.ops import ywv_mode
from voazhu.sampling import SampleStream


def test_ywv_vacuum_insertion(heis, fock_half):
    one = heis.one()
    assert ywv_mode(fock_half, fock_half.lw(), -1, one) == fock_half.lw()
    got = ywv_mode(fock_half, fock_half.lw(), -2, one)
    omega = heis.omega()
    assert got == fock_half.mode_action(omega, 0, fock_half.lw())
    for n in (0, 1, 2):
        assert ywv_mode(fock_half, fock_half.lw(), n, one).is_zero()


def test_ywv_skew_symmetry_on_algebra(heis, vir_half):
    # V as a module over itself: Y(1, x) u = u at the creation mode
    u = heis.monomial([("a", -2), ("a", -1)])
    assert ywv_mode(heis, heis.one(), -1, u) == u
    alpha = heis.alpha()
    assert ywv_mode(heis, alpha, -2, heis.one()) == heis.monomial([("a", -2)])
    # skew symmetry: e^{xL(-1)} Y(u, -x) v = Y(v, x) u, so Y_VV is Y
    stream = SampleStream(15)
    for alg in (heis, vir_half, virasoro_voa(1)):
        for _ in range(60):
            v = stream.homogeneous(alg, 3)
            u = stream.homogeneous(alg, 3)
            n = stream.mode_index(-4, 4)
            assert ywv_mode(alg, v, n, u) == alg.mode_action(v, n, u), (alg.module_id, n)


def test_ywv_matches_series_oracle(heis, fock_one, fock_half, vir_half, verma_ising):
    """Random homogeneous pairs at depth <= 4 and n in -4..7, and first
    arguments L(-1)^k lw (iterate-formula index m = 0 on a Verma module),
    against the explicit series expansion of e^{xL(-1)} Y(u,-x) w."""
    stream = SampleStream(12)
    modules = (fock_one, fock_half, fock(0), heis, verma_ising, verma(1, Fraction(1, 4)))
    for module in modules:
        alg = module.algebra
        for _ in range(34):
            w = stream.monomial(module, 4)
            u = stream.monomial(alg, 4)
            n = stream.mode_index(-4, 7)
            assert ywv_mode(module, w, n, u) == ywv_series_oracle(module, w, u, n)
        w = module.lw()
        for k in range(4):
            u = stream.homogeneous(alg, 3)
            for n in range(-4, 8):
                assert ywv_mode(module, w, n, u) == ywv_series_oracle(module, w, u, n)
            w = module.mode_action(alg.omega(), 0, w)


def test_half_integer_index_raises(heis, fock_one):
    alpha, lw = heis.alpha(), fock_one.lw()
    for n in (Fraction(1, 2), Fraction(-1, 2)):
        with pytest.raises(ValueError, match="exponent coset"):
            fock_one.mode_action(alpha, n, lw)
        with pytest.raises(ValueError, match="exponent coset"):
            ywv_mode(fock_one, lw, n, alpha)


def test_ywv_weight_bookkeeping(heis, fock_half):
    stream = SampleStream(13)
    for _ in range(20):
        w = stream.monomial(fock_half, 3)
        u = stream.monomial(heis, 3)
        n = stream.mode_index(-4, 2)
        out = ywv_mode(fock_half, w, n, u)
        if not out.is_zero():
            assert out.weight() == w.weight() - n - 1 + u.weight()


def test_ywv_intertwining_commutator(heis, fock_one, vir_half, verma_ising):
    """The module-to-algebra operator is an intertwining operator: its
    modes satisfy

        Y_m(u) ywv_n(w) v - ywv_n(w) Y_m(u) v
            = sum_j C(m,j) ywv_{m+n-j}(Y_j(u) w) v

    with the inner action on the first slot being the module action."""
    from voazhu.formal import binom
    from fractions import Fraction as Fr
    stream = SampleStream(21)
    for module in (fock_one, verma_ising):
        alg = module.algebra
        for _ in range(12):
            u = stream.monomial(alg, 2)
            v = stream.monomial(alg, 2)
            w = stream.monomial(module, 2)
            m = stream.mode_index(-2, 2)
            n = stream.mode_index(-3, 2)
            lhs = (module.mode_action(u, m, ywv_mode(module, w, n, v))
                   - ywv_mode(module, w, n, alg.mode_action(u, m, v)))
            rhs = module.zero()
            for j in range(module.mode_vanishing_bound(u, w)):
                c = binom(Fr(m), j)
                if c == 0:
                    continue
                uw = module.mode_action(u, j, w)
                if uw.is_zero():
                    continue
                rhs = rhs + ywv_mode(module, uw, m + n - j, v) * c
            assert lhs == rhs, (module.module_id, m, n)
