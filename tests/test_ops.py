"""Opposite operator, contragredient pairing, module-to-algebra operator,
and grading-marker conjugation."""

from fractions import Fraction

import pytest

from oracles import ywv_series_oracle
from voazhu.instances import fock, verma, virasoro_voa
from voazhu.ops import (DualVector, contragredient_mode,
                        contragredient_pairing_check, l0s_conjugation_check,
                        opposite_mode, ywv_mode)
from voazhu.sampling import SampleStream


def test_opposite_vacuum_identity(heis, fock_half):
    w = fock_half.monomial([("a", -2)])
    assert opposite_mode(fock_half, heis.one(), -1, w) == w
    assert opposite_mode(fock_half, heis.one(), 0, w).is_zero()


def test_opposite_weight_one_primary(heis, fock_half):
    alpha = heis.alpha()
    stream = SampleStream(8)
    for _ in range(15):
        w = stream.monomial(fock_half, 3)
        n = stream.mode_index(-3, 3)
        assert (opposite_mode(fock_half, alpha, n, w)
                == fock_half.mode_action(alpha, -n, w) * (-1))


def test_opposite_omega_gives_reversed_virasoro(heis, fock_one):
    omega = heis.omega()
    stream = SampleStream(9)
    for _ in range(15):
        w = stream.monomial(fock_one, 3)
        n = stream.mode_index(-2, 2)
        # L'(n) pairing partner: (Y^o)_{n+1}(omega) = L(-n)
        assert (opposite_mode(fock_one, omega, n + 1, w)
                == fock_one.mode_action(omega, 1 - n, w))


def test_contragredient_pairing(heis, fock_half):
    alpha, omega = heis.alpha(), heis.omega()
    assert contragredient_pairing_check(
        fock_half, heis.one(), -1,
        DualVector(fock_half, {fock_half.basis_vector([("a", -1)]): Fraction(1)}),
        fock_half.monomial([("a", -1)]))
    # L'(0) against L(0) on the lowest weight vector
    wp = DualVector(fock_half, {fock_half.basis_vector([]): Fraction(1)})
    assert contragredient_pairing_check(fock_half, omega, 1, wp, fock_half.lw())
    # depth-2 window, weight-1 generator
    wp2 = DualVector(fock_half, {fock_half.basis_vector([("a", -2)]): Fraction(3),
                                 fock_half.basis_vector([("a", -1), ("a", -1)]): Fraction(-1)})
    for n in (-2, -1, 0, 1, 2):
        for w in (fock_half.monomial([("a", -1)]), fock_half.lw(),
                  fock_half.monomial([("a", -3)])):
            assert contragredient_pairing_check(fock_half, alpha, n, wp2, w,
                                                window_depth=4)


def test_contragredient_mode_weight_shift(heis, fock_half):
    """(Y')_n(v) moves a dual functional by wt v - n - 1, like a module mode."""
    alpha = heis.alpha()
    wp = DualVector(fock_half, {fock_half.basis_vector([("a", -1)]): Fraction(1)})
    out = contragredient_mode(fock_half, alpha, 0, wp, window_depth=4)
    depths = {bv.depth for bv in out.coords}
    assert depths <= {1 - 0}  # shift wt alpha - n - 1 = 0 applied to depth 1


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


def test_opposite_operators_form_a_module(heis, fock_half, vir_half, verma_ising):
    """Transposing the defining pairing, the contragredient being a module
    is equivalent to the *reversed* commutator identity

        [(Y^o)_n(v), (Y^o)_m(u)] w = sum_j C(m,j) (Y^o)_{m+n-j}(Y_j(u)v) w

    holding on W.  This exercises the e^{xL(1)} corrections: alpha(-2)1 and
    L(-3)1 are not primary."""
    from voazhu.formal import binom
    from fractions import Fraction as Fr
    cases = [
        (fock_half, heis.monomial([("a", -2)]), heis.alpha()),
        (fock_half, heis.omega(), heis.monomial([("a", -2)])),
        (verma_ising, vir_half.monomial([("L", -3)]), vir_half.omega()),
    ]
    stream = SampleStream(19)
    for module, u, v in cases:
        alg = module.algebra
        for _ in range(6):
            w = stream.monomial(module, 3)
            m = stream.mode_index(-2, 2)
            n = stream.mode_index(-2, 2)
            lhs = (opposite_mode(module, v, n, opposite_mode(module, u, m, w))
                   - opposite_mode(module, u, m, opposite_mode(module, v, n, w)))
            rhs = module.zero()
            for j in range(alg.mode_vanishing_bound(u, v)):
                c = binom(Fr(m), j)
                if c == 0:
                    continue
                uv = alg.mode_action(u, j, v)
                if uv.is_zero():
                    continue
                rhs = rhs + opposite_mode(module, uv, m + n - j, w) * c
            assert lhs == rhs, (module.module_id, m, n)


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


def test_l0s_conjugation(heis, fock_half, vir_half):
    alpha, omega = heis.alpha(), heis.omega()
    assert l0s_conjugation_check(fock_half, alpha, 0,
                                 fock_half.monomial([("a", -1)]) + fock_half.lw() * 3)
    assert l0s_conjugation_check(fock_half, omega, 0, fock_half.monomial([("a", -2)]))
    assert l0s_conjugation_check(vir_half, vir_half.omega(), 1,
                                 vir_half.monomial([("L", -2)]))
    stream = SampleStream(14)
    for _ in range(15):
        u = stream.monomial(heis, 3)
        w = stream.homogeneous(fock_half, 3) + stream.monomial(fock_half, 2)
        n = stream.mode_index(-3, 3)
        assert l0s_conjugation_check(fock_half, u, n, w)
