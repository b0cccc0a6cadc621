"""Scalar types through the mode engine: module parameters stay Fraction,
every computed coefficient is an int when integral and a Fraction
otherwise, and no float or bool ever appears."""

from fractions import Fraction

from voazhu import instances
from voazhu.instances import fock, heisenberg_voa, verma, virasoro_voa
from voazhu.intertwiner import FockIntertwiner
from voazhu.modules import basis_window
from voazhu.zhu import lp_element, residue, star_terms


def _canonical(c) -> bool:
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def _unit_vectors(module, depth):
    return [module.monomial(bv.modes) for bv in basis_window(module, depth)]


def test_module_parameters_stay_fractions():
    V = heisenberg_voa()
    it = FockIntertwiner(V, 1, 2)
    mods = [V, fock(1), fock(Fraction(1, 2)), virasoro_voa(Fraction(1, 2)),
            verma(Fraction(1, 2), Fraction(1, 16)), it.w1_module, it.w2_module, it.w3_module]
    for m in mods:
        assert type(m.lowest_weight) is Fraction, m
    for m in (fock(1), fock(Fraction(1, 2)), it.w3_module):
        assert type(m.momentum) is Fraction, m
    assert type(verma(Fraction(1, 2), Fraction(1, 16)).h) is Fraction
    for alg in (V, virasoro_voa(Fraction(1, 2))):
        assert type(alg.central_charge) is Fraction
    assert type(it.lam) is Fraction and type(it.mu) is Fraction
    for key in instances._registry:
        assert all(type(x) is Fraction for x in key[1:]), key
    # lambda^2 / 2 and lambda / t stay exact rationals
    assert fock(1).lowest_weight == Fraction(1, 2)
    assert fock(Fraction(1, 2)).lowest_weight == Fraction(1, 8)


def test_computed_coefficients_are_int_or_fraction():
    V, vir = heisenberg_voa(), virasoro_voa(Fraction(1, 2))
    it = FockIntertwiner(V, 1, 2)
    cases = [(V, fock(1)), (V, fock(Fraction(1, 2))),
             (vir, verma(Fraction(1, 2), Fraction(1, 16))), (vir, vir)]
    seen = 0
    for alg, module in cases:
        us, ws = _unit_vectors(alg, 3), _unit_vectors(module, 2)
        for u in us:
            for w in ws:
                outs = [module.mode_action(u, n, w) for n in range(-2, 3)]
                outs.append(residue(module, u, w, star_terms(1)))
                for out in outs:
                    assert all(_canonical(c) for c in out.terms.values()), out
                    seen += len(out.terms)
        for w in ws:
            out = lp_element(module, w)
            assert all(_canonical(c) for c in out.terms.values()), out
    for w1 in _unit_vectors(it.w1_module, 2):
        for w2 in _unit_vectors(it.w2_module, 2):
            top = it.leading_index(w1, w2)
            for n in range(4):
                out = it.mode(w1, top - n, 0, w2)
                assert all(_canonical(c) for c in out.terms.values()), out
                seen += len(out.terms)
    assert seen > 1000
