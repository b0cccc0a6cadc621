"""Scalar types through the mode engine: module parameters stay Fraction,
every computed coefficient is an int when integral and a Fraction
otherwise, and no float or bool ever appears."""

from fractions import Fraction

from voazhu import instances
from voazhu.basis import GradedVector, Sum
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


def test_vector_arithmetic_keeps_scalars_canonical():
    """Sums, negation, products and ``Sum`` store an int wherever a
    value is integral, also when two Fractions sum to an integer."""
    W = fock(Fraction(1, 2))
    a, b, c = basis_window(W, 2)[:3]
    x = GradedVector(W, {a: Fraction(1, 3), b: Fraction(1, 2), c: 2})
    y = GradedVector(W, {a: Fraction(2, 3), b: 1, c: Fraction(-2)})
    total = x + y
    assert total.terms == {a: 1, b: Fraction(3, 2)}
    assert type(total.terms[a]) is int
    assert (x - x).terms == {} and (x + (-x)).terms == {}
    scaled = [x * 6, 6 * x, x * Fraction(3, 2), x * "4/3", x * Fraction(6, 1), -x, x * 0]
    assert scaled[0].terms == {a: 2, b: 3, c: 12}
    assert scaled[3].terms == {a: Fraction(4, 9), b: Fraction(2, 3), c: Fraction(8, 3)}
    assert scaled[6].terms == {}
    acc = Sum()
    acc.add(x, 3)                 # 1, 3/2, 6
    acc.add(y, Fraction(3, 2))    # + 1, 3/2, -3
    assert acc.terms() == {a: 2, b: 3, c: 3}
    acc.add(x, Fraction(-3, 2))   # - 1/2, 3/4, 3
    assert acc.terms() == {a: Fraction(3, 2), b: Fraction(9, 4)}
    acc.add(y, Fraction(3, 4))    # + 1/2, 3/4, -3/2
    assert acc.terms() == {a: 2, b: 3, c: Fraction(-3, 2)}
    for out in [total, -total, *scaled, GradedVector(W, acc.terms())]:
        assert all(_canonical(v) for v in out.terms.values()), out
    assert all(_canonical(v) for v in acc.terms().values()), acc.terms()
