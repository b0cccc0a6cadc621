from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voazhu.formal import BivariatePoly, LaurentPoly, binom, binom_poly

rationals = st.fractions(min_value=-40, max_value=40, max_denominator=12)


def test_binom_examples():
    assert binom(-2, 3) == -4
    assert binom(5, 0) == 1
    assert binom(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert binom(Fraction(3, 2), 2) == Fraction(3, 8)
    assert binom(3, 5) == 0


def test_binom_rejects_negative_k():
    with pytest.raises(ValueError):
        binom(2, -1)


@given(rationals, st.integers(min_value=1, max_value=30))
@settings(max_examples=200, deadline=None)
def test_binom_pascal_recurrence(a, k):
    assert binom(a, k) == binom(a - 1, k) + binom(a - 1, k - 1)


def test_residue_examples():
    p = LaurentPoly({-1: 3, 0: 2})
    assert p.residue() == 3
    assert LaurentPoly({2: 1}).residue() == 0
    shifted = LaurentPoly({0: 1, 1: 2, 2: 1}).shift(-2)
    assert shifted.residue() == 2


def test_laurent_arithmetic_ring_axioms():
    p = LaurentPoly({-2: 1, 0: Fraction(1, 3)})
    q = LaurentPoly({1: 2, 3: -1})
    r = LaurentPoly({-1: 5})
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert (p - p).is_zero()
    assert p * LaurentPoly.one() == p


def test_binom_poly_matches_expansion():
    p = binom_poly(6)
    assert all(p.coefficient(j) == binom(6, j) for j in range(8))


def test_bivariate_basic():
    x1 = BivariatePoly.monomial(1, 0)
    x2 = BivariatePoly.monomial(0, 1)
    both = (x1 + x2) * (x1 - x2)
    assert both == BivariatePoly({(2, 0): 1, (0, 2): -1})
    assert (both - both).is_zero()
    assert both * 0 == BivariatePoly()


def test_no_zero_coefficients_stored():
    p = LaurentPoly({0: 1}) - LaurentPoly({0: 1})
    assert p.coeffs == {}
    b = BivariatePoly({(1, 1): Fraction(1)}) - BivariatePoly({(1, 1): Fraction(1)})
    assert b.coeffs == {}
