from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voazhu.formal import binom

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
