import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voazhu.formal import _binom, as_scalar, binom

rationals = st.fractions(min_value=-40, max_value=40, max_denominator=12)


def test_binom_examples():
    assert binom(-2, 3) == -4
    assert binom(5, 0) == 1
    assert binom(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert binom(Fraction(3, 2), 2) == Fraction(3, 8)
    assert binom(3, 5) == 0


def test_binom_rejects_negative_k():
    for _ in range(2):   # the second call is not answered from the memo
        with pytest.raises(ValueError):
            binom(2, -1)


def test_memoized_binom_matches_falling_factorial():
    rng = random.Random(2024)
    grid = [Fraction(rng.randint(-30, 30), rng.randint(1, 8)) for _ in range(40)]
    for a in grid + [Fraction(n) for n in range(-3, 13)]:
        for k in range(13):
            assert binom(a, k) == falling_factorial_quotient(a, k), (a, k)
            assert binom(a, k) == binom(a, k)   # again, now from the memo


def test_binom_int_and_fraction_arguments_agree():
    assert binom(2, 3) == binom(Fraction(2), 3) == 0
    assert binom(7, 3) == binom(Fraction(7), 3) == 35
    assert type(binom(7, 3)) is int
    assert binom(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert type(binom(Fraction(1, 2), 2)) is Fraction


@given(rationals, st.integers(min_value=1, max_value=30))
@settings(max_examples=200, deadline=None)
def test_binom_pascal_recurrence(a, k):
    assert binom(a, k) == binom(a - 1, k) + binom(a - 1, k - 1)


def test_integral_scalars_are_plain_ints():
    """as_scalar gives an int for every integral value, a Fraction otherwise;
    binom normalizes its top to that form, so an integral top never reaches
    the memo and the result type does not depend on the order of the calls."""
    for x in (True, False, 2, Fraction(6, 3), "4/2", "-3", Fraction(-8, 4)):
        assert type(as_scalar(x)) is int, x
    assert as_scalar(True) == 1 and as_scalar("4/2") == as_scalar(Fraction(6, 3)) == 2
    assert type(as_scalar("3/4")) is Fraction and as_scalar("3/4") == Fraction(3, 4)
    for bad in ("1e5", "2E-3"):
        with pytest.raises(ValueError):
            as_scalar(bad)
    with pytest.raises(TypeError):
        as_scalar(0.5)
    for calls in ([7, Fraction(7)], [Fraction(7), 7]):
        _binom.cache_clear()
        assert [type(binom(a, 3)) for a in calls] == [int, int]
        assert _binom.cache_info().currsize == 0


def falling_factorial_quotient(a, k: int) -> Fraction:
    num, den = Fraction(1), 1
    for i in range(k):
        num *= a - i
        den *= i + 1
    return num / den


def test_integer_tops_match_the_falling_factorial_as_ints():
    for a in range(-60, 61):
        for k in range(61):
            c = binom(a, k)
            assert type(c) is int and c == falling_factorial_quotient(a, k), (a, k)


def test_integral_tops_of_other_types_take_the_integer_path():
    _binom.cache_clear()
    for a in (True, Fraction(7), "7"):
        for k in (0, 1, 3):
            c = binom(a, k)
            assert type(c) is int and c == falling_factorial_quotient(as_scalar(a), k)
    assert binom(True, 3) == 0 and binom(Fraction(7), 3) == binom("7", 3) == 35
    assert _binom.cache_info().currsize == 0


def test_only_non_integral_tops_are_memoized():
    _binom.cache_clear()
    for a in range(-5, 6):
        for k in range(6):
            binom(a, k)
    assert _binom.cache_info().currsize == 0
    assert binom(Fraction(1, 16), 4) == falling_factorial_quotient(Fraction(1, 16), 4)
    assert _binom.cache_info().currsize == 1
