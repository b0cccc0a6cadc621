"""The three binomial identity families, cross-checked against sympy.

The sympy expansions are the independent oracle: they build the same left
sides with a different engine and simplify symbolically.
"""

import pytest
import sympy

from voazhu import identities
from voazhu.identities import (alternating_binomial_sum,
                               verify_bivariate_binomial_cancellation,
                               verify_telescoping_binomial_sum)


@pytest.mark.parametrize("n", range(0, 21))
def test_telescoping_sum_collapses(n):
    assert verify_telescoping_binomial_sum(n)


def test_telescoping_sum_sympy_oracle():
    x = sympy.Symbol("x")
    for n in (0, 3, 20):
        total = 0
        for m in range(n + 1):
            total += sympy.binomial(m + n, n) * (
                (-1) ** m * (1 + x) ** (n + 1) - (-1) ** n * (1 + x) ** m
            ) / x ** (n + m + 1)
        assert sympy.simplify(sympy.expand(total)) == 1


@pytest.mark.parametrize("n", range(0, 11))
def test_bivariate_cancellation(n):
    assert verify_bivariate_binomial_cancellation(n)


def test_bivariate_cancellation_sympy_oracle():
    x1, x2 = sympy.symbols("x1 x2")
    for n in (0, 1, 10):
        total = 0
        for m in range(n + 1):
            inner = -sympy.Pow(x1, -m)
            for i in range(n - m + 1):
                for j in range(m + 1):
                    inner += (sympy.binomial(-n - m - 1, i) * sympy.binomial(m, j)
                              * (-1) ** i * x2 ** (i + j) * x1 ** (-m - i))
            total += (-1) ** m * sympy.binomial(m + n, n) * inner
        assert sympy.simplify(sympy.expand(total)) == 0


def test_alternating_sum_values():
    assert alternating_binomial_sum(3, 0) == 1
    assert alternating_binomial_sum(3, 2) == 0
    assert alternating_binomial_sum(50, 37) == 0


def test_alternating_sum_full_range():
    for n in range(0, 51):
        for i in range(0, n + 1):
            expected = 1 if i == 0 else 0
            assert alternating_binomial_sum(n, i) == expected, (n, i)


def test_alternating_sum_sympy_oracle():
    for n, i in ((5, 0), (5, 3), (50, 37), (12, 12)):
        total = sum(sympy.binomial(m + n, n) * sympy.binomial(-n - m - 1, i - m)
                    for m in range(i + 1))
        assert total == (1 if i == 0 else 0)


def test_alternating_sum_rejects_out_of_range():
    with pytest.raises(ValueError):
        alternating_binomial_sum(3, 4)
    with pytest.raises(ValueError):
        alternating_binomial_sum(3, -1)


def test_verifiers_fail_on_one_wrong_binomial(monkeypatch):
    """With C(3, 3) off by one, every family fails at N = 3: the verifiers
    compare exact expansions, they do not just return True."""
    real = identities.binom
    monkeypatch.setattr(identities, "binom",
                        lambda a, k: real(a, k) + 1 if (a, k) == (3, 3) else real(a, k))
    assert not verify_telescoping_binomial_sum(3)
    assert not verify_bivariate_binomial_cancellation(3)
    assert alternating_binomial_sum(3, 1) != 0
