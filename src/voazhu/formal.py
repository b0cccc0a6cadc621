"""Exact scalar arithmetic: rationals and generalized binomial coefficients.

Everything here is exact; there is no floating point anywhere in this
package.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

ZERO = Fraction(0)
ONE = Fraction(1)


def as_scalar(x) -> Fraction:
    """Coerce ints / strings like '3/4' / Fractions to an exact rational.

    A string in exponent form ('1e5', '2E-3') raises ValueError: Fraction
    would expand '1e999999999' into a billion-digit integer first.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if "e" in x or "E" in x:
            raise ValueError(f"{x!r}: exponent notation is not accepted")
        return Fraction(x)
    raise TypeError(f"cannot treat {x!r} as an exact rational")


def binom(a, k: int) -> Fraction:
    """Generalized binomial coefficient a(a-1)...(a-k+1)/k! for rational a.

    binom(a, 0) = 1 (empty product); k must be a nonnegative integer.
    """
    if k < 0:
        raise ValueError("binom: k must be nonnegative")
    return _binom(as_scalar(a), k)


# The mode calculus asks for the same few thousand values over and over
# (about 1 000 distinct ones in ``voazhu axioms --n 0,1``, 4 000 in
# ``verify-identities``); the bound keeps a long session's memory flat.
@lru_cache(maxsize=8192)
def _binom(a: Fraction, k: int) -> Fraction:
    num = ONE
    for i in range(k):
        num *= a - i
    den = 1
    for i in range(2, k + 1):
        den *= i
    return num / den
