"""Exact scalar arithmetic: rationals and generalized binomial coefficients.

A scalar is an exact rational held as an ``int`` when it is integral and
as a ``fractions.Fraction`` otherwise; there is no floating point anywhere
in this package.  Module parameters (weights, momenta, central charges)
stay ``Fraction`` so that dividing them never yields a float.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial


def as_scalar(x) -> int | Fraction:
    """Coerce ints / strings like '3/4' / Fractions to an exact rational:
    an ``int`` when the value is integral (``bool`` included), otherwise a
    ``Fraction``.

    A string in exponent form ('1e5', '2E-3') raises ValueError: Fraction
    would expand '1e999999999' into a billion-digit integer first.
    """
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    if isinstance(x, str):
        if "e" in x or "E" in x:
            raise ValueError(f"{x!r}: exponent notation is not accepted")
        return as_scalar(Fraction(x))
    raise TypeError(f"cannot treat {x!r} as an exact rational")


def binom(a, k: int) -> int | Fraction:
    """Generalized binomial coefficient a(a-1)...(a-k+1)/k! for rational a,
    an ``int`` when integral (always, for integer a).

    binom(a, 0) = 1 (empty product); k must be a nonnegative integer.
    """
    if k < 0:
        raise ValueError("binom: k must be nonnegative")
    return _binom(as_scalar(a), k)


# The mode calculus asks for the same few thousand values over and over
# (about 1 000 distinct ones in ``voazhu axioms --n 0,1``, 4 000 in
# ``verify-identities``); the bound keeps a long session's memory flat.
# ``binom`` normalizes a first, so an integral a is always an int key.
@lru_cache(maxsize=8192)
def _binom(a: int | Fraction, k: int) -> int | Fraction:
    num = 1
    for i in range(k):
        num *= a - i
    return as_scalar(Fraction(num, factorial(k)))
