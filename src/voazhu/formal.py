"""Exact formal calculus: rationals, binomials and Laurent polynomials.

Everything here is immutable after construction and exact; there is no
floating point anywhere in this package.
"""

from __future__ import annotations

from fractions import Fraction

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
    a = as_scalar(a)
    num = ONE
    for i in range(k):
        num *= a - i
    den = 1
    for i in range(2, k + 1):
        den *= i
    return num / den


def _clean(coeffs: dict) -> dict:
    return {e: c for e, c in coeffs.items() if c != 0}


class LaurentPoly:
    """Sparse Laurent polynomial over the rationals in one variable x."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        raw = {} if coeffs is None else {int(e): as_scalar(c) for e, c in dict(coeffs).items()}
        self.coeffs = _clean(raw)

    @classmethod
    def monomial(cls, exponent: int, coeff=ONE) -> "LaurentPoly":
        return cls({exponent: coeff})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: ONE})

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, exponent: int) -> Fraction:
        return self.coeffs.get(exponent, ZERO)

    def residue(self) -> Fraction:
        return self.coeffs.get(-1, ZERO)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, ZERO) + c
        return LaurentPoly(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, ZERO) - c
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            out: dict = {}
            for e1, c1 in self.coeffs.items():
                for e2, c2 in other.coeffs.items():
                    e = e1 + e2
                    out[e] = out.get(e, ZERO) + c1 * c2
            return LaurentPoly(out)
        c = as_scalar(other)
        return LaurentPoly({e: c0 * c for e, c0 in self.coeffs.items()})

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by x**k."""
        return LaurentPoly({e + k: c for e, c in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == _clean({0: as_scalar(other)})
        return NotImplemented

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                parts.append(f"{c}")
            elif e == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{e}")
        return " + ".join(parts)


def binom_poly(a: int) -> LaurentPoly:
    """(1+x)**a for a *nonnegative integer* a, as an exact Laurent polynomial."""
    if a < 0:
        raise ValueError("binom_poly needs a >= 0")
    return LaurentPoly({j: binom(a, j) for j in range(a + 1)})


class BivariatePoly:
    """Sparse Laurent polynomial in two variables, keyed by exponent pairs."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        raw = {} if coeffs is None else {
            (int(e1), int(e2)): as_scalar(c) for (e1, e2), c in dict(coeffs).items()
        }
        self.coeffs = _clean(raw)

    @classmethod
    def monomial(cls, e1: int, e2: int, coeff=ONE) -> "BivariatePoly":
        return cls({(e1, e2): coeff})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "BivariatePoly") -> "BivariatePoly":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, ZERO) + c
        return BivariatePoly(out)

    def __sub__(self, other: "BivariatePoly") -> "BivariatePoly":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, ZERO) - c
        return BivariatePoly(out)

    def __mul__(self, other):
        if isinstance(other, BivariatePoly):
            out: dict = {}
            for (a1, a2), c1 in self.coeffs.items():
                for (b1, b2), c2 in other.coeffs.items():
                    k = (a1 + b1, a2 + b2)
                    out[k] = out.get(k, ZERO) + c1 * c2
            return BivariatePoly(out)
        c = as_scalar(other)
        return BivariatePoly({k: c0 * c for k, c0 in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, BivariatePoly):
            return self.coeffs == other.coeffs
        if other == 0:
            return not self.coeffs
        return NotImplemented

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(
            f"{c}*x1^{e1}*x2^{e2}" for (e1, e2), c in sorted(self.coeffs.items())
        )
