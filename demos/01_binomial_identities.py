"""The three exact binomial identities behind the quotient congruences.

Everything in this package reduces, sooner or later, to one of three
combinatorial collapses.  This script expands each one exactly and shows
the cancellation happening - no numerics, no tolerance.
"""

from fractions import Fraction

from voazhu import binom
from voazhu.identities import (alternating_binomial_sum,
                               verify_bivariate_binomial_cancellation,
                               verify_telescoping_binomial_sum)

# 1. The telescoping sum.  Term by term it is a genuine Laurent polynomial
# with poles up to order 2N+1, kept as a dict from the power of x to its
# coefficient; summed over m, everything but the constant 1 cancels.
N = 3
print(f"telescoping sum at N={N}:")
total = {}
top = [binom(N + 1, j) for j in range(N + 2)]
for m in range(N + 1):
    coeff = binom(Fraction(m + N), N)
    low = -(N + m + 1)
    term = {low + j: (-1) ** m * coeff * c for j, c in enumerate(top)}
    for j in range(m + 1):
        term[low + j] -= (-1) ** N * coeff * binom(m, j)
    term = {e: c for e, c in term.items() if c}
    print(f"  m={m}: {len(term)} monomials, lowest exponent {min(term, default=0)}")
    for e, c in term.items():
        total[e] = total.get(e, 0) + c
total = {e: c for e, c in sorted(total.items()) if c}
print("  sum =", " + ".join(f"{c}" if e == 0 else f"{c}*x^{e}" for e, c in total.items()) or "0")
assert verify_telescoping_binomial_sum(N)

# 2. The alternating sum: 1 at i=0, then dead zero across the whole range.
print("\nalternating sums, N=6:")
print(" ", [str(alternating_binomial_sum(6, i)) for i in range(7)])

# 3. The two-variable cancellation, checked for a few levels.
for n in range(5):
    assert verify_bivariate_binomial_cancellation(n)
print("\nbivariate cancellation holds for N = 0..4")
