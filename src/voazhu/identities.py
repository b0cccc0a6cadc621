"""The three binomial identities the algebraic congruence proofs rest on.

Each verifier expands its left-hand side exactly, as coefficient dicts of
the Laurent expansion keyed by exponent (rationals, never series
approximations), and compares with the claimed closed form.  They are
exposed both for the test suite and for the ``verify-identities`` command.
"""

from __future__ import annotations

from .formal import binom


def verify_telescoping_binomial_sum(n: int) -> bool:
    """Check that the weighted telescoping sum

        sum_{m=0}^{n} C(m+n, n) * [ (-1)^m (1+x)^(n+1) - (-1)^n (1+x)^m ] / x^(n+m+1)

    collapses to the constant 1.  All negative powers of x must cancel
    exactly; this is the identity behind the left/right action swap on the
    quotient bimodules.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    total: dict = {}  # power of x -> coefficient
    top = [binom(n + 1, j) for j in range(n + 2)]
    for m in range(n + 1):
        coeff = binom(m + n, n)
        low = -(n + m + 1)
        for j, c in enumerate(top):
            total[low + j] = total.get(low + j, 0) + (-1) ** m * coeff * c
        for j in range(m + 1):
            total[low + j] = total.get(low + j, 0) - (-1) ** n * coeff * binom(m, j)
    return {e: c for e, c in total.items() if c} == {0: 1}


def verify_bivariate_binomial_cancellation(n: int) -> bool:
    """Check that

        sum_{m=0}^{n} (-1)^m C(m+n, n) *
            [ sum_{i=0}^{n-m} sum_{j=0}^{m} C(-n-m-1, i) C(m, j) (-1)^i x2^(i+j) x1^(-m-i)
              - x1^(-m) ]

    vanishes identically as a two-variable Laurent polynomial.  The inner
    j-sum is finite because C(m, j) = 0 for j > m.  This cancellation is
    what makes the right action associative on the quotient.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    total: dict = {}  # (power of x1, power of x2) -> coefficient
    for m in range(n + 1):
        outer = (-1) ** m * binom(m + n, n)
        for i in range(n - m + 1):
            ci = outer * (-1) ** i * binom(-n - m - 1, i)
            for j in range(m + 1):
                key = (-m - i, i + j)
                total[key] = total.get(key, 0) + ci * binom(m, j)
        total[(-m, 0)] = total.get((-m, 0), 0) - outer
    return not any(total.values())


def alternating_binomial_sum(n: int, i: int) -> int:
    """Exact value of  sum_{m=0}^{i} C(m+n, n) C(-n-m-1, i-m)  for 0 <= i <= n.

    Equals 1 at i = 0 (a single term, with the 0**0 = 1 convention) and 0
    for 1 <= i <= n; this is the collapse that reduces the weight-mixing
    double sum in the induced-homomorphism computation to its diagonal.
    """
    if not (0 <= i <= n):
        raise ValueError("need 0 <= i <= n")
    total = 0
    for m in range(i + 1):
        total += binom(m + n, n) * binom(-n - m - 1, i - m)
    return total


def check_identity_families(max_n: int, max_alt_n: int, max_bivariate_n: int):
    """Yield (family, N, ok, extra) for N = 0..max of each family in turn.

    The families are the telescoping sums, the alternating sums (every i in
    0..N; ``extra`` lists the failing ones as ``failed_i``) and the
    bivariate cancellations; ``extra`` is empty for the other two.
    """
    for n in range(max_n + 1):
        yield "telescoping_sum", n, verify_telescoping_binomial_sum(n), {}
    for n in range(max_alt_n + 1):
        bad = [i for i in range(n + 1)
               if alternating_binomial_sum(n, i) != (1 if i == 0 else 0)]
        yield "alternating_sum", n, not bad, {"failed_i": bad}
    for n in range(max_bivariate_n + 1):
        yield "bivariate_cancellation", n, verify_bivariate_binomial_cancellation(n), {}
