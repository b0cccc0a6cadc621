"""Independent oracles the tests check library results against.

Each oracle recomputes a quantity along a different route than the library
takes: series bookkeeping instead of closed-form binomial sums, direct
normal-ordered quadratic expressions instead of the iterate recursion,
dense Fraction elimination instead of fraction-free sparse elimination,
plain Fraction reduction and witnesses instead of integer steps,
exact elimination alone instead of behind the mod-P rank filter, the
fusion system over Q instead of mod P.  Expected values frozen in the test files were produced by these.
"""

from fractions import Fraction
from math import factorial

from voazhu import BasisVector, GradedVector, binom, partitions
from voazhu.bimodule import intertwiner_ideal_context, left_star, right_star_alt
from voazhu.instances import fock
from voazhu.linalg import SparseEchelon, integer_row
from voazhu.modules import ModeTable
from voazhu.zhu import o_action, omega0_basis


def series_modes(module, u, w, lo):
    """Nonzero modes {n: Y_n(u)w} for n >= lo (the series is not lower bounded)."""
    out = {}
    for n in range(lo, module.mode_vanishing_bound(u, w)):
        v = module.mode_action(u, n, w)
        if not v.is_zero():
            out[n] = v
    return out


def residue_oracle(module, u, w, exponent_offset, x_power):
    """Res_x x^(x_power) (1+x)^(wt u + offset) Y(u,x) w by series bookkeeping.

    Multiplies out the two series coefficientwise and extracts the x^(-1)
    coefficient; no closed-form reindexed sums.
    """
    total = module.zero()
    for wt, comp in u.homogeneous_components().items():
        a = wt + exponent_offset
        # term x^j * x^(x_power) * x^(-n-1) contributes iff j + x_power - n - 1 = -1
        modes = series_modes(module, comp, w, lo=x_power)
        for n, vec in modes.items():
            c = binom(a, n - x_power)
            if c != 0:
                total = total + vec * c
    return total


def star_oracle(module, u, w, N):
    total = module.zero()
    for m in range(N + 1):
        c = Fraction((-1) ** m) * binom(Fraction(m + N), N)
        total = total + residue_oracle(module, u, w, N, -N - m - 1) * c
    return total


def ywv_series_oracle(module, w, u, n):
    """Coefficient of x^(-n-1) in e^{xL(-1)} Y(u,-x) w via explicit series."""
    omega = module.algebra.omega()
    acc = module.zero()
    # Y(u,-x) w = sum_m Y_m(u) w (-1)^(m+1) x^(-m-1); apply exp(x L(-1)) termwise
    modes = series_modes(module, u, w, lo=n)
    for m, vec in modes.items():
        j = m - n  # x^j from the exponential must bring x^(-m-1) up to x^(-n-1)
        if j < 0:
            continue
        fact = Fraction(1)
        for t in range(2, j + 1):
            fact *= t
        cur = vec
        for _ in range(j):
            cur = module.mode_action(omega, 0, cur)
        acc = acc + cur * (Fraction((-1) ** (m + 1)) / fact)
    return acc


def ywv_residue_oracle(module, w, u, exponent_offset, x_power):
    """Res_x x^(x_power) (1+x)^(wt w + offset) Y_WV(w,x) u, coefficientwise
    from ``ywv_series_oracle``."""
    total = module.zero()
    for wt, comp in w.homogeneous_components().items():
        a = wt + exponent_offset
        for n in range(x_power, module.mode_vanishing_bound(u, comp)):
            c = binom(a, n - x_power)
            if c != 0:
                total = total + ywv_series_oracle(module, comp, u, n) * c
    return total


def ywv_star_oracle(module, w, u, N):
    total = module.zero()
    for m in range(N + 1):
        c = Fraction((-1) ** m) * binom(Fraction(m + N), N)
        total = total + ywv_residue_oracle(module, w, u, N, -N - m - 1) * c
    return total


def sugawara_mode(module, k, w):
    """L(k) on a Heisenberg-algebra module, from the quadratic expression

        L(k) = (1/2) sum_{j} :alpha(j) alpha(k-j):

    applied directly with normal ordering, truncated by the module depth.
    """
    bound = w.max_depth() + abs(k) + 2
    acc = module.zero()
    for j in range(-bound, bound + 1):
        a, b = j, k - j
        lo, hi = (a, b) if a <= b else (b, a)  # normal order: creation first
        step = module.gen_action("a", hi, w)
        if step.is_zero():
            continue
        step = module.gen_action("a", lo, step)
        if step.is_zero():
            continue
        acc = acc + step * Fraction(1, 2)
    return acc


def dense_rref(rows, ncols):
    """Plain dense Fraction Gauss-Jordan; returns (rank, pivot columns)."""
    mat = [[Fraction(r.get(c, 0)) for c in range(ncols)] for r in rows]
    rank = 0
    pivots = []
    for col in range(ncols):
        sel = None
        for i in range(rank, len(mat)):
            if mat[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        pv = mat[rank][col]
        mat[rank] = [x / pv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        pivots.append(col)
        rank += 1
    return rank, pivots


class FractionEchelon:
    """``SparseEchelon``'s insert and reduce by plain Fraction
    elimination: no integer scaling, no gcd, no mod-P filter.  A stored row
    is monic at its pivot, its highest column, and zero at every pivot
    column known when it was stored; it carries its combination of the
    input rows.  A row that adds no rank is dropped but consumes an index.
    The remainder and the witness over the rows that added rank are unique,
    so they must equal ``SparseEchelon``'s."""

    def __init__(self):
        self.rows = {}   # pivot column -> (monic row, combo over input indices)
        self.n_inserted = 0

    def reduce(self, row):
        """(remainder off the pivot columns, combo of stored inputs) with
        row = combo's combination of the inputs + remainder."""
        r = {k: Fraction(v) for k, v in row.items() if v}
        combo, rem = {}, {}
        while r:
            lead = max(r)
            if lead not in self.rows:
                rem[lead] = r.pop(lead)
                continue
            prow, pcombo = self.rows[lead]
            c = r[lead]
            for target, src, sign in ((r, prow, -1), (combo, pcombo, 1)):
                for k, v in src.items():
                    target[k] = target.get(k, 0) + sign * c * v
                    if not target[k]:
                        del target[k]
        return rem, combo

    def insert(self, row) -> bool:
        key = self.n_inserted
        self.n_inserted += 1
        rem, combo = self.reduce(row)
        if not rem:
            return False
        lead = rem[max(rem)]
        combo = {i: -c for i, c in combo.items()}
        combo[key] = Fraction(1)
        self.rows[max(rem)] = ({k: v / lead for k, v in rem.items()},
                               {i: c / lead for i, c in combo.items()})
        return True


def plain_exact(rows):
    """The exact elimination alone, with no mod-P filter: (form, rank gains)."""
    ech, gains = SparseEchelon(), []
    for i, row in enumerate(rows):
        ints, scale = integer_row(row)
        r, combo = ech._eliminate(ints, {i: scale})
        if r:
            ech._append(r, combo)
        gains.append(bool(r))
    return ech, gains


def exact_fusion_dim(algebra, W1, W2, W3, N, window):
    """``intertwiner.fusion_dim``'s system over Q: unknowns on the exact
    coset representatives ``cosets()``, a product's coordinates its exact
    reduction over them (``SparseEchelon.reduce``), Fraction o(u) matrices,
    and the rank of the constraints by ``plain_exact``."""
    sub = intertwiner_ideal_context(W1, N, window).subspace
    q_cols = sub.cosets()
    b2, b3 = omega0_basis(W2, N), omega0_basis(W3, N)
    n2, n3 = len(b2), len(b3)
    if not (q_cols and n2 and n3):
        return 0

    def unknown(col, b2i, b3i):
        return (col * n2 + b2i) * n3 + b3i

    def o_matrix(W, u, basis):
        pos = {bv: i for i, bv in enumerate(basis)}
        outs = (o_action(W, u, GradedVector(W, {bv: 1})) for bv in basis)
        return [{pos[b]: c for b, c in out.terms.items()} for out in outs]

    rows = []

    def constrain(product, b2i, r, o_terms):
        row = {}
        for p, c in product.items():
            row[unknown(p, b2i, r)] = row.get(unknown(p, b2i, r), 0) + c
        for key, c in o_terms:
            row[key] = row.get(key, 0) - c
        rows.append(row)

    for a in range(1, min(window, 6) + 1):
        for u_bv in algebra.basis_at_depth(a):
            u = GradedVector(algebra, {u_bv: 1})
            m3, m2 = o_matrix(W3, u, b3), o_matrix(W2, u, b2)
            for col in q_cols:
                if a + sub.basis[col].depth + 2 * N > window:
                    continue
                qvec = GradedVector(W1, {sub.basis[col]: 1})
                lv = sub.ech.reduce(sub.row_of(left_star(W1, u, qvec, N)))[0]
                rv = sub.ech.reduce(sub.row_of(right_star_alt(W1, qvec, u, N)))[0]
                for b2i in range(n2):
                    for r in range(n3):
                        constrain(lv, b2i, r, [(unknown(col, b2i, s), m3[s][r])
                                               for s in range(n3) if m3[s].get(r)])
                        constrain(rv, b2i, r, [(unknown(col, b2p, r), m2[b2i][b2p])
                                               for b2p in range(n2) if m2[b2i].get(b2p)])
    return len(q_cols) * n2 * n3 - plain_exact(rows)[0].rank


def _exponential_coefficient(module, bv, lam, total, sign):
    """x^(sign total) coefficient of exp(sign lam sum_p alpha(-sign p) x^(sign p) / p) bv.

    Each partition of total, with part p of multiplicity j, contributes
    prod_p (sign lam / p)^j / j! alpha(-sign p)^j bv: sign = -1 gives
    E_+(lam, x) on F_mu, sign = +1 gives E_-(lam, x) on F_{lam+mu}.
    """
    acc = module.zero()
    for parts in partitions(total, 1):
        coeff = Fraction(1)
        cur = GradedVector(module, {bv: Fraction(1)})
        for p in set(parts):
            j = parts.count(p)
            coeff *= (sign * lam / p) ** j / factorial(j)
        for p in parts:
            cur = module.gen_action("a", -sign * p, cur)
        acc = acc + cur * coeff
    return acc


def exponential_fock_table(lam, mu):
    """The free-boson operator of type (F_{lam+mu}; F_lam, F_mu) as a
    ``ModeTable`` whose bottom mode is the textbook expansion of
    E_-(lam, x) E_+(lam, x) S_lam x^(lam alpha(0)): E_+ lowers w2 by s, the
    momentum shift carries the monomial from F_mu to F_{lam+mu}, and E_-
    raises it to the output depth."""
    W1, W2, W3 = fock(lam), fock(mu), fock(lam + mu)

    def bottom(n, w2_bv, d_out):
        d2 = w2_bv.depth
        acc = W3.zero()
        for s in range(max(0, d2 - d_out), d2 + 1):
            lowered = _exponential_coefficient(W2, w2_bv, lam, s, -1)
            for bv_mid, c_mid in lowered.terms.items():
                shifted = BasisVector(W3.module_id, bv_mid.modes)
                acc = acc + _exponential_coefficient(W3, shifted, lam, d_out - d2 + s, 1) * c_mid
        return acc

    return ModeTable(W1, W2, W3, bottom)


class LogLaurent:
    """Formal sums c_{n,k} x^(-n-1) (log x)^k for the derivative-rule oracle."""

    def __init__(self, coeffs=None):
        self.coeffs = dict(coeffs or {})

    def differentiate(self):
        out = {}
        for (n, k), c in self.coeffs.items():
            # d/dx [x^(-n-1) (log x)^k] = (-n-1) x^(-n-2) log^k + k x^(-n-2) log^(k-1)
            key1 = (n + 1, k)
            out[key1] = out.get(key1, Fraction(0)) + c * (-n - 1)
            if k >= 1:
                key2 = (n + 1, k - 1)
                out[key2] = out.get(key2, Fraction(0)) + c * k
        return LogLaurent({k: v for k, v in out.items() if v != 0})

    def coefficient(self, n, k):
        return self.coeffs.get((n, k), Fraction(0))
