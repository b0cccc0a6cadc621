"""Logarithmic intertwining operators and the induced quotient-module maps.

An intertwining operator of type (W3; W1, W2) is presented through its
doubly indexed modes Y_{n;k}(w1) w2 (n a rational exponent, k the log
power), held as one ``modules.ModeTable`` per log power k: the memoized
table that also gives each module its vertex operator.  The only concrete
instance shipped is the free-boson one of type (F_{lam+mu}; F_lam, F_mu),
built from the normal-ordered exponential of the current; it is log-free
(one table, k = 0) with exponents in -lam*mu + Z.  The k-indexed paths are
exercised by synthetic finite mode tables.

From an intertwining operator, ``induced_hom`` produces the map

    (w1, w2) |-> sum_{n=0}^{N} Y_{wt w1 + wt w2 - h3 - n - 1; 0}(w1) w2

landing in the bottom slice of W3.  It kills the residue family u o_N w of
the first-argument ideal exactly (not the lowest-weight family; see the
discrepancy tests) and intertwines the left action and the alternative
right action, which is what ``fusion_dim`` exploits to bound spaces of
intertwining operators by finite exact linear algebra.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .basis import BasisVector, GradedVector, Sum
from .errors import WindowOverflowError
from .formal import as_scalar
from .heisenberg import TAG as HTAG
from .heisenberg import FockModule, HeisenbergVOA
from .instances import fock, heisenberg_voa
from .linalg import ModPEchelon, image_mod_p
from .modules import GenModule, ModeTable
from .zhu import o_action, omega0_basis
from .bimodule import intertwiner_ideal_context, left_star, right_star_alt


class LogIntertwiner:
    """Modes Y_{n;k}(w1) w2, one mode table per log power k = 0..log_bound."""

    def __init__(self, w1_module: GenModule, w2_module: GenModule,
                 w3_module: GenModule, tables):
        self.w1_module = w1_module
        self.w2_module = w2_module
        self.w3_module = w3_module
        self.tables = tuple(tables)
        self.log_bound = len(self.tables) - 1  # largest k with possibly nonzero modes

    def mode(self, w1: GradedVector, n, k: int, w2: GradedVector) -> GradedVector:
        """Y_{n;k}(w1) w2, extended bilinearly by table k."""
        if k < 0:
            raise ValueError("log power k must be nonnegative")
        if k > self.log_bound:
            return self.w3_module.zero()
        return self.tables[k].apply(w1, as_scalar(n), w2)

    def leading_index(self, w1: GradedVector, w2: GradedVector) -> Fraction:
        """All modes with n above this value kill (w1, w2), by weight reasons."""
        return (max(w1.weights()) + max(w2.weights())
                - self.w3_module.lowest_weight - 1)


def y0_part(it: LogIntertwiner) -> LogIntertwiner:
    """Restrict an operator to its (log x)^0 modes."""
    return it if it.log_bound == 0 else LogIntertwiner(
        it.w1_module, it.w2_module, it.w3_module, it.tables[:1])


class FockIntertwiner(LogIntertwiner):
    """The free-boson operator of type (F_{lam+mu}; F_lam, F_mu).

    On the bottom vector the operator is the normal-ordered exponential

        E_-(lam, x) E_+(lam, x) S_lam x^(lam alpha(0)),

    E_-(lam,x) = exp(lam sum_{n>=1} alpha(-n) x^n / n),
    E_+(lam,x) = exp(-lam sum_{n>=1} alpha(n) x^-n / n),

    where S_lam shifts the momentum.  Its one table is a
    ``modules.ModeTable(F_lam, F_mu, F_{lam+mu}, _bottom)``: a composite
    first argument alpha(p) w1' is reduced to w1' by the iterate formula,
    with the current acting on F_mu and F_{lam+mu}, and ``_bottom`` reads
    the bottom vector's modes back from the same table.  All modes carry
    k = 0; exponents n lie in -lam*mu + Z, the table's offset h_lam + h_mu -
    h_{lam+mu} plus Z.  The three modules are the registry's ``fock(lam)``,
    ``fock(mu)`` and ``fock(lam + mu)``, so the operator shares their gen
    caches and ideal windows.
    """

    DEPTH_MAX = 48  # the table refuses a mode of deeper output

    def __init__(self, algebra: HeisenbergVOA, lam, mu):
        if algebra is not heisenberg_voa():
            raise ValueError("FockIntertwiner needs the shared heisenberg_voa() algebra")
        self.lam, self.mu = Fraction(as_scalar(lam)), Fraction(as_scalar(mu))
        table = ModeTable(fock(self.lam), fock(self.mu), fock(self.lam + self.mu), self._bottom)
        table.depth_max = self.DEPTH_MAX
        super().__init__(table.first, table.src, table.out, [table])

    def _bottom(self, n, w2_bv: BasisVector, d_out: int) -> GradedVector:
        """Y_n(|lam>) w2, of output depth d_out, by recursion on the table.

        A composite w2 = alpha(m) w2' reduces by [alpha(m), Y(|lam>, x)] =
        lam x^m Y(|lam>, x):

            Y_n(|lam>) alpha(m) w2' = alpha(m) Y_n(|lam>) w2' - lam Y_{n+m}(|lam>) w2'.

        On |mu> the operator is x^(lam mu) E_-(lam, x) |lam+mu>, and
        x d/dx E_- = lam sum_p alpha(-p) x^p E_-, so Y_n(|lam>)|mu> is
        |lam+mu> at d_out = 0 and (lam/t) sum_{p=1..t} alpha(-p)
        Y_{n+p}(|lam>)|mu> at d_out = t > 0.
        """
        table, out = self.tables[0], self.w3_module
        lw1 = BasisVector(self.w1_module.module_id, ())
        if w2_bv.modes:
            (tag, m), rest = w2_bv.modes[0], BasisVector(w2_bv.module_id, w2_bv.modes[1:])
            acc = Sum()
            acc.add(out.gen_action(tag, m, table.basis(lw1, n, rest)))
            acc.add(table.basis(lw1, n + m, rest), -self.lam)
            return GradedVector._of(out, acc.terms())
        if d_out == 0:
            return out.lw()
        acc, scale = Sum(), self.lam / d_out
        for p in range(1, d_out + 1):
            acc.add(out.gen_action(HTAG, -p, table.basis(lw1, n + p, w2_bv)), scale)
        return GradedVector._of(out, acc.terms())


class _FiniteTable(ModeTable):
    """A mode table holding given entries; every other mode reads zero."""

    def __init__(self, first: GenModule, src: GenModule, out: GenModule, entries: dict):
        super().__init__(first, src, out, None)
        self.memo.update(entries)

    def _compute(self, u_bv, n, w_bv):
        return self.out.zero()


class TableIntertwiner(LogIntertwiner):
    """A synthetic operator given by a finite table of modes.

    ``table`` maps (w1 basis vector, n, k, w2 basis vector) to the mode;
    every other mode is zero.  Used to exercise the k > 0 code paths; each
    k must lie in 0..log_bound, and the table is normally built so the
    mode-level consequence of the formal-derivative axiom holds by
    construction.
    """

    def __init__(self, w1_module, w2_module, w3_module, table: dict, log_bound: int):
        entries = [{} for _ in range(log_bound + 1)]
        for (w1_bv, n, k, w2_bv), val in table.items():
            if not 0 <= k <= log_bound:
                raise ValueError(f"table entry log power {k} outside 0..{log_bound}")
            entries[k][(w1_bv, as_scalar(n), w2_bv)] = val
        super().__init__(w1_module, w2_module, w3_module,
                         [_FiniteTable(w1_module, w2_module, w3_module, e) for e in entries])


# --- the induced map on bottom slices ----------------------------------------

def induced_hom(it: LogIntertwiner, N: int, w1: GradedVector,
                w2: GradedVector) -> GradedVector:
    """sum_{n=0}^{N} Y_{wt w1 + wt w2 - h3 - n - 1; 0}(w1) w2, exactly.

    w2 must lie in the bottom slice (depth <= N) of W2; the result lands in
    the bottom slice of W3.
    """
    if w2.max_depth() > N:
        raise ValueError("second argument must lie in the bottom slice of W2")
    h3 = it.w3_module.lowest_weight
    acc = Sum()
    for wt1, c1 in w1.homogeneous_components().items():
        for wt2, c2 in w2.homogeneous_components().items():
            for n_idx in range(N + 1):
                acc.add(it.mode(c1, wt1 + wt2 - h3 - n_idx - 1, 0, c2))
    out = GradedVector._of(it.w3_module, acc.terms())
    if out.max_depth() > N:
        raise WindowOverflowError(
            f"induced map left the bottom slice: depth {out.max_depth()} > N = {N}")
    return out


def check_derivative_rule(it: LogIntertwiner, w1: GradedVector, n, k: int,
                          w2: GradedVector) -> bool:
    """Mode-level consequence of the formal-derivative axiom:

        Y_{n;k}(L(-1) w1) = -n Y_{n-1;k}(w1) + (k+1) Y_{n-1;k+1}(w1).
    """
    n = as_scalar(n)
    omega = it.w1_module.algebra.omega()
    lhs = it.mode(it.w1_module.mode_action(omega, 0, w1), n, k, w2)
    rhs = it.mode(w1, n - 1, k, w2) * (-n) + it.mode(w1, n - 1, k + 1, w2) * (k + 1)
    return lhs == rhs


def check_hom_properties(it: LogIntertwiner, N: int, u: GradedVector,
                         w1: GradedVector, w2: GradedVector) -> dict:
    """Exact equalities tying the induced map to the quotient actions.

    The right-action equality holds on the nose for the *alternative*
    right action (the Y_W-mode expansion the calculation actually runs
    through); the two right actions differ by lowest-weight-family ideal
    elements, which the induced map does not annihilate in general, so the
    raw module-to-algebra form of the right equality is expected to fail
    off the aligned-weight cases (demo 05 shows one).
    """
    W1 = it.w1_module
    left_ok = (induced_hom(it, N, left_star(W1, u, w1, N), w2)
               == o_action(it.w3_module, u, induced_hom(it, N, w1, w2)))
    right_ok = (induced_hom(it, N, right_star_alt(W1, w1, u, N), w2)
                == induced_hom(it, N, w1, o_action(it.w2_module, u, w2)))
    return {"left": left_ok, "right": right_ok}


# --- fusion dimension ----------------------------------------------------------

def fusion_dim(algebra, W1: GenModule, W2: GenModule, W3: GenModule,
               N: int, window: int) -> int:
    """Upper bound for dim Hom(A_N(W1) (x)_{A_N(V)} bottom(W2), bottom(W3)).

    Unknowns are the values of a candidate map on (window coset
    representatives of A_N(W1), keyed by window column) x (bottom basis of
    W2), with coordinates in the bottom slice of W3; constraints impose the
    left-action equivariance and the balanced-product relation against
    every homogeneous algebra element of weight up to min(window, 6).
    Constraints whose products leave the window are skipped, which keeps
    the answer an upper bound at every window; in practice it shrinks and
    then stabilizes as the window grows, and agreement across two
    successive windows is the reported confidence signal.

    The system is assembled and ranked mod P.  The coset representatives
    are the columns that are no pivot of the window's own mod-P form
    (``sub.ech.rows_p``), whose rank equals the exact one, and a product's
    coordinates are its remainder there.  Reduced mod P, the rows of the
    window and the constraints span at most what they span over Q, so the
    count is an upper bound for the exact system's at every prime, and
    equal to it for all but finitely many.  A product with a denominator
    divisible by P has its constraints skipped, and so do the left (right)
    constraints of a u whose o(u) on W3 (W2) is not P-integral; skipping
    only raises the bound.

    The scan stops before an algebra element once the bound is decided.
    At full rank it returns 0.  One below full rank it evaluates, once, the
    induced map of an operator the package can build (``known_induced_map``)
    on the unknowns mod P; if that vector is nonzero and orthogonal to every
    row so far, it returns 1.  A stop only leaves rows out, so it can only
    raise the bound; and an intertwining operator's induced map satisfies
    every left, right and residue-family row, so the rows left out cannot
    lower it either.  A vector that is not orthogonal means the map is no
    solution, and the scan runs on.
    """
    sub = intertwiner_ideal_context(W1, N, window).subspace
    form = sub.ech.rows_p
    q_cols = [c for c in range(len(sub.basis)) if c not in form.rows]
    b2 = omega0_basis(W2, N)
    b3 = omega0_basis(W3, N)
    n2, n3, nq = len(b2), len(b3), len(q_cols)
    if nq == 0 or n2 == 0 or n3 == 0:
        return 0

    def unknown(col: int, b2i: int, b3i: int) -> int:
        return (col * n2 + b2i) * n3 + b3i

    def o_matrix(W: GenModule, u: GradedVector, basis: list) -> list:
        """Column i -> the coordinates mod P over basis of o(u) basis[i],
        None where one is not P-integral."""
        pos = {bv: i for i, bv in enumerate(basis)}
        outs = (o_action(W, u, GradedVector(W, {bv: 1})) for bv in basis)
        return [image_mod_p({pos[b]: c for b, c in out.terms.items()}) for out in outs]

    ranks = ModPEchelon()

    def constrain(product: dict, b2i: int, r: int, o_terms) -> None:
        """f(product (x) b2) at coordinate r minus the (unknown, coeff) o(u) terms."""
        row: dict = {}
        for p, c in product.items():
            key = unknown(p, b2i, r)
            row[key] = row.get(key, 0) + c
        for key, c in o_terms:
            row[key] = row.get(key, 0) - c
        ranks.insert(row)

    nvars = nq * n2 * n3
    tried = False  # the known operator's vector is built at most once
    for a in range(1, min(window, 6) + 1):
        for u_bv in algebra.basis_at_depth(a):
            if ranks.rank == nvars:
                return 0
            if ranks.rank == nvars - 1 and not tried:
                tried = True
                image = known_induced_map(algebra, W1, W2, W3, N,
                                          [sub.basis[col] for col in q_cols], b2, b3)
                vec = image and image_mod_p({unknown(q_cols[i], b2i, r): c
                                             for (i, b2i, r), c in image.items()})
                if vec and all(sum(c * vec.get(k, 0) for k, c in row.items()) % linalg.P == 0
                               for row in ranks.rows.values()):
                    return 1
            u = GradedVector(algebra, {u_bv: 1})
            m3, m2 = o_matrix(W3, u, b3), o_matrix(W2, u, b2)
            for col in q_cols:
                qvec = GradedVector(W1, {sub.basis[col]: 1})
                if a + sub.basis[col].depth + 2 * N > window:
                    continue  # the products would leave the window
                # a side is skipped where its o(u) or its product's remainder is not P-integral
                lv = rv = None
                if None not in m3:
                    lv = form.remainder(sub.row_of(left_star(W1, u, qvec, N)))
                if None not in m2:
                    rv = form.remainder(sub.row_of(right_star_alt(W1, qvec, u, N)))
                for b2i in range(n2):
                    for r in range(n3):
                        # left: f(u * q (x) b2) = o(u) f(q (x) b2)
                        if lv is not None:
                            constrain(lv, b2i, r, [(unknown(col, b2i, s), m3[s][r])
                                                   for s in range(n3) if m3[s].get(r)])
                        # right: f(q * u (x) b2) = f(q (x) o(u) b2)
                        if rv is not None:
                            constrain(rv, b2i, r, [(unknown(col, b2p, r), m2[b2i][b2p])
                                                   for b2p in range(n2) if m2[b2i].get(b2p)])
    return nvars - ranks.rank


def known_induced_map(algebra, W1: GenModule, W2: GenModule, W3: GenModule, N: int,
                      reps: list, b2: list, b3: list) -> dict | None:
    """The induced map of an intertwining operator of type (W3; W1, W2) that
    the package builds, as {(i, j, r): coefficient of b3[r] in the image of
    reps[i] (x) b2[j]}; None when it builds none.

    The one such operator is ``FockIntertwiner`` on the registry's
    ``fock(lam)``, ``fock(mu)`` and ``fock(lam + mu)`` over ``heisenberg_voa()``.
    """
    if not (algebra is heisenberg_voa()
            and all(isinstance(W, FockModule) and W is fock(W.momentum) for W in (W1, W2, W3))
            and W3.momentum == W1.momentum + W2.momentum):
        return None
    it = FockIntertwiner(algebra, W1.momentum, W2.momentum)
    pos = {bv: r for r, bv in enumerate(b3)}
    image = {}
    for i, bv1 in enumerate(reps):
        w1 = GradedVector(W1, {bv1: 1})
        for j, bv2 in enumerate(b2):
            out = induced_hom(it, N, w1, GradedVector(W2, {bv2: 1}))
            image.update(((i, j, pos[bv]), c) for bv, c in out.terms.items())
    return image


def fusion_report(algebra, W1, W2, W3, N: int, windows=(6, 8)) -> dict:
    """fusion_dim at each window; stabilized when two or more distinct
    windows all give the same bound."""
    dims = [fusion_dim(algebra, W1, W2, W3, N, w) for w in windows]
    return {
        "type": [W1.module_id, W2.module_id, W3.module_id],
        "N": N,
        "window": windows[-1],
        "windows": list(windows),
        "dims": dims,
        "fusion_dim_upper": dims[-1],
        "stabilized": len(set(windows)) > 1 and len(set(dims)) == 1,
        "checks": [{"window": w, "dim_upper": d} for w, d in zip(windows, dims)],
    }
