"""The level-N product, the ideal window of O_N, and a module's bottom slice.

Every product here is one call of ``residue``: the sum of
c Res_x x^p Y((1+x)^(L(0)_s + e) u, x) w over a list of terms (c, e, p),
memoized on the module per pair of basis vectors.  For a vertex operator
algebra V and N >= 0 the product (the terms ``star_terms(N)``) is

    u *_N v = sum_{m=0}^{N} (-1)^m C(m+N, N)
              Res_x x^(-N-m-1) Y((1+x)^(L(0)+N) u, x) v.

The ideal O_N(W) of a module W (O_N(V) is the case W = V) is spanned by
the residues u o_N w = Res_x x^(-2N-2) Y((1+x)^(L(0)+N) u, x) w together
with (L(-1) + L(0)_s) w.  The deeper residues x^(-2N-1-n), n >= 2, add
nothing: by Y(L(-1)u, x) = d/dx Y(u, x), each is a combination of n = 1
residues of L(-1)-derivatives.  The quotient is generally
infinite dimensional, so all ideal computations happen inside a finite
weight window: generators that fit entirely inside the window are
enumerated and row-reduced, giving a *sound* inner approximation.
Membership answers are therefore one-sided - Certified means the vector
provably lies in the ideal (an explicit witness is produced and
re-multiplied as a self-check); Inconclusive means the window was too
small to tell, and the caller may retry with a larger one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .basis import GradedVector, Sum
from .errors import WindowOverflowError
from .formal import as_scalar, binom
from .linalg import WindowSubspace
from .modules import GenModule, VOAlgebra, basis_window, bilinear


# --- residue expansions ------------------------------------------------------

def residue(module: GenModule, u: GradedVector, w: GradedVector, terms,
            mode=None) -> GradedVector:
    """sum over (c, e, p) in terms of c Res_x x^p Y((1+x)^(L(0)_s + e) u, x) w.

    The (1+x) exponent applied to a basis vector u_bv of weight d is d + e,
    so its residue on w_bv is sum_k [sum_terms c C(d + e, k - p)] Y_k(u_bv)
    w_bv: each mode whose total coefficient is nonzero is evaluated once, as
    ``mode(module, u_bv, k, w_bv)``.  Without ``mode`` it is the module's own
    vertex operator, ``mode_action``, looked up when called.  The value on a
    pair of basis vectors is summed once per (mode, terms) and module, and
    memoized on the module; u and w are expanded over it by
    ``modules.bilinear``, so two unit basis vectors get the memo entry
    itself, not a copy.
    """
    mode = mode or type(module).mode_action
    memo = module._residues.setdefault((mode, tuple(terms)), {})

    def entry(u_bv, w_bv):
        hit = memo.get((u_bv, w_bv))
        if hit is None:
            hit = memo[u_bv, w_bv] = _pair_residue(
                module, GradedVector._of(u.module, {u_bv: 1}),
                GradedVector._of(w.module, {w_bv: 1}), terms, mode)
        return hit

    return bilinear(module, u, w, entry)


def _pair_residue(module: GenModule, u: GradedVector, w: GradedVector, terms,
                  mode) -> GradedVector:
    """``residue`` of the unit basis vectors u and w, summed over the modes."""
    (u_bv,) = u.terms
    wt = as_scalar(u.module.lowest_weight + u_bv.depth)   # an int keeps binom off Fraction
    bound = module.mode_vanishing_bound(u, w)
    coeffs: dict = {}
    for c, e, p in terms:
        for k in range(p, bound):
            b = binom(wt + e, k - p)
            if b:
                coeffs[k] = coeffs.get(k, 0) + c * b
    acc = Sum()
    for k, c in coeffs.items():
        if c:
            acc.add(mode(module, u, k, w), c)
    return GradedVector._of(module, acc.terms())


def star_terms(N: int) -> list:
    """The terms (c, e, p) of u *_N w: (-1)^m C(m+N, N), N, -N-m-1 for m = 0..N."""
    return [((-1) ** m * binom(m + N, N), N, -N - m - 1) for m in range(N + 1)]


def star_alt_terms(N: int) -> list:
    """The terms of w *_N' u, a residue of u on w: (-1)^N C(m+N, N), m - 1, -N-m-1."""
    return [((-1) ** N * binom(m + N, N), m - 1, -N - m - 1) for m in range(N + 1)]


def circ_terms(N: int, p: int = 0, q: int = 0) -> list:
    """The term of u o_N w, Res_x x^(-2N-2-p) Y((1+x)^(L(0)_s+N+q) u, x) w;
    p = q = 0 is the ideal generator, p >= q >= 0 its deep-power variants."""
    if p < q or q < 0:
        raise ValueError("deep-power variant needs p >= q >= 0")
    return [(1, N + q, -2 * N - 2 - p)]


def star_product(module: GenModule, u: GradedVector, w: GradedVector, N: int) -> GradedVector:
    """u *_N w with u in the algebra and w in the module (left action)."""
    return residue(module, u, w, star_terms(N))


def circ_residue(module: GenModule, u: GradedVector, w: GradedVector,
                 N: int) -> GradedVector:
    """u o_N w = Res_x x^(-2N-2) Y((1+x)^(L(0)+N) u, x) w, an O_N generator."""
    return residue(module, u, w, circ_terms(N))


def lp_element(module: GenModule, w: GradedVector) -> GradedVector:
    """(L(-1) + L(0)_s) w, the second family of ideal generators.

    The value on a basis vector is computed once and memoized on the module;
    w is expanded over it linearly, so a unit basis vector gets the memo
    entry itself, not a copy, and callers must not edit what it returns.
    """
    memo = module._lp_elements

    def entry(w_bv):
        hit = memo.get(w_bv)
        if hit is None:
            unit = GradedVector._of(w.module, {w_bv: 1})
            acc = Sum()
            acc.add(module.mode_action(module.algebra.omega(), 0, unit))
            acc.add(unit, w.module.lowest_weight + w_bv.depth)
            hit = memo[w_bv] = GradedVector._of(module, acc.terms())
        return hit

    if len(w.terms) == 1:
        (w_bv, c), = w.terms.items()
        if c == 1:
            return entry(w_bv)
    acc = Sum()
    for w_bv, c in w.terms.items():
        acc.add(entry(w_bv), c)
    return GradedVector._of(module, acc.terms())


def o_action(module: GenModule, u: GradedVector, w: GradedVector) -> GradedVector:
    """o(u) w = Y_(wt u - 1)(u) w, the weight-preserving zero mode."""
    acc = Sum()
    for wt, comp in u.homogeneous_components().items():
        if wt.denominator != 1:
            raise ValueError("o(u) needs integer-weight algebra components")
        acc.add(module.mode_action(comp, int(wt) - 1, w))
    return GradedVector._of(module, acc.terms())


# --- membership certificates -------------------------------------------------

CERTIFIED = "certified"
INCONCLUSIVE = "inconclusive"


@dataclass
class MembershipCert:
    status: str
    window_depth: int
    combo: dict | None = None     # generator index -> integer coefficient
    scale: int = 1                # sum_i combo[i] gens[i] + scale x = 0
    labels: tuple = ()            # labels of the generators used

    @property
    def certified(self) -> bool:
        return self.status == CERTIFIED

    @cached_property
    def witness(self) -> dict | None:
        """index -> -combo[i]/scale in index order, built on first read."""
        if self.combo is None:
            return None
        return {i: Fraction(-self.combo[i], self.scale) for i in sorted(self.combo)}

    def witness_size(self) -> int:
        return len(self.combo or ())


def certify(context, x: GradedVector, depth: int, retries=(2, 4), cap=None):
    """Ask the windows ``context(d)`` for d = depth, then depth + r for r in retries.

    Each depth is lowered to ``cap`` when one is given, and a depth no deeper
    than the last one tried is skipped.  A window that x overflows answers
    Inconclusive at its depth.  Stops at the first Certified and returns
    (cert, depths tried).
    """
    tried, cert = [], None
    for d in (depth, *(depth + r for r in retries)):
        if cap is not None:
            d = min(d, cap)
        if tried and d <= tried[-1]:
            continue
        tried.append(d)
        window = context(d)
        try:
            cert = window.membership(x)
        except WindowOverflowError:
            cert = MembershipCert(INCONCLUSIVE, d)
        if cert.certified:
            break
    return cert, tried


# --- the ideal window ----------------------------------------------------------

IDEAL_FAMILIES = ("lp", "circ")   # span O_N(W), and O_N(V) as the case W = V


class IdealWindow:
    """The span of the O_N generators of a module W inside depth <= D.

    ``families`` chooses which spanning families are enumerated:

    - "lp": (L(-1) + L(0)_s) w;
    - "circ": u o_N w = Res_x x^(-2N-2) Y((1+x)^(L(0)_s+N) u, x) w.

    Together they span O_N(W), and O_N(V) when W = V: the residues at
    x^(-2N-1-n), n >= 2, are combinations of n = 1 residues of L(-1)u, by
    Y(L(-1)u, x) = d/dx Y(u, x), and fit the window whenever those do.  The
    ideal that the induced map of an intertwining operator provably kills is
    the "circ" span alone (the lowest-weight family is *not* killed in
    general; see the discrepancy notes in the tests).

    A window is a function of (W, N, families, D) alone: it is built from
    exactly its own generators, in one fixed order, so its rows, witnesses
    and labels do not depend on which other windows exist.
    """

    def __init__(self, module: GenModule, N: int, depth: int,
                 families: tuple = IDEAL_FAMILIES):
        families = tuple(families)
        if not set(families) <= set(IDEAL_FAMILIES):
            raise ValueError(f"unknown generator families in {families}")
        self.module = module
        self.algebra: VOAlgebra = module.algebra
        self.N = N
        self.depth = depth
        self.families = families
        self.subspace = WindowSubspace(module, depth)
        self.labels: list[str] = []
        self._enumerate()

    def _enumerate(self) -> None:
        """Add the generators that fit in depth D, "lp" before "circ"."""
        mod, alg, N, D = self.module, self.algebra, self.N, self.depth
        if "lp" in self.families:
            # (L(-1) + L(0)_s) w tops out at depth w + 1
            for b in range(D):
                for w_bv in mod.basis_at_depth(b):
                    w = GradedVector(mod, {w_bv: 1})
                    self._add(lp_element(mod, w), f"lp[{w_bv}]")
        if "circ" in self.families:
            # residues ordered by (wt u, depth w); one tops out at depth
            # wt u + depth w + 2N + 1
            for a in range(1, D + 1):
                for b in range(D - a - 2 * N):
                    for u_bv in alg.basis_at_depth(a):
                        u = GradedVector(alg, {u_bv: 1})
                        for w_bv in mod.basis_at_depth(b):
                            w = GradedVector(mod, {w_bv: 1})
                            gen = circ_residue(mod, u, w, N)
                            self._add(gen, f"circ[{u_bv};{w_bv};n=1]")

    def _add(self, gv: GradedVector, label: str) -> None:
        self.subspace.add_generator(gv)
        self.labels.append(label)

    def membership(self, x: GradedVector) -> MembershipCert:
        """Certified with a witness only if the witness re-multiplies to x.

        The check runs in every mode, ``python -O`` included: a witness that
        fails to reproduce x yields Inconclusive, never an unverified
        Certified.  It is exact, not mod P, and in integers: one
        ``basis.Sum`` adds c_i gens[i] over the integer combo c_i, then s x
        for the integer scale s, and x is reproduced only if s is nonzero
        and that sum is zero; the rational witness -c_i/s is built when
        ``cert.witness`` is first read.  Raises ``WindowOverflowError``
        when x does not fit in the window; ``certify`` reads that as
        Inconclusive.
        """
        return self.reduce(x)[1]

    def reduce(self, x: GradedVector):
        """(canonical representative of x, ``membership(x)``) from one
        reduction; the witness is re-multiplied as in ``membership``."""
        rep, witness = self.subspace.split(x)
        if witness is None:
            return rep, MembershipCert(INCONCLUSIVE, self.depth)
        combo, scale = witness
        gens = self.subspace.gens
        defect = Sum()
        for i, c in combo.items():
            defect.add(gens[i], c)
        defect.add(x, scale)
        if defect.nums or not scale:
            return rep, MembershipCert(INCONCLUSIVE, self.depth)
        return rep, MembershipCert(CERTIFIED, self.depth, combo, scale,
                                   tuple(self.labels[i] for i in sorted(combo)))

    def quotient_dims(self) -> list:
        return self.subspace.quotient_dims_by_depth()


def owned_window(cls, module: GenModule, N: int, depth: int, families: tuple):
    """The ``cls`` window of (N, families) at depth, cached on ``module`` itself.

    Each depth is built once from its own generators and never answered
    from another depth's window, so it is the same whatever the order of
    requests.
    """
    key = (cls, N, families, depth)
    ctx = module._windows.get(key)
    if ctx is None:
        ctx = module._windows[key] = cls(module, N, depth, families)
    return ctx


class ZhuContext(IdealWindow):
    """The window of O_N(V) for an algebra V."""


def zhu_context(algebra: VOAlgebra, N: int, depth: int) -> ZhuContext:
    """The window of O_N(V) at depth, owned by ``algebra``."""
    return owned_window(ZhuContext, algebra, N, depth, IDEAL_FAMILIES)


def certify_membership(algebra: VOAlgebra, N: int, x: GradedVector,
                       depth: int, retries=(2, 4)) -> MembershipCert:
    """Membership in O_N(V), escalating the window on Inconclusive."""
    return certify(lambda d: zhu_context(algebra, N, d), x, depth, retries)[0]


# --- the bottom slice of a module ----------------------------------------------

def omega0_basis(module: GenModule, N: int) -> list:
    """Basis of the bottom slice: the graded pieces of depth 0..N, for W2 and
    W3 alike.  An induced module is generated by an A_N(V)-module sitting
    there (Dong-Li-Mason 1998); the annihilator slice Omega_N contains it and
    can be larger: on M(1/2, 1/16) it also holds the level-2 singular vector,
    which generates a proper submodule."""
    return basis_window(module, N)
