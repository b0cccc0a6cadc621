"""Derived vertex-operator constructions on lower-bounded modules.

Covers the commutator-formula check, the opposite operator
Y^o(v,x) = Y(e^{xL(1)} (-x^-2)^{L(0)} v, x^-1), the contragredient pairing,
the module-to-algebra operator Y_{WV}(w,x)u = e^{xL(-1)} Y_W(u,-x) w in mode
form, and the grading-marker conjugation identity.  Nothing here keeps a
cache: every mode comes from the memoized mode tables each module owns
(its vertex operator and its Y_{WV}).
"""

from __future__ import annotations

from fractions import Fraction

from .basis import GradedVector, sort_key
from .formal import as_scalar, binom
from .modules import GenModule, basis_window


def commutator_check(module: GenModule, u: GradedVector, m: int,
                     v: GradedVector, n: int, w: GradedVector) -> bool:
    """Does [Y_m(u), Y_n(v)] w = sum_j C(m,j) Y_{m+n-j}(Y_j(u)v) w hold exactly?"""
    alg = module.algebra
    lhs = (module.mode_action(u, m, module.mode_action(v, n, w))
           - module.mode_action(v, n, module.mode_action(u, m, w)))
    rhs = module.zero()
    for j in range(alg.mode_vanishing_bound(u, v)):
        c = binom(m, j)
        if c == 0:
            continue
        uv = alg.mode_action(u, j, v)
        if uv.is_zero():
            continue
        rhs = rhs + module.mode_action(uv, m + n - j, w) * c
    return lhs == rhs


def l_plus1_orbit(alg, v: GradedVector) -> list:
    """[v, L(1)v, L(1)^2 v, ...] until the orbit hits zero."""
    omega = alg.omega()
    orbit = [v]
    cur = v
    while not cur.is_zero():
        cur = alg.mode_action(omega, 2, cur)
        orbit.append(cur)
    return orbit[:-1]


def opposite_mode(module: GenModule, v: GradedVector, n: int, w: GradedVector) -> GradedVector:
    """(Y^o_W)_n(v) w, expanded into finitely many ordinary modes.

    For homogeneous v of integer weight d the defining formula unfolds to
    (-1)^d sum_j (1/j!) Y_{2d - n - j - 2}(L(1)^j v) w.
    """
    alg = module.algebra
    out = module.zero()
    for wt, comp in v.homogeneous_components().items():
        if wt.denominator != 1:
            raise ValueError("opposite operator needs integer-weight algebra elements")
        d = int(wt)
        sign = (-1) ** d
        fact = Fraction(1)
        for j, lv in enumerate(l_plus1_orbit(alg, comp)):
            if j > 0:
                fact /= j
            out = out + module.mode_action(lv, 2 * d - n - j - 2, w) * (sign * fact)
    return out


class DualVector:
    """A graded-dual functional with finite support on the module's basis."""

    __slots__ = ("module", "coords")

    def __init__(self, module: GenModule, coords=None):
        self.module = module
        self.coords = {bv: as_scalar(c) for bv, c in (coords or {}).items() if c != 0}

    def pair(self, w: GradedVector) -> int | Fraction:
        return sum(self.coords[bv] * c for bv, c in w.terms.items() if bv in self.coords)

    def __eq__(self, other):
        return isinstance(other, DualVector) and self.coords == other.coords

    def __repr__(self):
        body = " + ".join(f"({c})*[{bv}]'" for bv, c in
                          sorted(self.coords.items(), key=lambda t: sort_key(t[0])))
        return body or "0"


def contragredient_mode(module: GenModule, v: GradedVector, n: int,
                        wp: DualVector, window_depth: int) -> DualVector:
    """(Y'_W)_n(v) w' assembled on a finite window by transposing (Y^o_W)_n(v)."""
    coords: dict = {}
    for bv in basis_window(module, window_depth):
        val = wp.pair(opposite_mode(module, v, n,
                                    GradedVector(module, {bv: 1})))
        if val != 0:
            coords[bv] = val
    return DualVector(module, coords)


def contragredient_pairing_check(module: GenModule, v: GradedVector, n: int,
                                 wp: DualVector, w: GradedVector,
                                 window_depth: int | None = None) -> bool:
    """<(Y')_n(v) w', w> = <w', (Y^o)_n(v) w> on the given components."""
    if window_depth is None:
        window_depth = w.max_depth()
    lhs = contragredient_mode(module, v, n, wp, window_depth).pair(w)
    rhs = wp.pair(opposite_mode(module, v, n, w))
    return lhs == rhs


def ywv_mode(module: GenModule, w: GradedVector, n, u: GradedVector) -> GradedVector:
    """The x^(-n-1) coefficient of Y_WV(w, x)u = e^{xL(-1)} Y_W(u, -x) w, for
    integer n: a lookup in the module's Y_WV mode table (type (W; W, V))."""
    return module._ywv_modes.apply(w, n, u)


def l0s_conjugation_check(module: GenModule, u: GradedVector, n: int,
                          w: GradedVector) -> bool:
    """Check y^{L(0)_s} Y_n(u) y^{-L(0)_s} w = y^{wt u - n - 1} Y_n(u) w formally.

    Both sides are expanded as maps (marker exponent) -> vector; u must be
    homogeneous for the right side to be a single power of the marker.
    """
    d = u.weight()
    lhs: dict = {}
    for wt_in, comp in w.homogeneous_components().items():
        out = module.mode_action(u, n, comp)
        for wt_out, piece in out.homogeneous_components().items():
            expo = wt_out - wt_in
            cur = lhs.get(expo)
            lhs[expo] = piece if cur is None else cur + piece
    lhs = {e: p for e, p in lhs.items() if not p.is_zero()}
    full = module.mode_action(u, n, w)
    rhs = {} if full.is_zero() else {d - n - 1: full}
    return lhs == rhs
