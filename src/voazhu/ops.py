"""Derived vertex-operator constructions on lower-bounded modules.

Covers the commutator-formula check and the module-to-algebra operator
Y_{WV}(w,x)u = e^{xL(-1)} Y_W(u,-x) w in mode form.  Nothing here keeps a
cache: every mode comes from the memoized mode tables each module owns
(its vertex operator and its Y_{WV}).
"""

from __future__ import annotations

from .basis import GradedVector, Sum
from .formal import binom
from .modules import GenModule


def commutator_check(module: GenModule, u: GradedVector, m: int,
                     v: GradedVector, n: int, w: GradedVector) -> bool:
    """Does [Y_m(u), Y_n(v)] w = sum_j C(m,j) Y_{m+n-j}(Y_j(u)v) w hold exactly?"""
    alg = module.algebra
    defect = Sum()   # left side minus right side
    defect.add(module.mode_action(u, m, module.mode_action(v, n, w)))
    defect.add(module.mode_action(v, n, module.mode_action(u, m, w)), -1)
    for j in range(alg.mode_vanishing_bound(u, v)):
        c = binom(m, j)
        if c == 0:
            continue
        uv = alg.mode_action(u, j, v)
        if uv.is_zero():
            continue
        defect.add(module.mode_action(uv, m + n - j, w), -c)
    return not defect.terms()


def ywv_mode(module: GenModule, w: GradedVector, n, u: GradedVector) -> GradedVector:
    """The x^(-n-1) coefficient of Y_WV(w, x)u = e^{xL(-1)} Y_W(u, -x) w, for
    integer n: a lookup in the module's Y_WV mode table (type (W; W, V))."""
    return module._ywv_modes.apply(w, n, u)
