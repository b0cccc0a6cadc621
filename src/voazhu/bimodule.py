"""The two-sided quotient A_N(W) = W/O_N(W) of a lower-bounded module.

Left and right actions of the algebra on W:

    u *_N w = sum_m (-1)^m C(m+N,N) Res_x x^(-N-m-1) Y_W((1+x)^(L(0)_s+N) u, x) w
    w *_N u = sum_m (-1)^m C(m+N,N) Res_x x^(-N-m-1) Y_WV((1+x)^(L(0)_s+N) w, x) u

with O_N(W) spanned by (L(-1) + L(0)_s) w and by
u o_N w = Res_x x^(-2N-2) Y_W((1+x)^(L(0)_s+N) u, x) w.  The alternative
right action *_N' uses only Y_W modes and agrees with *_N on the quotient.
All congruences asserted about these actions are certified through the
windowed membership oracle; the checks here assemble the exact difference
vectors and ask for a witness.
"""

from __future__ import annotations

from .basis import GradedVector
from .modules import GenModule
from .ops import ywv_mode
from .zhu import (IDEAL_FAMILIES, IdealWindow, MembershipCert, certify,
                  circ_residue, circ_terms, lp_element, owned_window, residue,
                  star_alt_terms, star_product, star_terms)


def left_star(module: GenModule, u: GradedVector, w: GradedVector, N: int) -> GradedVector:
    """u *_N w (left action of the algebra on the module)."""
    return star_product(module, u, w, N)


def right_star(module: GenModule, w: GradedVector, u: GradedVector, N: int) -> GradedVector:
    """w *_N u (right action, through the module-to-algebra operator)."""
    return residue(module, w, u, star_terms(N), ywv_mode)


def right_star_alt(module: GenModule, w: GradedVector, u: GradedVector, N: int) -> GradedVector:
    """The alternative right action w *_N' u, using only Y_W modes."""
    return residue(module, u, w, star_alt_terms(N))


def circ_w(module: GenModule, u: GradedVector, w: GradedVector, N: int,
           p: int = 0, q: int = 0) -> GradedVector:
    """u o_N w, or its deep-power variant Res_x x^(-2N-2-p) (1+x)^(L(0)_s+N+q)."""
    return residue(module, u, w, circ_terms(N, p, q))


def circ_wv(module: GenModule, w: GradedVector, u: GradedVector, N: int,
            p: int = 0, q: int = 0) -> GradedVector:
    """w o_N u (membership in O_N(W) is a theorem, certified in the tests)."""
    return residue(module, w, u, circ_terms(N, p, q), ywv_mode)


class BimoduleContext(IdealWindow):
    """The window of O_N(W) for a module W, or of the span of some of its
    families."""


def bimodule_context(module: GenModule, N: int, depth: int) -> BimoduleContext:
    """The window of O_N(W) at depth, owned by W."""
    return owned_window(BimoduleContext, module, N, depth, IDEAL_FAMILIES)


def intertwiner_ideal_context(module: GenModule, N: int, depth: int) -> BimoduleContext:
    """Windowed span of the residue family alone - the relations any
    intertwining operator's induced map is guaranteed to annihilate."""
    return owned_window(BimoduleContext, module, N, depth, ("circ",))


def certify_bimodule_membership(module: GenModule, N: int, x: GradedVector,
                                depth: int, retries=(2, 4)) -> MembershipCert:
    """Membership in O_N(W), escalating the window on Inconclusive."""
    return certify(lambda d: bimodule_context(module, N, d), x, depth, retries)[0]


# --- assembled congruence checks ---------------------------------------------

def action_swap_defect(module: GenModule, u: GradedVector, w: GradedVector,
                       N: int) -> GradedVector:
    """Left action minus its rewriting through the module-to-algebra operator,

        u *_N w - sum_m C(m+N,N)(-1)^N Res_x x^(-N-m-1) Y_WV((1+x)^(L(0)_s+m-1) w, x) u,

    a member of O_N(W).  Its mirror is the "right_agreement" axiom's defect.
    """
    return left_star(module, u, w, N) - residue(module, w, u, star_alt_terms(N), ywv_mode)


def commutator_defect(module: GenModule, u: GradedVector, w: GradedVector,
                      N: int, mirrored: bool = False) -> GradedVector:
    """u *_N w - w *_N u - Res_x Y_W((1+x)^(L(0)_s - 1) u, x) w (or mirrored)."""
    terms = star_terms(N) + [(-1, -1, 0)]
    if mirrored:
        return residue(module, w, u, terms, ywv_mode) - left_star(module, u, w, N)
    return residue(module, u, w, terms) - right_star(module, w, u, N)


AXIOM_IDS = (
    "lw_left",        # (L(-1)w + L(0)_s w) *_N u in O_N(W)
    "lw_right",       # u *_N (L(-1)w + L(0)_s w) in O_N(W)
    "circ_left",      # (u o_N w) *_N v in O_N(W)
    "circ_right",     # v *_N (u o_N w) in O_N(W)
    "ideal_left",     # (L(-1)u + L(0)u) *_N w in O_N(W)
    "ideal_right",    # w *_N (L(-1)u + L(0)u) in O_N(W)
    "ideal_circ_left",   # (u o_N,1 v) *_N w in O_N(W)
    "ideal_circ_right",  # w *_N (v o_N,1 u) in O_N(W)
    "assoc_left",     # u *_N (v *_N w) == (u *_N v) *_N w mod O_N(W)
    "assoc_right",    # w *_N (v *_N u) == (w *_N v) *_N u mod O_N(W)
    "actions_commute",  # (u *_N w) *_N v == u *_N (w *_N v) mod O_N(W)
    "right_agreement",  # w *_N u == w *_N' u mod O_N(W)
)


def axiom_defect(module: GenModule, axiom_id: str, u: GradedVector,
                 v: GradedVector, w: GradedVector, N: int) -> GradedVector:
    """The exact vector whose ideal membership expresses the named axiom."""
    alg = module.algebra
    if axiom_id == "lw_left":
        return right_star(module, lp_element(module, w), u, N)
    if axiom_id == "lw_right":
        return left_star(module, u, lp_element(module, w), N)
    if axiom_id == "circ_left":
        return right_star(module, circ_w(module, u, w, N), v, N)
    if axiom_id == "circ_right":
        return left_star(module, v, circ_w(module, u, w, N), N)
    if axiom_id == "ideal_left":
        return left_star(module, lp_element(alg, u), w, N)
    if axiom_id == "ideal_right":
        return right_star(module, w, lp_element(alg, u), N)
    if axiom_id == "ideal_circ_left":
        return left_star(module, circ_residue(alg, u, v, N), w, N)
    if axiom_id == "ideal_circ_right":
        return right_star(module, w, circ_residue(alg, v, u, N), N)
    if axiom_id == "assoc_left":
        return (left_star(module, u, left_star(module, v, w, N), N)
                - left_star(module, star_product(alg, u, v, N), w, N))
    if axiom_id == "assoc_right":
        return (right_star(module, w, star_product(alg, v, u, N), N)
                - right_star(module, right_star(module, w, v, N), u, N))
    if axiom_id == "actions_commute":
        return (right_star(module, left_star(module, u, w, N), v, N)
                - left_star(module, u, right_star(module, w, v, N), N))
    if axiom_id == "right_agreement":
        return right_star(module, w, u, N) - right_star_alt(module, w, u, N)
    raise ValueError(f"unknown axiom id {axiom_id!r}")


def axiom_window_depth(module: GenModule, axiom_id: str, u, v, w, N: int) -> int:
    """A window depth that holds the axiom's defect, from the sample's depths
    alone, with a margin of two.  It plans windows before any defect is built
    (``bench/workloads.py``, ``tests/test_acceptance.py``); ``check_axiom``
    starts at the defect's depth."""
    du = max((bv.depth for bv in u.terms), default=0)
    dv = max((bv.depth for bv in v.terms), default=0)
    dw = max((bv.depth for bv in w.terms), default=0)
    two_sided = {"assoc_left", "assoc_right", "actions_commute",
                 "circ_left", "circ_right", "ideal_circ_left", "ideal_circ_right"}
    base = du + dv + dw + (4 * N if axiom_id in two_sided else 2 * N)
    extra = 2 if axiom_id.startswith(("circ", "ideal_circ")) else 1
    return base + extra + 2


def check_axiom(module: GenModule, axiom_id: str, u, v, w, N: int, cap=None):
    """Certify one axiom on one sample from the defect's own depth; returns
    ``certify``'s (cert, depths tried).  Sound at any start depth: a witness is
    re-multiplied, and a window too shallow only answers Inconclusive, which
    ``certify`` retries 2 and 4 levels deeper.  A zero defect certifies at depth 0."""
    defect = axiom_defect(module, axiom_id, u, v, w, N)
    return certify(lambda d: bimodule_context(module, N, d), defect, defect.max_depth(), cap=cap)
