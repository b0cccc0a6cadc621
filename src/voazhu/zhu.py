"""The level-N product on V, the ideal window, and the bottom-slice modules.

For a vertex operator algebra V and N >= 0 the product is

    u *_N v = sum_{m=0}^{N} (-1)^m C(m+N, N)
              Res_x x^(-N-m-1) Y((1+x)^(L(0)+N) u, x) v,

and the ideal O_N(V) is spanned by Res_x x^(-2N-1-n) Y((1+x)^(L(0)+N) u, x) v
for n >= 1 together with (L(-1) + L(0)) u.  The quotient is generally
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

from .basis import GradedVector, accumulate
from .formal import binom
from .linalg import ModuleWindow, WindowSubspace, kernel_basis
from .modules import GenModule, VOAlgebra, basis_window


# --- residue expansions ------------------------------------------------------

def weighted_residue_modes(module: GenModule, u: GradedVector, w: GradedVector,
                           binom_exponent_offset, x_power: int) -> GradedVector:
    """Res_x x^(x_power) Y((1+x)^(L(0)_s + offset) u, x) w, expanded exactly.

    u must be an algebra vector; the (1+x) exponent applied to a weight-d
    component of u is d + offset.  Unfolds to
    sum_j C(d + offset, j) Y_(j + x_power)(u_d) w.
    """
    acc: dict = {}
    for wt, comp in u.homogeneous_components().items():
        a = wt + binom_exponent_offset
        j_top = module.mode_vanishing_bound(comp, w) - x_power
        for j in range(0, max(0, j_top)):
            c = binom(a, j)
            if c == 0:
                continue
            term = module.mode_action(comp, j + x_power, w)
            if term.is_zero():
                continue
            accumulate(acc, term, c)
    return GradedVector(module, acc)


def star_product(module: GenModule, u: GradedVector, w: GradedVector, N: int) -> GradedVector:
    """u *_N w with u in the algebra and w in the module (left action)."""
    out = module.zero()
    for m in range(N + 1):
        c = Fraction((-1) ** m) * binom(Fraction(m + N), N)
        out = out + weighted_residue_modes(module, u, w, N, -N - m - 1) * c
    return out


def circ_residue(module: GenModule, u: GradedVector, w: GradedVector,
                 N: int, n: int = 1) -> GradedVector:
    """Res_x x^(-2N-1-n) Y((1+x)^(L(0)+N) u, x) w - an O_N generator for n >= 1."""
    if n < 1:
        raise ValueError("circ generator index n must be >= 1")
    return weighted_residue_modes(module, u, w, N, -2 * N - 1 - n)


def lp_element(module: GenModule, w: GradedVector) -> GradedVector:
    """(L(-1) + L(0)_s) w, the second family of ideal generators."""
    omega = module.algebra.omega()
    lm1 = module.mode_action(omega, 0, w)
    l0 = module.zero()
    for wt, comp in w.homogeneous_components().items():
        l0 = l0 + comp * wt
    return lm1 + l0


def o_action(module: GenModule, u: GradedVector, w: GradedVector) -> GradedVector:
    """o(u) w = Y_(wt u - 1)(u) w, the weight-preserving zero mode."""
    out = module.zero()
    for wt, comp in u.homogeneous_components().items():
        if wt.denominator != 1:
            raise ValueError("o(u) needs integer-weight algebra components")
        out = out + module.mode_action(comp, int(wt) - 1, w)
    return out


# --- membership certificates -------------------------------------------------

CERTIFIED = "certified"
INCONCLUSIVE = "inconclusive"


@dataclass
class MembershipCert:
    status: str
    window_depth: int
    witness: dict | None = None   # generator index -> rational coefficient
    labels: tuple = ()            # labels of the generators used

    @property
    def certified(self) -> bool:
        return self.status == CERTIFIED

    def witness_size(self) -> int:
        return 0 if not self.witness else len(self.witness)


def verified_cert(subspace: WindowSubspace, labels: list, depth: int,
                  x: GradedVector) -> MembershipCert:
    """Certified with a witness only if the witness re-multiplies to x.

    The check runs in every mode, ``python -O`` included: a witness that
    fails to reproduce x yields Inconclusive, never an unverified Certified.
    """
    witness = subspace.witness(x)
    if witness is None:
        return MembershipCert(INCONCLUSIVE, depth)
    rebuilt = subspace.window.module.zero()
    for i, c in witness.items():
        rebuilt = rebuilt + subspace.gens[i] * c
    if rebuilt != x:
        return MembershipCert(INCONCLUSIVE, depth)
    return MembershipCert(CERTIFIED, depth, witness, tuple(labels[i] for i in witness))


def cached_context(cache: dict, key: tuple, module: GenModule, depth: int, build):
    """The window cached under (key, depth), else ``build(base)`` cached there.

    ``base`` is the deepest cached window of the same key and module that is
    shallower than depth, or None; ``build`` grows it to depth.  A window is
    never answered from a deeper one, so each depth stays the span of exactly
    its own generators.
    """
    ctx = cache.get(key + (depth,))
    if ctx is not None and ctx.window.module is module:
        return ctx
    base = max((c for k, c in cache.items()
                if k[:-1] == key and c.depth < depth and c.window.module is module),
               key=lambda c: c.depth, default=None)
    ctx = cache[key + (depth,)] = build(base)
    return ctx


# --- algebra-side context ------------------------------------------------------

class ZhuContext:
    """Windowed data for (V, N): the ideal span inside depth <= D.

    ``base``, a context for the same (V, N) at a shallower depth, is grown
    rather than rebuilt: only the generators that are new at depth D are
    enumerated and eliminated.  ``base`` itself is left unchanged.
    """

    def __init__(self, algebra: VOAlgebra, N: int, depth: int,
                 base: "ZhuContext | None" = None):
        self.algebra = algebra
        self.N = N
        self.depth = depth
        self.window = ModuleWindow(algebra, depth)
        self.subspace = WindowSubspace(self.window, track=True,
                                       base=base.subspace if base else None)
        self.labels: list[str] = list(base.labels) if base else []
        self._enumerate(base.depth if base else 0)

    def _enumerate(self, have: int) -> None:
        """Add the generators of depth D that the depth-``have`` window lacks."""
        alg, N, D = self.algebra, self.N, self.depth
        # (L(-1) + L(0)) u family: output depth = wt u + 1
        for a in range(have, D):
            for u_bv in alg.basis_at_depth(a):
                u = GradedVector(alg, {u_bv: Fraction(1)})
                self._add(lp_element(alg, u), f"lp[{u_bv}]")
        # residue family, ordered by (wt u, wt v, n); the depth-``have``
        # window holds those with wt u + wt v + n + 2N <= have
        for a in range(1, D + 1):
            for b in range(0, D - a + 1):
                for n in range(max(1, have - a - b - 2 * N + 1), D - a - b - 2 * N + 1):
                    for u_bv in alg.basis_at_depth(a):
                        u = GradedVector(alg, {u_bv: Fraction(1)})
                        for v_bv in alg.basis_at_depth(b):
                            v = GradedVector(alg, {v_bv: Fraction(1)})
                            gen = circ_residue(alg, u, v, N, n)
                            self._add(gen, f"circ[{u_bv};{v_bv};n={n}]")

    def _add(self, gv: GradedVector, label: str) -> None:
        self.subspace.add_generator(gv)
        self.labels.append(label)

    # products bound to this context's window ------------------------------

    def star(self, u: GradedVector, v: GradedVector) -> GradedVector:
        out = star_product(self.algebra, u, v, self.N)
        self.window.row_of(out)  # raises WindowOverflowError if outside
        return out

    def circ(self, u: GradedVector, v: GradedVector, n: int = 1) -> GradedVector:
        return circ_residue(self.algebra, u, v, self.N, n)

    def membership(self, x: GradedVector) -> MembershipCert:
        return verified_cert(self.subspace, self.labels, self.depth, x)

    def quotient_dims(self) -> list:
        return self.subspace.quotient_dims_by_depth()


_context_cache: dict = {}


def zhu_context(algebra: VOAlgebra, N: int, depth: int) -> ZhuContext:
    """The cached window of O_N(V) at depth, grown from a shallower one.

    The first request for a depth builds its context from the deepest
    cached shallower context of (V, N), if any, adding only the new
    generators.  The result is the span of exactly the depth-D generators,
    whatever the order of requests.
    """
    return cached_context(_context_cache, (algebra.module_id, N), algebra, depth,
                          lambda base: ZhuContext(algebra, N, depth, base))


def certify_membership(algebra: VOAlgebra, N: int, x: GradedVector,
                       depth: int, retries=(2, 4)) -> MembershipCert:
    """Membership with automatic window enlargement on Inconclusive."""
    cert = zhu_context(algebra, N, depth).membership(x)
    for extra in retries:
        if cert.certified:
            return cert
        cert = zhu_context(algebra, N, depth + extra).membership(x)
    return cert


# --- bottom slices of a module -------------------------------------------------

def omega0_basis(module: GenModule, N: int) -> list:
    """Basis of the bottom N+1 graded pieces (always inside the annihilator slice)."""
    return basis_window(module, N)


def omega_subspace(module: GenModule, N: int, depth_max: int,
                   gen_weight_max: int) -> WindowSubspace:
    """Kernel of all modes lowering weight by more than N, inside the window.

    Constraints range over homogeneous algebra elements of weight up to
    gen_weight_max; raising that bound can only shrink the result, so the
    answer is a superset of the true annihilator slice in the window.
    """
    window = ModuleWindow(module, depth_max)
    alg = module.algebra
    rows: list[dict] = []
    for a in range(1, gen_weight_max + 1):
        for u_bv in alg.basis_at_depth(a):
            u = GradedVector(alg, {u_bv: Fraction(1)})
            for lowering in range(N + 1, depth_max + 1):
                k = a + lowering - 1  # wt u - k - 1 = -lowering
                cols: dict = {}
                for j, w_bv in enumerate(window.basis):
                    if w_bv.depth < lowering:
                        continue  # lands below the lowest weight: zero anyway
                    out = module.mode_action(u, k, GradedVector(module, {w_bv: Fraction(1)}))
                    for bv2, c in out.terms.items():
                        cols.setdefault(bv2, {})[j] = c
                for bv2, row in cols.items():
                    rows.append(row)
    sols = kernel_basis(rows, len(window.basis))
    sub = WindowSubspace(window, track=False)
    for sol in sols:
        sub.add_generator(window.vector_of(sol))
    return sub
