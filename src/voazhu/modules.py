"""Lower-bounded graded modules presented by generator-mode action rules.

A module knows how its generator modes (the Heisenberg current or the
Virasoro field) act on canonical basis monomials; every composite mode
action is derived from those base rules through the iterate formula

    (a_(m) u)_(n) w = sum_{i>=0} (-1)^i C(m,i)
                      [ a_(m-i) u_(n+i) w  -  (-1)^m u_(m+n-i) a_(i) w ],

with both inner sums finite because the module is lower bounded.  One
memoized ``ModeTable`` carries it for a module's vertex operator (type
(W; V, W)), its module-to-algebra operator Y_WV (type (W; W, V)) and an
intertwining operator's modes, one table per log power.  The vertex
operator's table answers its leaves u = 1 and u = a_(m)1 in closed form
(``ModeTable._vacuum_leaf``): the iterate formula would sum to the same
value over vacuum modes that are all zero but one.  Instances are
immutable after construction; the per-instance caches (modes, residues and
ideal windows) only ever map a key to one value, so concurrent readers
always observe identical results.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .basis import BasisVector, GradedVector, Sum, canonical_modes, sort_key
from .errors import DepthExceededError, UnknownGeneratorError
from .formal import as_scalar, binom


# 282 distinct keys after ``run_suite`` at n_values (2, 3); the bound keeps a
# long session's memory flat.
@lru_cache(maxsize=1024)
def partitions(total: int, min_part: int = 1, max_part: int | None = None) -> tuple:
    """All non-increasing tuples of integers >= min_part summing to total."""
    if total == 0:
        return ((),)
    if total < min_part:
        return ()
    cap = total if max_part is None else min(max_part, total)
    out = []
    for first in range(cap, min_part - 1, -1):
        for rest in partitions(total - first, min_part, first):
            out.append((first,) + rest)
    return tuple(out)


class GenModule:
    """Base class: a lower-bounded generalized module in a single weight coset."""

    def __init__(self, module_id: str, lowest_weight, algebra=None, min_part: int = 1):
        self.module_id = module_id
        self.lowest_weight = Fraction(as_scalar(lowest_weight))
        self.algebra = algebra if algebra is not None else self
        self.min_part = min_part
        self._gen_cache: dict = {}
        self._windows: dict = {}   # (class, N, families, depth) -> window
        self._residues: dict = {}  # (mode, terms) -> {(u_bv, w_bv): zhu.residue}
        self._lp_elements: dict = {}  # w_bv -> zhu.lp_element
        self._modes = ModeTable(self.algebra, self, self, None)
        self._mode_cache = self._modes.memo
        self._ywv_modes = ModeTable(self, self.algebra, self, self._ywv_bottom)

    # --- presentation supplied by subclasses -------------------------------

    def generator_tags(self) -> dict:
        """tag -> weight of the generating field."""
        raise NotImplementedError

    def gen_action_basis(self, tag: str, p: int, bv: BasisVector) -> GradedVector:
        """Action of the generator mode with physics index p on one monomial."""
        raise NotImplementedError

    # --- basis bookkeeping --------------------------------------------------

    def zero(self) -> GradedVector:
        return GradedVector(self)

    def lw(self) -> GradedVector:
        """The lowest weight vector as a GradedVector."""
        return GradedVector(self, {BasisVector(self.module_id, ()): 1})

    def basis_vector(self, modes) -> BasisVector:
        bv = BasisVector(self.module_id, canonical_modes(modes))
        self._validate(bv)
        return bv

    def monomial(self, modes, coeff=1) -> GradedVector:
        return GradedVector(self, {self.basis_vector(modes): as_scalar(coeff)})

    def _validate(self, bv: BasisVector) -> None:
        tags = self.generator_tags()
        for g, m in bv.modes:
            if g not in tags:
                raise UnknownGeneratorError(f"module {self.module_id} has no generator {g!r}")
            if -m < self.min_part:
                raise ValueError(f"mode {g}({m}) below the module's minimal lowering {self.min_part}")

    def basis_at_depth(self, d: int) -> list:
        tag = next(iter(self.generator_tags()))
        return [
            BasisVector(self.module_id, tuple((tag, -part) for part in parts))
            for parts in partitions(d, self.min_part)
        ]

    def dim_at_depth(self, d: int) -> int:
        return len(partitions(d, self.min_part))

    # --- generator action, linear extension --------------------------------

    def gen_action(self, tag: str, p: int, w) -> GradedVector:
        if isinstance(w, BasisVector):
            key = (tag, p, w)
            hit = self._gen_cache.get(key)
            if hit is None:
                hit = self.gen_action_basis(tag, p, w)
                self._gen_cache[key] = hit
            return hit
        acc = Sum()
        for bv, c in w.terms.items():
            acc.add(self.gen_action(tag, p, bv), c)
        return GradedVector._of(self, acc.terms())

    # --- composite mode action ----------------------------------------------

    def mode_action(self, u: GradedVector, n: int, w: GradedVector) -> GradedVector:
        """(Y_W)_n(u) w for u in the algebra, computed exactly."""
        if u.module.module_id != self.algebra.module_id:
            raise ValueError("mode_action: u must live in the algebra")
        return self._modes.apply(u, n, w)

    def _ywv_bottom(self, n: int, u_bv: BasisVector, d_out: int) -> GradedVector:
        """Y_WV(lw, x) u at x^(-n-1), from e^{xL(-1)} Y_W(u, -x) lw: the sum
        over j <= d_out of ((-1)^(n+j+1)/j!) L(-1)^j Y_{n+j}(u) lw, Horner-wise."""
        omega, lw_bv = self.algebra.omega(), BasisVector(self.module_id, ())
        acc = self.zero()
        for j in range(d_out, -1, -1):
            step = Sum()
            step.add(self._modes.apply(omega, 0, acc), Fraction(1, j + 1))
            step.add(self._modes.basis(u_bv, n + j, lw_bv), 1 if (n + j) % 2 else -1)
            acc = GradedVector._of(self, step.terms())
        return acc

    # --- truncation helpers --------------------------------------------------

    def mode_vanishing_bound(self, u: GradedVector, w: GradedVector) -> int:
        """A weight bound b: mode_action(u, n, w) = 0 for n >= b, as the output
        would lie below depth 0.  Not always the smallest: on fock(0), b = 1 for
        (alpha, lw) but Y_0(alpha) lw = 0."""
        if u.is_zero() or w.is_zero():
            return 0
        return max(bv.depth for bv in u.terms) + max(bv.depth for bv in w.terms)

    def __repr__(self):
        return f"<{type(self).__name__} {self.module_id}>"


def bilinear(out: GenModule, u: GradedVector, w: GradedVector, entry,
             *args) -> GradedVector:
    """The sum of cu cw entry(u_bv, *args, w_bv) over the terms cu u_bv of u
    and cw w_bv of w, a vector of ``out``: the package's one loop over pairs
    of basis vectors.  For single basis vectors with coefficient 1 it is the
    entry itself, not a copy, so callers must not edit what it returns."""
    if len(u.terms) == len(w.terms) == 1:
        (u_bv, cu), = u.terms.items()
        (w_bv, cw), = w.terms.items()
        if cu == cw == 1:
            return entry(u_bv, *args, w_bv)
    acc = Sum()
    for u_bv, cu in u.terms.items():
        for w_bv, cw in w.terms.items():
            acc.add(entry(u_bv, *args, w_bv), cu * cw)
    return GradedVector._of(out, acc.terms())


class ModeTable:
    """Memoized modes u_(n) w, for basis monomials u of ``first`` and w of
    ``src``, with values in ``out``.

    A module's vertex operator is ``ModeTable(algebra, W, W, None)``, whose
    vacuum leaves u = 1 and u = a_(m)1 have closed forms (``_vacuum_leaf``),
    its module-to-algebra operator ``ModeTable(W, algebra, W, Y_WV(lw))``,
    the free-boson intertwiner ``ModeTable(F_lam, F_mu, F_{lam+mu},
    exponential)``, whose bottom modes recurse on the table itself;
    ``bottom(n, w, d_out)`` is the mode of the bottom vector of ``first``,
    and every table with a ``bottom`` runs the iterate formula down to it.
    A synthetic intertwiner's finite tables override ``_compute`` to read
    zero on a miss.  ``apply`` extends the memo to vectors through
    ``bilinear``, the package's one loop over pairs of basis vectors.  The
    output depth is d_out = depth u + depth w - n - 1 + offset with
    offset = h_first + h_src - h_out, so n must lie in the exponent coset
    offset + Z; ``depth_max``, when set, bounds d_out.
    """

    depth_max = None

    def __init__(self, first: GenModule, src: GenModule, out: GenModule, bottom):
        self.first, self.src, self.out, self.bottom = first, src, out, bottom
        offset = first.lowest_weight + src.lowest_weight - out.lowest_weight
        # an int keeps a module's keys and depths int
        self.offset = int(offset) if offset.denominator == 1 else offset
        self.memo: dict = {}

    def apply(self, u: GradedVector, n, w: GradedVector) -> GradedVector:
        """u_(n) w extended bilinearly; ``_compute`` rejects n outside offset + Z.

        For single basis vectors with coefficient 1, the shape of every mode
        that ``zhu.residue`` asks for, this is the memo entry itself, not a
        copy."""
        n = int(n) if n.denominator == 1 else n
        return bilinear(self.out, u, w, self.basis, n)

    def basis(self, u_bv: BasisVector, n, w_bv: BasisVector) -> GradedVector:
        key = (u_bv, n, w_bv)
        hit = self.memo.get(key)
        if hit is None:
            hit = self.memo[key] = self._compute(u_bv, n, w_bv)
        return hit

    def _compute(self, u_bv: BasisVector, n, w_bv: BasisVector) -> GradedVector:
        """The bottom mode or vacuum leaf, or (a_(m) u')_(n) w by the iterate
        formula for u = a(p) u', a of weight g and m = p + g - 1.

        The first sum stops at i = d_out + p, where u'_(n+i) w reaches depth
        0; the second at g - 1 + depth w, beyond which a_(i) w = 0.  When
        m >= 0 both also stop at i = m, beyond which C(m, i) = 0: p <= -g
        gives m <= -1 over an algebra or a Fock module, but a Verma first
        argument has L(-1)|h> with m = 0.
        """
        d_out = u_bv.depth + w_bv.depth - n - 1 + self.offset
        if d_out.denominator != 1:
            raise ValueError(f"mode index {n} is not in the exponent coset {self.offset} + Z")
        d_out = int(d_out)
        if d_out < 0:
            return self.out.zero()
        if self.depth_max is not None and d_out > self.depth_max:
            raise DepthExceededError(
                f"mode output depth {d_out} above configured bound {self.depth_max}")
        if self.bottom is None and len(u_bv.modes) < 2:
            out = self._vacuum_leaf(u_bv, n, w_bv)
        elif not u_bv.modes:
            out = self.bottom(n, w_bv, d_out)
        else:
            tag, p = u_bv.modes[0]
            g = self.first.algebra.generator_tags()[tag]
            m = p + g - 1
            rest = BasisVector(self.first.module_id, u_bv.modes[1:])
            acc = Sum()
            stop = m + 1 if m >= 0 else None   # C(m, i) = 0 for i > m >= 0
            # first sum: a_(m-i) u'_(n+i) w
            for i in range(0, d_out + p + 1)[:stop]:
                v = self.basis(rest, n + i, w_bv)
                if v.is_zero():
                    continue
                c = binom(m, i) * ((-1) ** i)
                for bv, cv in v.terms.items():
                    acc.add(self.out.gen_action(tag, (m - i) - g + 1, bv), c * cv)
            # second sum: u'_(m+n-i) a_(i) w
            sign = 1 if m % 2 else -1  # -(-1)**m
            for i in range(0, g + w_bv.depth)[:stop]:
                aw = self.src.gen_action(tag, i - g + 1, w_bv)
                if aw.is_zero():
                    continue
                c = binom(m, i) * ((-1) ** i) * sign
                for bv2, c2 in aw.terms.items():
                    acc.add(self.basis(rest, m + n - i, bv2), c * c2)
            out = GradedVector._of(self.out, acc.terms())
        if __debug__ and out.terms:
            assert all(bv.depth == d_out for bv in out.terms), \
                f"weight bookkeeping broken for Y_{n}({u_bv}) on {w_bv}"
        return out

    def _vacuum_leaf(self, u_bv: BasisVector, n: int, w_bv: BasisVector) -> GradedVector:
        """u_(n) w in closed form for u = 1 or u = a_(m)1, a of weight g.

        1_(n) w = delta_{n,-1} w, and the derivative property Y(a_(m)1, x) =
        d^(-m-1) a(x) / (-m-1)! gives (a_(m)1)_(n) w = C(-m-n-2, -m-1)
        a_(m+n+1) w.  Both are exact for m <= -1, which every vacuum monomial
        has (a_(m)1 = 0 for m >= 0); binom rejects any other m.
        """
        if not u_bv.modes:
            return GradedVector._of(self.out, {w_bv: 1}) if n == -1 else self.out.zero()
        (tag, p), = u_bv.modes
        g = self.first.generator_tags()[tag]
        m = p + g - 1
        c = binom(-m - n - 2, -m - 1)
        if not c:
            return self.out.zero()
        aw = self.out.gen_action(tag, m + n + 2 - g, w_bv)
        return aw if c == 1 else aw * c


class VOAlgebra(GenModule):
    """A vertex operator algebra, presented as a module over itself."""

    def __init__(self, module_id: str, central_charge, min_part: int = 1):
        super().__init__(module_id, 0, algebra=None, min_part=min_part)
        self.central_charge = Fraction(as_scalar(central_charge))

    def one(self) -> GradedVector:
        return self.lw()

    def omega(self) -> GradedVector:
        raise NotImplementedError


def basis_window(module: GenModule, depth: int) -> list:
    """All basis monomials of depth 0..depth in canonical order."""
    out = []
    for d in range(depth + 1):
        out.extend(sorted(module.basis_at_depth(d), key=sort_key))
    return out
