"""Exact sparse linear algebra over the rationals.

Row reduction is fraction-free: rows are kept as primitive integer
dictionaries and eliminations use cross-multiplication followed by a
gcd strip, so no rational arithmetic happens inside the elimination
loop.  An optional augmented block tracks how each stored row is
assembled from the input rows as supplied, which is what turns a
successful reduction into an explicit membership witness.

The form is a plain echelon form, not a reduced one: an insert only
appends a row and its combo, and never touches a stored one.  Copying the
lists is therefore enough to fork an echelon form, and the fork and the
original share every row they have in common (``SparseEchelon.copy``,
growing a ``WindowSubspace``).
"""

from __future__ import annotations

import copy
from fractions import Fraction
from math import gcd

from .basis import GradedVector
from .errors import WindowOverflowError
from .formal import ZERO
from .modules import GenModule, basis_window


def _strip_gcd(*dicts) -> None:
    g = 0
    for d in dicts:
        for v in d.values():
            g = gcd(g, abs(v))
            if g == 1:
                return
    if g > 1:
        for d in dicts:
            for k in d:
                d[k] //= g


def _combine(a: dict, b: dict, ca: int, cb: int) -> dict:
    """ca*a + cb*b over int dicts, dropping zeros."""
    out = {}
    for k, v in a.items():
        out[k] = ca * v
    for k, v in b.items():
        s = out.get(k, 0) + cb * v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


class SparseEchelon:
    """Incrementally maintained echelon form of sparse rows.

    Each row's pivot is its highest column, which makes the *low* columns
    the surviving coset representatives when the form is used to quotient a
    graded window by a span.  With ``track_combos`` each stored row carries
    the integer combination of the input rows, as supplied, that it equals.
    """

    def __init__(self, track_combos: bool = False):
        self.rows: list[dict] = []      # primitive integer rows, distinct pivots
        self.combos: list[dict] = []    # parallel integer combo rows (input index -> coeff)
        self.pivots: dict[int, int] = {}  # pivot column -> row index
        self.track = track_combos
        self.n_inserted = 0

    @property
    def rank(self) -> int:
        return len(self.rows)

    def copy(self) -> "SparseEchelon":
        """An independent echelon form that shares this one's row dicts."""
        new = copy.copy(self)
        new.rows, new.combos = list(self.rows), list(self.combos)
        new.pivots = dict(self.pivots)
        return new

    def insert_rational(self, row: dict) -> bool:
        """Insert a Fraction-valued row; returns True if it increased the rank.

        Zero rows still consume an input index.
        """
        idx = self.n_inserted
        self.n_inserted += 1
        den = 1
        for v in row.values():
            den = den * v.denominator // gcd(den, v.denominator)
        r = {k: int(v * den) for k, v in row.items() if v != 0}
        combo = {idx: den} if self.track else {}
        while r:
            lead = max(r)
            hit = self.pivots.get(lead)
            if hit is None:
                break
            prow = self.rows[hit]
            a, b = prow[lead], r[lead]
            r = _combine(r, prow, a, -b)
            if self.track:
                combo = _combine(combo, self.combos[hit], a, -b)
            _strip_gcd(r, combo)
        if not r:
            return False
        self.rows.append(r)
        self.combos.append(combo)
        self.pivots[lead] = len(self.rows) - 1
        return True

    def reduce(self, row: dict):
        """Reduce a Fraction row; returns (remainder, combo over input rows).

        remainder is a Fraction dict supported away from all pivot columns;
        combo maps original input-row indices to rational coefficients such
        that  input_row_combination + remainder = row.
        """
        rem = {k: v for k, v in row.items() if v != 0}
        combo: dict[int, Fraction] = {}
        # eliminate from the highest pivot down: a pivot row's other entries
        # lie below its pivot, so later iterations clear what it introduces
        for lead in sorted(self.pivots, reverse=True):
            c = rem.get(lead)
            if not c:
                continue
            ridx = self.pivots[lead]
            prow = self.rows[ridx]
            t = c / prow[lead]
            for k, v in prow.items():
                s = rem.get(k, ZERO) - t * v
                if s == 0:
                    rem.pop(k, None)
                else:
                    rem[k] = s
            if self.track:
                for k, v in self.combos[ridx].items():
                    s = combo.get(k, ZERO) + t * v
                    if s == 0:
                        combo.pop(k, None)
                    else:
                        combo[k] = s
        return rem, combo

class ModuleWindow:
    """The finite-dimensional graded slice of a module up to a given depth."""

    def __init__(self, module: GenModule, depth: int):
        self.module = module
        self.depth = depth
        self.basis = basis_window(module, depth)
        self.index = {bv: i for i, bv in enumerate(self.basis)}

    def __len__(self):
        return len(self.basis)

    def dims_by_depth(self) -> list:
        return [self.module.dim_at_depth(d) for d in range(self.depth + 1)]

    def row_of(self, gv: GradedVector) -> dict:
        row = {}
        for bv, c in gv.terms.items():
            i = self.index.get(bv)
            if i is None:
                raise WindowOverflowError(
                    f"{bv} (depth {bv.depth}) outside window depth {self.depth} of {self.module.module_id}")
            row[i] = c
        return row

    def vector_of(self, row: dict) -> GradedVector:
        return GradedVector(self.module, {self.basis[i]: c for i, c in row.items()})


class WindowSubspace:
    """A row-reduced subspace of a module window, with optional witnesses.

    With ``track`` the echelon form carries combination tracking, so
    positive membership answers come with the exact rational combination of
    generators that reproduces the queried vector.

    ``base`` grows a subspace of a shallower window of the same module onto
    this one: its generators and echelon rows are taken over and ``base``
    itself is left unchanged.  The window basis is ordered by depth, so a
    shallower basis is a prefix of a deeper one and the base's column
    indices stay valid.
    """

    def __init__(self, window: ModuleWindow, track: bool = True,
                 base: "WindowSubspace | None" = None):
        self.window = window
        if base is None:
            self.ech = SparseEchelon(track_combos=track)
            self.gens: list[GradedVector] = []
        else:
            if base.window.module is not window.module or base.window.depth > window.depth:
                raise ValueError("a subspace only grows onto a deeper window of its module")
            self.ech = base.ech.copy()
            self.gens = list(base.gens)

    def add_generator(self, gv: GradedVector) -> bool:
        self.gens.append(gv)
        row = self.window.row_of(gv)
        return self.ech.insert_rational(row)

    @property
    def rank(self) -> int:
        return self.ech.rank

    def reduce(self, gv: GradedVector) -> GradedVector:
        """Canonical representative of gv modulo the subspace."""
        rem, _ = self.ech.reduce(self.window.row_of(gv))
        return self.window.vector_of(rem)

    def witness(self, gv: GradedVector):
        """None, or {generator index -> coefficient} reproducing gv exactly."""
        rem, combo = self.ech.reduce(self.window.row_of(gv))
        if rem:
            return None
        # combo indices refer to insertion order, which matches self.gens;
        # rows that failed to increase rank still consumed an index
        return {i: c for i, c in sorted(combo.items()) if c != 0}

    def quotient_dims_by_depth(self) -> list:
        """Per-depth upper bounds for the dimensions of window/(subspace)."""
        pivot_depth: dict[int, int] = {}
        for col in self.ech.pivots:
            d = self.window.basis[col].depth
            pivot_depth[d] = pivot_depth.get(d, 0) + 1
        return [self.window.module.dim_at_depth(d) - pivot_depth.get(d, 0)
                for d in range(self.window.depth + 1)]


def kernel_basis(rows: list, ncols: int) -> list:
    """Basis of the solution space of (rows) . x = 0, x in Q^ncols.

    rows are Fraction dicts keyed by column.  Returns one kernel vector
    per free column, as a Fraction dict that is 1 at that column and 0 at
    every other free column.
    """
    ech = SparseEchelon()
    for r in rows:
        ech.insert_rational(r)
    pivots = ech.pivots
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free_cols:
        sol = {fc: Fraction(1)}
        # back-substitution: a pivot row's other columns lie below its pivot,
        # so they are free or pivots already solved in ascending order
        for lead in sorted(pivots):
            prow = ech.rows[pivots[lead]]
            s = ZERO
            for k, v in prow.items():
                if k == lead:
                    continue
                xv = sol.get(k)
                if xv:
                    s += v * xv
            if s != 0:
                sol[lead] = -s / prow[lead]
        basis.append({k: v for k, v in sol.items() if v != 0})
    return basis
