"""Exact sparse linear algebra over the rationals.

Row reduction is fraction-free: a row is scaled to integers once, and an
elimination step subtracts an integer multiple of the pivot row in place
when the pivot's lead divides the row's, and otherwise cross-multiplies
and strips a gcd, so no rational arithmetic happens inside the one
elimination loop (``SparseEchelon._eliminate``) that inserts and
reductions share.  Every stored row carries its combo, the combination of
the input rows it equals, which turns a reduction into a membership
witness.  ``SparseEchelon.reduce`` is the one exact query: it gives a
row's canonical representative and its witness together.

The exact form is a plain echelon form, not a reduced one, keyed by pivot
column: an insert only adds a row and its combo under a new pivot, and
never touches a stored one.

Most rows offered to an ideal window add no rank, so ``insert_rational``
clears a row's denominators once (``integer_row``, the only place that
does) and enters the integers in ``ModPEchelon``, the one mod-P form,
before any exact elimination: their image mod ``P`` is reduced against
fully reduced monic rows and stored if it is nonzero.  There is no exact
fallback: a row independent mod ``P`` of the kept rows' images is
independent over Q of the kept rows, so the exact form's rank always
equals the form mod ``P``'s.  For all but finitely many primes the exact
form keeps exactly the rows and combos it would keep without the filter,
and witnesses do not change.  For an unlucky prime a rank-adding row may
be dropped; the window then shrinks, which only raises the quotient and
fusion bounds, and every Certified answer is still re-multiplied.

The mod-P form also gives coordinates: ``ModPEchelon.remainder`` reduces
a row's image mod P, taken entry by entry (``image_mod_p``), to the form's
own non-pivot columns.  ``fusion_dim`` reads a window's quotient there,
mod P end to end.

A module window is one object, ``WindowSubspace``: its basis, generators
and echelon form; the exact form's non-pivot columns are the coset
representatives.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .basis import GradedVector
from .errors import WindowOverflowError
from .modules import GenModule, basis_window


P = 2**61 - 1   # the prime of the rank filter


def integer_row(row: dict) -> tuple[dict, int]:
    """A rational row's denominators cleared: (ints, scale) with ints the
    nonzero entries of scale * row and scale the lcm of the denominators."""
    scale = lcm(*(v.denominator for v in row.values()))
    return {k: v.numerator * (scale // v.denominator) for k, v in row.items() if v}, scale


def image_mod_p(row: dict) -> dict | None:
    """The image mod P of a rational row itself, entry by entry: its integers
    times the scale's inverse; None if P divides a denominator."""
    ints, scale = integer_row(row)
    if scale % P == 0:
        return None
    inv = pow(scale, -1, P)
    return {k: x for k, v in ints.items() if (x := v * inv % P)}


def _sub_p(r: dict, c: int, row: dict) -> None:
    """r <- r - c*row mod P, in place, dropping zeros."""
    for k, v in row.items():
        s = (r.get(k, 0) - c * v) % P
        if s:
            r[k] = s
        else:
            del r[k]


def _sub(r: dict, q: int, row: dict) -> None:
    """r <- r - q*row over int dicts, in place, dropping zeros; q is nonzero."""
    for k, v in row.items():
        s = r.get(k, 0) - q * v
        if s:
            r[k] = s
        else:
            del r[k]


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
    out = {k: ca * v for k, v in a.items()}
    for k, v in b.items():
        s = out.get(k, 0) + cb * v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


class ModPEchelon:
    """Echelon form mod P of integer rows.

    ``rows`` maps a pivot column, a row's highest, to a row mod P that is
    monic there and zero at every other pivot column, so reducing a row is
    one pass over its pivot columns.  The rank is at most the rank of the
    rows over Q, and equal to it for all but finitely many primes.

    ``remainder`` reduces a row's image mod P, entry by entry, to one
    supported on the columns that are no pivot here: the coordinates mod P
    of the quotient by the rows, which ``fusion_dim`` assembles its
    constraints from.
    """

    def __init__(self):
        self.rows: dict[int, dict] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, r: dict) -> dict:
        """r, a row mod P, reduced in place to the columns that are no pivot."""
        rows = self.rows
        for col in r.keys() & rows.keys():
            _sub_p(r, r[col], rows[col])
        return r

    def insert(self, row: dict) -> bool:
        """Add an integer row's image mod P; returns True if it increased the rank.

        The entries may have any sign and size.  The new row, made monic, is
        cleared from the stored rows in place.
        """
        r = self._reduce({k: x for k, v in row.items() if (x := v % P)})
        if not r:
            return False
        lead = max(r)
        inv = pow(r[lead], -1, P)
        new = {k: v * inv % P for k, v in r.items()}
        for prow in self.rows.values():
            c = prow.get(lead)
            if c:
                _sub_p(prow, c, new)
        self.rows[lead] = new
        return True

    def remainder(self, row: dict) -> dict | None:
        """A rational row's image mod P, reduced to the columns that are no
        pivot; None if P divides a denominator.  The image is
        ``image_mod_p(row)``, of the row itself: the image of its cleared
        integers (``integer_row``) is a multiple of it, fine for a rank but
        not for coordinates."""
        r = image_mod_p(row)
        return None if r is None else self._reduce(r)


class SparseEchelon:
    """Incrementally maintained echelon form of sparse rows.

    Each row's pivot is its highest column, which makes the *low* columns
    the surviving coset representatives when the form is used to quotient a
    graded window by a span.  ``rows`` maps a pivot column to its stored
    integer row and the integer combination of the input rows, as
    supplied, that the row equals.

    ``rows_p`` is a ``ModPEchelon`` of the kept input rows and filters
    ``insert_rational``: a row whose image mod P adds no rank there is
    dropped before any exact elimination, and every other row adds rank to
    both forms, so ``rank == rows_p.rank``.
    """

    def __init__(self):
        # pivot column -> (row, combo over input indices); not primitive:
        # a cross-multiplying step strips the gcd from a row and its combo
        # together, a subtracting step strips none
        self.rows: dict[int, tuple[dict, dict]] = {}
        self.rows_p = ModPEchelon()
        self.n_inserted = 0

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _eliminate(self, r: dict, combo: dict) -> tuple:
        """Clear r's pivot leads, highest first, with the combo alongside.
        For a pivot row with lead a and r's lead b: if a divides b, r <-
        r - (b//a)*row, in place; otherwise r <- a*r - b*row, then strip
        the joint gcd of r and its combo.  Either way (r, combo) changes by
        the same factor, so the reduced row and witness it gives do not
        depend on which step was taken.  The stored rows are never written.
        Stops at r = 0 or at a lead that is no pivot; returns the new (r,
        combo), which may be the dicts passed in.
        """
        while r:
            lead = max(r)
            hit = self.rows.get(lead)
            if hit is None:
                break
            prow, pcombo = hit
            a, b = prow[lead], r[lead]
            if b % a:
                r = _combine(r, prow, a, -b)
                combo = _combine(combo, pcombo, a, -b)
                _strip_gcd(r, combo)
            else:
                q = b // a
                _sub(r, q, prow)
                _sub(combo, q, pcombo)
        return r, combo

    def _append(self, r: dict, combo: dict) -> None:
        self.rows[max(r)] = r, combo

    def insert_rational(self, row: dict) -> bool:
        """Insert a rational row; returns True if it increased the rank.

        A row whose image mod P adds no rank to ``rows_p`` is dropped
        unreduced; dropped and zero rows still consume an input index.
        """
        key = self.n_inserted
        self.n_inserted += 1
        ints, scale = integer_row(row)
        if not self.rows_p.insert(ints):
            return False
        self._append(*self._eliminate(ints, {key: scale}))
        return True

    def reduce(self, row: dict):
        """Reduce a rational row; returns (rest, combo over input rows).

        rest is a Fraction dict supported away from all pivot columns;
        combo maps original input-row indices to rational coefficients such
        that  input_row_combination + rest = row.
        """
        # the row is a virtual input keyed None, so r = combo[None] * row +
        # stored inputs; a lead that is no pivot is final and set aside
        ints, scale = integer_row(row)
        r, combo = self._eliminate(ints, {None: scale})
        rest = {}
        while r:
            lead = max(r)
            rest[lead] = Fraction(r.pop(lead), combo[None])
            r, combo = self._eliminate(r, combo)
        s = combo.pop(None)
        return rest, {i: Fraction(-c, s) for i, c in combo.items()}


class WindowSubspace:
    """The graded slice of a module up to a depth, column i being
    ``basis[i]``, and a row-reduced subspace of it with witnesses: positive
    membership answers come with the exact rational combination of
    generators that reproduces the queried vector.  The columns that are
    no pivot, ``cosets()``, are the coset representatives of the quotient;
    ``split`` reduces a vector to its canonical representative over them
    and its witness in one pass, and ``reduce`` keeps the representative.
    """

    def __init__(self, module: GenModule, depth: int):
        self.module = module
        self.depth = depth
        self.basis = basis_window(module, depth)
        self.index = {bv: i for i, bv in enumerate(self.basis)}
        self.ech = SparseEchelon()
        self.gens: list[GradedVector] = []

    def row_of(self, gv: GradedVector) -> dict:
        """gv as a row over the window's columns.  Raises ``ValueError`` for a
        vector of another module and ``WindowOverflowError`` for one deeper
        than the window."""
        if gv.module.module_id != self.module.module_id:
            raise ValueError(f"a vector of {gv.module.module_id} in a window of "
                             f"{self.module.module_id}")
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

    def dims_by_depth(self) -> list:
        return [self.module.dim_at_depth(d) for d in range(self.depth + 1)]

    def add_generator(self, gv: GradedVector) -> bool:
        self.gens.append(gv)
        return self.ech.insert_rational(self.row_of(gv))

    @property
    def rank(self) -> int:
        return self.ech.rank

    def cosets(self) -> list:
        """The columns that are no pivot, in order: the coset representatives."""
        return [i for i in range(len(self.basis)) if i not in self.ech.rows]

    def reduce(self, gv: GradedVector) -> GradedVector:
        """Canonical representative of gv modulo the subspace."""
        return self.split(gv)[0]

    def split(self, gv: GradedVector):
        """(canonical representative of gv, witness) from one reduction: the
        witness is None, or {generator index -> coefficient} reproducing gv
        exactly when the representative is zero."""
        rem, combo = self.ech.reduce(self.row_of(gv))
        # combo indices refer to insertion order, which matches self.gens;
        # rows that failed to increase rank still consumed an index
        witness = None if rem else dict(sorted(combo.items()))
        return self.vector_of(rem), witness

    def quotient_dims_by_depth(self) -> list:
        """Per-depth upper bounds for the dimensions of window/(subspace)."""
        dims = [0] * (self.depth + 1)
        for col in self.cosets():
            dims[self.basis[col].depth] += 1
        return dims
