"""Canonical normal-ordered basis monomials and sparse graded vectors.

A :class:`BasisVector` is a string of lowering modes applied to the lowest
weight vector of a module, in canonical order (most negative mode first,
ties broken by generator tag).  Basis vectors are interned: each value is
one object, held for the life of the process in a module-level table, and
hashed by identity.  Every memo and every sum is a dict keyed on them, so a
lookup hashes a pointer instead of the nested modes tuple; the distinct
monomials of a run number in the thousands, so the table stays small.

A :class:`GradedVector` is a finite rational
linear combination of basis vectors of a single module; zero coefficients
are never stored, and each stored coefficient is an ``int`` when integral
and a ``Fraction`` otherwise (``formal.as_scalar``).

Every linear combination of vectors is summed by a :class:`Sum`: integer
numerators over one common denominator, raised to the lcm only when a new
denominator arrives, and divided back once per entry when the terms are
read.  So no ``Fraction`` is built while a sum runs, and the vectors it
returns keep the canonical ``int | Fraction`` form.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import Iterable, NamedTuple

from .formal import as_scalar


_mode_index = itemgetter(1)


class _BasisFields(NamedTuple):
    module_id: str
    modes: tuple  # tuple of (generator tag, negative mode index), canonical order
    depth: int    # total lowering below the lowest weight vector, -sum of the modes


_interned: dict = {}   # (module_id, modes) -> the one BasisVector of that value


class BasisVector(_BasisFields):
    """A basis monomial, built as ``BasisVector(module_id, modes)``; its depth
    is summed once, here, and stored as a third field.  The depth is a
    function of the modes, so equality and order are those of
    (module_id, modes).

    Interned: equal values are the same object, so the hash is the
    object's identity.  A miss is settled by ``dict.setdefault``, so
    threads that build one monomial at once all get the same object.  Copy,
    deepcopy and pickle rebuild through ``__new__``; ``_make`` and
    ``_replace`` would bypass the table, so they raise."""

    __slots__ = ()
    __hash__ = object.__hash__

    def __new__(cls, module_id: str, modes: tuple):
        key = (module_id, modes)
        bv = _interned.get(key)
        if bv is None:
            bv = _interned.setdefault(key, tuple.__new__(
                cls, (module_id, modes, -sum(map(_mode_index, modes)))))
        return bv

    def __getnewargs__(self):   # copy and pickle rebuild through __new__
        return self[:2]

    @classmethod
    def _make(cls, iterable):
        raise TypeError("build a BasisVector as BasisVector(module_id, modes)")

    def _replace(self, **fields):
        raise TypeError("build a BasisVector as BasisVector(module_id, modes)")

    def __str__(self):
        if not self.modes:
            return "lw"
        return " ".join(f"{g}({m})" for g, m in self.modes)


def canonical_modes(modes: Iterable) -> tuple:
    """Sort raw (tag, mode) pairs into canonical normal order."""
    pairs = [(str(g), int(m)) for g, m in modes]
    for g, m in pairs:
        if m >= 0:
            raise ValueError(f"basis modes must be negative, got {g}({m})")
    pairs.sort(key=lambda p: (p[1], p[0]))
    return tuple(pairs)


def sort_key(bv: BasisVector):
    """Total order on basis vectors: by depth, then by mode string."""
    return (bv.depth, bv.modes)


class GradedVector:
    """Sparse rational linear combination of basis vectors of one module."""

    __slots__ = ("module", "terms")

    def __init__(self, module, terms=None):
        self.module = module
        clean = {}
        if terms:
            for bv, c in terms.items():
                c = as_scalar(c)
                if c != 0:
                    if bv.module_id != module.module_id:
                        raise ValueError(
                            f"basis vector {bv} belongs to {bv.module_id}, not {module.module_id}"
                        )
                    clean[bv] = c
        self.terms = clean

    @classmethod
    def _of(cls, module, terms: dict) -> "GradedVector":
        """A vector over terms that are already clean: nonzero canonical
        scalars on basis vectors of module.  The dict is taken, not copied."""
        gv = object.__new__(cls)
        gv.module, gv.terms = module, terms
        return gv

    # --- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def coefficient(self, bv: BasisVector) -> int | Fraction:
        return self.terms.get(bv, 0)

    def max_depth(self) -> int:
        return max((bv.depth for bv in self.terms), default=0)

    def weights(self) -> set:
        h = self.module.lowest_weight
        return {h + bv.depth for bv in self.terms}

    def is_homogeneous(self) -> bool:
        return len(self.weights()) <= 1

    def weight(self) -> Fraction:
        """Weight of a homogeneous vector (raises if mixed or zero)."""
        ws = self.weights()
        if len(ws) != 1:
            raise ValueError(f"vector is not homogeneous: weights {sorted(ws)}")
        return ws.pop()

    def homogeneous_components(self) -> dict:
        """Split into weight -> homogeneous GradedVector."""
        h = self.module.lowest_weight
        parts: dict = {}
        for bv, c in self.terms.items():
            parts.setdefault(h + bv.depth, {})[bv] = c
        return {w: GradedVector._of(self.module, t) for w, t in sorted(parts.items())}

    # --- arithmetic -------------------------------------------------------

    def _plus(self, other: "GradedVector", scale) -> "GradedVector":
        """self + scale * other, summed in one ``Sum``."""
        if other.module is not self.module and other.module.module_id != self.module.module_id:
            raise ValueError("cannot add vectors of different modules")
        acc = Sum()
        acc.add(self)
        acc.add(other, scale)
        return GradedVector._of(self.module, acc.terms())

    def __add__(self, other: "GradedVector") -> "GradedVector":
        return self._plus(other, 1)

    def __sub__(self, other: "GradedVector") -> "GradedVector":
        return self._plus(other, -1)

    def __neg__(self) -> "GradedVector":
        return GradedVector._of(self.module, {bv: -c for bv, c in self.terms.items()})

    def __mul__(self, scalar) -> "GradedVector":
        acc = Sum()
        acc.add(self, as_scalar(scalar))
        return GradedVector._of(self.module, acc.terms())

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, GradedVector):
            return (self.module.module_id == other.module.module_id
                    and self.terms == other.terms)
        if other == 0:
            return not self.terms
        return NotImplemented

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for bv in sorted(self.terms, key=sort_key):
            c = self.terms[bv]
            parts.append(f"({c})*[{bv}]")
        return " + ".join(parts)


class Sum:
    """A running sum of scale * vector, held as integer numerators
    ``nums`` over one common denominator ``den``.

    ``den`` is raised to the lcm, and every stored numerator rescaled, only
    when a term arrives whose denominator does not divide it; ``terms()``
    divides each entry back once.  No ``Fraction`` is built while adding.
    """

    __slots__ = ("nums", "den")

    def __init__(self):
        self.nums: dict = {}
        self.den = 1

    def add(self, gv: GradedVector, scale=1) -> None:
        """self += scale * gv, for a scale that is an int or a Fraction."""
        if type(scale) is int:
            sd = 1
        else:
            scale, sd = scale.numerator, scale.denominator
        if not scale:
            return
        nums, den = self.nums, self.den
        for bv, c in gv.terms.items():
            if type(c) is int:
                d = sd
            else:
                c, d = c.numerator, c.denominator * sd
            if d != den:
                if den % d:
                    den = self._raise(d)
                c *= den // d
            s = nums.get(bv, 0) + c * scale
            if s:
                nums[bv] = s
            else:
                nums.pop(bv, None)

    def _raise(self, d: int) -> int:
        """Raise the common denominator to lcm(den, d); returns the new one."""
        den = lcm(self.den, d)
        f = den // self.den
        nums = self.nums
        for bv in nums:
            nums[bv] *= f
        self.den = den
        return den

    def terms(self) -> dict:
        """The sum as a new dict of nonzero canonical scalars: an ``int``
        where the value is integral, a ``Fraction`` otherwise."""
        den = self.den
        if den == 1:
            return dict(self.nums)
        return {bv: n // den if n % den == 0 else Fraction(n, den)
                for bv, n in self.nums.items()}
