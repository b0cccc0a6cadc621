"""Shared registry of algebra and module instances.

Every cache of module state lives on an instance: the mode tables of the
vertex operator and of Y_WV, and the ideal windows of ``zhu_context``,
``bimodule_context`` and ``intertwiner_ideal_context``.  The library
(``FockIntertwiner`` included) takes its modules from this registry, so
one module id has one instance and one set of caches; reusing them across
a session (CLI run, test suite) is what makes repeated checks cheap, and a
caller that wants a cold, separately freed session builds its own
instances (``HeisenbergVOA()``, ...).  Three more tables live for the
process whatever instances are used: the bounded ``lru_cache``s of
``formal._binom`` (non-integral tops only; ``formal.binom`` answers integer
tops through ``math.comb``) and ``modules.partitions``, and
``basis._interned``, the one object of each basis vector, which may be
freed only when no vector of that value can be reached: an equal vector
built later would be a second object with another hash.
"""

from __future__ import annotations

from fractions import Fraction

from .formal import as_scalar
from .heisenberg import FockModule, HeisenbergVOA
from .virasoro import VermaModule, VirasoroVOA

_registry: dict = {}


def _shared(key: tuple, build):
    """The registry's instance under key, built by ``build()`` on first use."""
    if key not in _registry:
        _registry[key] = build()
    return _registry[key]


def heisenberg_voa() -> HeisenbergVOA:
    return _shared(("heis",), HeisenbergVOA)


def fock(momentum) -> FockModule:
    momentum = Fraction(as_scalar(momentum))
    return _shared(("fock", momentum), lambda: FockModule(heisenberg_voa(), momentum))


def virasoro_voa(c) -> VirasoroVOA:
    c = Fraction(as_scalar(c))
    return _shared(("vir", c), lambda: VirasoroVOA(c))


def verma(c, h) -> VermaModule:
    c, h = Fraction(as_scalar(c)), Fraction(as_scalar(h))
    return _shared(("verma", c, h), lambda: VermaModule(virasoro_voa(c), h))
