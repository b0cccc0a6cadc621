"""Shared registry of algebra and module instances.

Every cache of module state lives on an instance: the mode tables of the
vertex operator and of Y_WV, and the ideal windows of ``zhu_context``,
``bimodule_context`` and ``intertwiner_ideal_context``.  This registry is
the only process-wide table besides the memoized ``modules.partitions``,
and the library itself (``FockIntertwiner`` included) takes its modules
from it, so one module id has one instance and one set of caches.  Reusing
the registry's instances across a session (CLI run, test suite) is what
makes repeated checks cheap; a caller that wants a cold, separately freed
session builds its own instances (``HeisenbergVOA()``, ...) instead.
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
