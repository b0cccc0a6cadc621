"""Virasoro vertex operator algebras V_c and their Verma modules M(c, h).

Commutation rule:
    [L(p), L(q)] = (p - q) L(p+q) + delta_{p+q,0} (p^3 - p)/12 * c.

The vacuum algebra V_c is spanned by L(-n_1)...L(-n_k)1 with all n_i >= 2
(L(-1)1 = 0); the Verma module M(c, h) allows n_i >= 1 on a lowest weight
vector v with L(0)v = hv.  Monomials are straightened into canonical
(PBW) order by repeated single commutations; the reduction is confluent.
"""

from __future__ import annotations

from fractions import Fraction

from .basis import BasisVector, GradedVector, Sum
from .formal import as_scalar
from .modules import GenModule, VOAlgebra

TAG = "L"


def _act_virasoro(module: GenModule, c: Fraction, h, vacuum: bool,
                  p: int, bv: BasisVector) -> GradedVector:
    if not bv.modes:
        if p > 0 or (p == -1 and vacuum):
            return module.zero()
        if p == 0:
            return module.zero() if h == 0 else GradedVector(module, {bv: h})
        modes = ((TAG, p),)
        return GradedVector(module, {BasisVector(module.module_id, modes): 1})
    first_mode = bv.modes[0][1]
    if p <= first_mode:
        modes = ((TAG, p),) + bv.modes
        return GradedVector(module, {BasisVector(module.module_id, modes): 1})
    # straighten: L(p) L(first) = L(first) L(p) + (p - first) L(p + first) [+ central]
    rest = BasisVector(module.module_id, bv.modes[1:])
    acc = Sum()
    through = module.gen_action(TAG, p, rest)
    for bv2, c2 in through.terms.items():
        acc.add(module.gen_action(TAG, first_mode, bv2), c2)
    acc.add(module.gen_action(TAG, p + first_mode, rest), p - first_mode)
    if p + first_mode == 0:
        acc.add(GradedVector._of(module, {rest: 1}), Fraction(p**3 - p, 12) * c)
    return GradedVector._of(module, acc.terms())


class VirasoroVOA(VOAlgebra):
    """The vacuum module V_c with omega = L(-2)1."""

    def __init__(self, central_charge):
        c = as_scalar(central_charge)
        super().__init__(f"vir(c={c})", central_charge=c, min_part=2)

    def generator_tags(self) -> dict:
        return {TAG: 2}

    def gen_action_basis(self, tag, p, bv):
        return _act_virasoro(self, self.central_charge, 0, True, p, bv)

    def omega(self) -> GradedVector:
        return self.monomial([(TAG, -2)])


class VermaModule(GenModule):
    """Verma module M(c, h): free action of the L(-n), n >= 1, on |h>."""

    def __init__(self, algebra: VirasoroVOA, h):
        self.h = Fraction(as_scalar(h))
        super().__init__(
            f"verma(c={algebra.central_charge},h={self.h})",
            lowest_weight=self.h,
            algebra=algebra,
            min_part=1,
        )

    def generator_tags(self) -> dict:
        return {TAG: 2}

    def gen_action_basis(self, tag, p, bv):
        return _act_virasoro(self, self.algebra.central_charge, self.h, False, p, bv)
