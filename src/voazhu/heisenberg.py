"""Rank-1 Heisenberg vertex operator algebra M(1) and its Fock modules F_lambda.

The current alpha(x) = sum alpha(p) x^(-p-1) satisfies
[alpha(p), alpha(q)] = p delta_{p+q,0}; the conformal vector is
omega = alpha(-1)^2 1 / 2 with central charge 1.  F_lambda is spanned by
alpha(-n_1)...alpha(-n_k)|lambda> with alpha(0) acting as lambda; its
lowest weight is lambda^2/2.
"""

from __future__ import annotations

from fractions import Fraction

from .basis import BasisVector, GradedVector, canonical_modes
from .formal import as_scalar
from .modules import GenModule, VOAlgebra

TAG = "a"


def _act_alpha(module: GenModule, momentum, p: int, bv: BasisVector) -> GradedVector:
    if p < 0:
        modes = canonical_modes(bv.modes + ((TAG, p),))
        return GradedVector(module, {BasisVector(module.module_id, modes): 1})
    if p == 0:
        if momentum == 0:
            return module.zero()
        return GradedVector(module, {bv: momentum})
    # annihilator: [alpha(p), alpha(-p)] = p per matching factor
    mult = sum(1 for _, m in bv.modes if m == -p)
    if mult == 0:
        return module.zero()
    pruned = list(bv.modes)
    pruned.remove((TAG, -p))
    out = BasisVector(module.module_id, tuple(pruned))
    return GradedVector(module, {out: p * mult})


class HeisenbergVOA(VOAlgebra):
    """The vacuum module M(1), with vacuum 1 and omega = alpha(-1)^2 1 / 2."""

    def __init__(self):
        super().__init__("heis", central_charge=1, min_part=1)

    def generator_tags(self) -> dict:
        return {TAG: 1}

    def gen_action_basis(self, tag, p, bv):
        return _act_alpha(self, 0, p, bv)

    def omega(self) -> GradedVector:
        return self.monomial([(TAG, -1), (TAG, -1)], Fraction(1, 2))

    def alpha(self) -> GradedVector:
        """The weight-1 generator alpha(-1)1."""
        return self.monomial([(TAG, -1)])


class FockModule(GenModule):
    """Irreducible Fock module F_lambda over the rank-1 Heisenberg algebra."""

    def __init__(self, algebra: HeisenbergVOA, momentum):
        self.momentum = Fraction(as_scalar(momentum))
        super().__init__(
            f"fock({self.momentum})",
            lowest_weight=self.momentum * self.momentum / 2,
            algebra=algebra,
            min_part=1,
        )

    def generator_tags(self) -> dict:
        return {TAG: 1}

    def gen_action_basis(self, tag, p, bv):
        return _act_alpha(self, self.momentum, p, bv)
