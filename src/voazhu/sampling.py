"""Seeded deterministic sample streams over basis monomials.

The check suites draw their inputs from here; a fixed seed gives a fixed
sample sequence, so reports are reproducible bit for bit.  No floating
point randomness is involved anywhere.
"""

from __future__ import annotations

import random

from .basis import GradedVector
from .modules import GenModule, partitions


class SampleStream:
    """Deterministic stream of homogeneous monomials and small vectors."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def depth(self, max_depth: int) -> int:
        """A depth in [0, max_depth]; mildly biased toward shallow picks.

        Selection runs on integer cumulative weights, keeping the stream
        free of floating point entirely.
        """
        weights = [max_depth + 1 - d for d in range(max_depth + 1)]
        total = sum(weights)
        pick = self.rng.randrange(total)
        acc = 0
        for d, wt in enumerate(weights):
            acc += wt
            if pick < acc:
                return d
        return max_depth

    def monomial(self, module: GenModule, max_depth: int) -> GradedVector:
        """One canonical basis monomial of depth <= max_depth, coefficient 1."""
        for _ in range(max_depth + 2):
            d = self.depth(max_depth)
            opts = partitions(d, module.min_part)
            if opts:
                parts = self.rng.choice(opts)
                tag = next(iter(module.generator_tags()))
                return module.monomial([(tag, -p) for p in parts])
        return module.lw()

    def homogeneous(self, module: GenModule, max_depth: int) -> GradedVector:
        """A combination of one or two monomials within a single weight."""
        for _ in range(max_depth + 2):
            d = self.depth(max_depth)
            opts = partitions(d, module.min_part)
            if opts:
                break
        else:
            return module.lw()
        tag = next(iter(module.generator_tags()))
        k = self.rng.randint(1, min(2, len(opts)))
        picks = self.rng.sample(list(opts), k)
        out = module.zero()
        for parts in picks:
            c = self.rng.randint(-3, 3)
            if c == 0:
                c = 1
            out = out + module.monomial([(tag, -p) for p in parts], c)
        if out.is_zero():
            return module.lw()
        return out

    def mode_index(self, lo: int, hi: int) -> int:
        return self.rng.randint(lo, hi)
