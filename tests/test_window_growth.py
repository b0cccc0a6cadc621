"""Ideal windows grown from a shallower window equal windows built fresh.

A depth-D context grown from a depth-D' context (D' < D) takes over the
shallower generators and echelon rows and adds only the new generators.
It must span exactly what a fresh depth-D build spans, leave its base
untouched, and not depend on the order in which depths are requested.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from voazhu.basis import GradedVector
from voazhu.bimodule import (BimoduleContext, bimodule_context,
                             intertwiner_ideal_context)
from voazhu.heisenberg import FockModule, HeisenbergVOA
from voazhu.instances import fock, heisenberg_voa, verma, virasoro_voa
from voazhu.modules import basis_window
from voazhu.zhu import ZhuContext, zhu_context

CASES = [
    ("heis", 0), ("vir", 0), ("vir", 1), ("fock", 1), ("verma", 1),
]
FIRST_DEPTH = 4


def _module(name):
    return {"heis": heisenberg_voa, "vir": lambda: virasoro_voa("1/2"),
            "fock": lambda: fock(1), "verma": lambda: verma("1/2", "1/16")}[name]()


def _context_class(module):
    return ZhuContext if module.algebra is module else BimoduleContext


def _seeded_vectors(module, depth, rng, count=6):
    basis = basis_window(module, depth)
    out = []
    for _ in range(count):
        picks = rng.sample(basis, min(len(basis), rng.randint(1, 4)))
        out.append(GradedVector(module, {bv: Fraction(rng.randint(-9, 9) or 1,
                                                      rng.randint(1, 5))
                                         for bv in picks}))
    return out


def _ideal_vectors(ctx, rng, count=6):
    """Random rational combinations of the context's own generators."""
    out = []
    for _ in range(count):
        picks = rng.sample(ctx.subspace.gens, min(len(ctx.subspace.gens), 3))
        x = ctx.module.zero()
        for g in picks:
            x = x + g * Fraction(rng.randint(1, 7), rng.randint(1, 3))
        out.append(x)
    return out


def _answers(ctx, probes):
    return {
        "pivots": set(ctx.subspace.ech.rows),
        "quotient": ctx.quotient_dims(),
        "reduce": [ctx.subspace.reduce(x) for x in probes],
        "status": [ctx.membership(x).status for x in probes],
        "gens": len(ctx.subspace.gens),
        "labels": sorted(ctx.labels),
    }


def _probes(fresh, depth, seed):
    rng = random.Random(seed)
    module = fresh.module
    return _seeded_vectors(module, depth, rng) + _ideal_vectors(fresh, rng)


@pytest.mark.parametrize("name,N", CASES)
def test_grown_window_equals_fresh(name, N):
    module = _module(name)
    cls = _context_class(module)
    grown = None
    for depth in range(FIRST_DEPTH, FIRST_DEPTH + 5):
        grown = cls(module, N, depth, base=grown)
        fresh = cls(module, N, depth)
        probes = _probes(fresh, depth, seed=depth)
        assert _answers(grown, probes) == _answers(fresh, probes)
        if fresh.subspace.gens:
            assert "certified" in _answers(grown, probes)["status"]


def _snapshot(ctx):
    ech = ctx.subspace.ech
    return {
        "rank": ech.rank,
        "n_inserted": ech.n_inserted,
        "gens": list(ctx.subspace.gens),
        "rows": {col: (dict(r), dict(c)) for col, (r, c) in ech.rows.items()},
        "rows_p": {col: dict(r) for col, r in ech.rows_p.rows.items()},
        "labels": list(ctx.labels),
        "quotient": ctx.quotient_dims(),
    }


@pytest.mark.parametrize("name,N", [("heis", 0), ("fock", 1)])
def test_growing_leaves_the_base_unchanged(name, N):
    module = _module(name)
    cls = _context_class(module)
    base = cls(module, N, 5)
    before = _snapshot(base)
    probes = _probes(base, 5, seed=1)
    statuses = [base.membership(x).status for x in probes]
    deeper = cls(module, N, 7, base=base)
    deepest = cls(module, N, 9, base=deeper)
    assert deepest.subspace.rank > deeper.subspace.rank > base.subspace.rank
    assert _snapshot(base) == before
    assert [base.membership(x).status for x in probes] == statuses


def _fresh_module(name):
    """An instance of its own, so it holds no windows yet."""
    heis = HeisenbergVOA()
    return {"heis": heis, "fock": FockModule(heis, 1)}[name]


@pytest.mark.parametrize("name,N", [("heis", 0), ("fock", 1)])
def test_answers_do_not_depend_on_request_order(name, N):
    results = []
    for order in ((6, 8, 10), (8, 6, 10)):
        module = _fresh_module(name)
        build = zhu_context if module.algebra is module else bimodule_context
        contexts = {d: build(module, N, d) for d in order}
        results.append({d: _answers(contexts[d], _probes(contexts[d], d, seed=d))
                        for d in sorted(contexts)})
    assert results[0] == results[1]


def test_cache_never_answers_from_a_deeper_window():
    heis = HeisenbergVOA()
    deep = zhu_context(heis, 0, 8)
    shallow = zhu_context(heis, 0, 6)
    assert shallow.depth == 6 and len(shallow.subspace.basis) < len(deep.subspace.basis)
    assert len(shallow.subspace.gens) == len(ZhuContext(heis, 0, 6).subspace.gens)
    assert zhu_context(heis, 0, 6) is shallow


def test_instances_sharing_a_module_id_never_share_a_window():
    """Windows live on the instance: a second instance with the same
    module_id builds its own, and growing one leaves the other alone."""
    shared, other = heisenberg_voa(), HeisenbergVOA()
    assert other.module_id == shared.module_id and other is not shared
    mine = zhu_context(other, 0, 5)
    assert mine is not zhu_context(shared, 0, 5)
    assert mine.module is other
    before = {key: dict(windows) for key, windows in shared._windows.items()}
    assert zhu_context(other, 0, 7).module is other
    assert shared._windows == before
    W = FockModule(other, 1)
    assert W.module_id == fock(1).module_id
    assert bimodule_context(W, 0, 5) is not bimodule_context(fock(1), 0, 5)
    assert intertwiner_ideal_context(W, 0, 5).module is W
    assert bimodule_context(W, 0, 5).module is W


def test_growth_only_onto_a_deeper_window_of_the_same_module():
    """A base of another module, depth, N or family tuple would leave the
    grown window with generators that are not its own; so would a family
    the window does not enumerate."""
    heis = heisenberg_voa()
    with pytest.raises(ValueError):
        ZhuContext(heis, 0, 4, base=ZhuContext(heis, 0, 6))
    with pytest.raises(ValueError):
        BimoduleContext(fock(1), 0, 6, base=BimoduleContext(fock(2), 0, 4))
    with pytest.raises(ValueError):
        ZhuContext(heis, 1, 6, base=ZhuContext(heis, 0, 4))
    with pytest.raises(ValueError):
        BimoduleContext(fock(1), 0, 6, base=BimoduleContext(fock(1), 0, 4, ("circ",)))
    with pytest.raises(ValueError):
        ZhuContext(heis, 0, 4, ("lp", "circ", "circ_n"))


TAMPER_SCRIPT = r"""
import json
from voazhu.errors import WindowOverflowError
from voazhu.instances import fock, heisenberg_voa
from voazhu.intertwiner import FockIntertwiner, induced_hom
from voazhu.bimodule import bimodule_context
from voazhu.zhu import lp_element, zhu_context

out = {"debug": __debug__}

def tamper(ctx, x):
    cert = ctx.membership(x)
    assert cert.certified
    i = next(iter(cert.witness))
    ctx.subspace.gens[i] = ctx.subspace.gens[i] * 2
    return ctx.membership(x).status

heis = heisenberg_voa()
out["zhu"] = tamper(zhu_context(heis, 0, 5), lp_element(heis, heis.alpha()))
W = fock(1)
out["bimodule"] = tamper(bimodule_context(W, 0, 5), lp_element(W, W.lw()))

it = FockIntertwiner(heis, 1, 2)
deep = it.w3_module.monomial([("a", -3)])
it.mode = lambda *args: deep
try:
    induced_hom(it, 0, it.w1_module.lw(), it.w2_module.lw())
    out["induced_hom"] = "returned"
except WindowOverflowError:
    out["induced_hom"] = "raised"
print(json.dumps(out))
"""


def test_tampered_witness_is_not_certified_under_optimize(src_env):
    """Witness re-multiplication and the bottom-slice check survive -O."""
    proc = subprocess.run([sys.executable, "-O", "-c", TAMPER_SCRIPT],
                          capture_output=True, text=True, env=src_env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out == {"debug": False, "zhu": "inconclusive",
                   "bimodule": "inconclusive", "induced_hom": "raised"}
