"""An ideal window is a function of (module, N, families, depth).

A depth-D window is built from exactly its own generators, in one fixed
order, and cached per depth on the module instance.  Its rows, rows mod P,
generators and labels, and so every answer it gives, must not depend on
the order in which depths are requested, and a window must only read
vectors of its own module.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from voazhu.basis import GradedVector
from voazhu.bimodule import (bimodule_context, certify_bimodule_membership,
                             intertwiner_ideal_context)
from voazhu.heisenberg import FockModule, HeisenbergVOA
from voazhu.instances import fock, heisenberg_voa
from voazhu.modules import basis_window
from voazhu.virasoro import VermaModule, VirasoroVOA
from voazhu.zhu import ZhuContext, lp_element, zhu_context

CASES = [
    ("heis", 0), ("heis", 1), ("vir", 0), ("vir", 1), ("fock", 0), ("fock", 1), ("verma", 1),
]


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


def _probes(ctx, depth, seed):
    rng = random.Random(seed)
    return _seeded_vectors(ctx.module, depth, rng) + _ideal_vectors(ctx, rng)


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


def _fresh_module(name):
    """An instance of its own, so it holds no windows yet."""
    return {"heis": HeisenbergVOA, "vir": lambda: VirasoroVOA(Fraction(1, 2)),
            "fock": lambda: FockModule(HeisenbergVOA(), 1),
            "verma": lambda: VermaModule(VirasoroVOA(Fraction(1, 2)), Fraction(1, 16)),
            }[name]()


def _builders(module):
    """The window constructors of a module: O_N(V) for an algebra; O_N(W)
    and its "circ" span alone for a module."""
    if module.algebra is module:
        return [zhu_context]
    return [bimodule_context, intertwiner_ideal_context]


# "direct" builds each depth on an instance of its own; the others request
# every depth, in turn, on one instance
ORDERS = {"direct": None, "ascending": (4, 6, 8), "descending": (8, 6, 4)}


@pytest.mark.parametrize("name,N", CASES)
def test_answers_do_not_depend_on_request_order(name, N):
    results = {}
    for order, depths in ORDERS.items():
        shared = _fresh_module(name)
        windows = {}
        for d in depths or ORDERS["ascending"]:
            module = shared if depths else _fresh_module(name)
            for build in _builders(module):
                windows[build.__name__, d] = build(module, N, d)
        results[order] = {key: (_snapshot(ctx), _answers(ctx, _probes(ctx, key[1], seed=key[1])))
                          for key, ctx in sorted(windows.items())}
    assert results["ascending"] == results["direct"]
    assert results["descending"] == results["direct"]


def test_cache_never_answers_from_a_deeper_window():
    heis = HeisenbergVOA()
    deep = zhu_context(heis, 0, 8)
    shallow = zhu_context(heis, 0, 6)
    assert shallow.depth == 6 and len(shallow.subspace.basis) < len(deep.subspace.basis)
    assert len(shallow.subspace.gens) == len(ZhuContext(heis, 0, 6).subspace.gens)
    assert zhu_context(heis, 0, 6) is shallow


def test_instances_sharing_a_module_id_never_share_a_window():
    """Windows live on the instance: a second instance with the same
    module_id builds its own, and building one's leaves the other's alone."""
    shared, other = heisenberg_voa(), HeisenbergVOA()
    assert other.module_id == shared.module_id and other is not shared
    mine = zhu_context(other, 0, 5)
    assert mine is not zhu_context(shared, 0, 5)
    assert mine.module is other
    before = dict(shared._windows)
    assert zhu_context(other, 0, 7).module is other
    assert shared._windows == before
    W = FockModule(other, 1)
    assert W.module_id == fock(1).module_id
    assert bimodule_context(W, 0, 5) is not bimodule_context(fock(1), 0, 5)
    assert intertwiner_ideal_context(W, 0, 5).module is W
    assert bimodule_context(W, 0, 5).module is W


def test_a_window_rejects_another_modules_vector():
    """A vector of another module is an error, not a vector outside the
    window: ``certify`` reads only an overflow as Inconclusive.  A second
    instance with the same module id is the same module."""
    x = lp_element(fock(1), fock(1).lw())
    with pytest.raises(ValueError, match="fock"):
        bimodule_context(fock(2), 0, 4).membership(x)
    with pytest.raises(ValueError):
        certify_bimodule_membership(fock(2), 0, x, 2)
    with pytest.raises(ValueError):
        zhu_context(heisenberg_voa(), 0, 4).membership(fock(1).lw())
    other = HeisenbergVOA()
    assert zhu_context(heisenberg_voa(), 0, 5).membership(
        lp_element(other, other.alpha())).certified
    W = FockModule(other, 1)
    assert bimodule_context(fock(1), 0, 5).membership(lp_element(W, W.lw())).certified


def test_unknown_generator_families_are_rejected():
    with pytest.raises(ValueError):
        ZhuContext(heisenberg_voa(), 0, 4, ("lp", "circ", "circ_n"))


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
