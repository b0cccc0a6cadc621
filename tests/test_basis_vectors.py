import copy
import pickle
import random
import sys
import threading
from fractions import Fraction

import pytest

from voazhu.basis import BasisVector, GradedVector, Sum, canonical_modes, sort_key
from voazhu.errors import UnknownGeneratorError
from voazhu.instances import fock, heisenberg_voa, verma, virasoro_voa
from voazhu.modules import basis_window, partitions


def test_canonical_mode_ordering():
    modes = canonical_modes([("a", -1), ("a", -3), ("a", -1)])
    assert modes == (("a", -3), ("a", -1), ("a", -1))
    with pytest.raises(ValueError):
        canonical_modes([("a", 1)])


def test_partitions_counts():
    # partition numbers p(0..8)
    assert [len(partitions(d, 1)) for d in range(9)] == [1, 1, 2, 3, 5, 7, 11, 15, 22]
    # parts >= 2 (Virasoro vacuum dimensions)
    assert [len(partitions(d, 2)) for d in range(9)] == [1, 0, 1, 1, 2, 2, 4, 4, 7]


def test_depth_and_weight(fock_half):
    bv = fock_half.basis_vector([("a", -3), ("a", -1)])
    assert bv.depth == 4
    assert fock_half.monomial([("a", -3), ("a", -1)]).weight() == Fraction(1, 8) + 4


@pytest.mark.parametrize("make", [
    heisenberg_voa, lambda: virasoro_voa("1/2"), lambda: fock(1), lambda: fock("1/2"),
    lambda: verma("1/2", "1/16"), lambda: verma("1/2", "1/3"),
])
def test_stored_depth_is_the_mode_sum(make):
    """The depth stored at construction is -sum of the modes, and a vector
    rebuilt from its fields, copied, deep-copied or pickled is the same
    object, so it compares, hashes and sorts the same; ``_make`` and
    ``_replace``, which would bypass the interning table, raise."""
    module = make()
    window = basis_window(module, 8)
    assert len(window) > 20
    for bv in window:
        assert bv.depth == -sum(m for _, m in bv.modes)
        rebuilt = BasisVector(bv.module_id, tuple(bv.modes))
        for twin in (rebuilt, module.basis_vector(bv.modes), copy.copy(bv),
                     copy.deepcopy(bv), pickle.loads(pickle.dumps(bv))):
            assert type(twin) is BasisVector
            assert twin is bv
            assert twin == bv and hash(twin) == hash(bv) and twin.depth == bv.depth
            assert sort_key(twin) == sort_key(bv)
        with pytest.raises(TypeError):
            BasisVector._make(tuple(bv))
        with pytest.raises(TypeError):
            bv._replace(depth=bv.depth)
    assert sorted(reversed(window), key=sort_key) == window


def test_threads_building_one_monomial_get_one_object():
    """Four threads released together build the same fresh monomials, in
    rounds; each value is one object however the builds interleave."""
    threads_n, rounds, fresh = 4, 5, 300
    barrier = threading.Barrier(threads_n)
    built = [[] for _ in range(threads_n)]

    def build(k):
        for r in range(rounds):
            barrier.wait()
            built[k] += [BasisVector(f"interning-race-{r}", (("a", -m),))
                         for m in range(1, fresh + 1)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)   # switch threads often, so builds interleave
    try:
        threads = [threading.Thread(target=build, args=(k,)) for k in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    first = built[0]
    for other in built[1:]:
        assert all(a is b for a, b in zip(first, other, strict=True))


def test_memo_is_found_through_any_equal_vector(heis):
    """A deep-copied vector cancels its original term by term, and the mode
    memo answers the copy with the stored entry itself, not a recomputation."""
    def deep(x):   # copies the vector, not the shared module and its memos
        return copy.deepcopy(x, {id(heis): heis})

    gv = heis.monomial([("a", -2), ("a", -1)], Fraction(3, 2)) + heis.monomial([("a", -3)], 5)
    twin = deep(gv)
    assert twin is not gv and twin.terms is not gv.terms
    assert (gv - twin).is_zero()
    u, w = heis.monomial([("a", -2), ("a", -1)]), heis.monomial([("a", -1)])
    entry = heis._modes.apply(u, 1, w)
    (u_bv,), (w_bv,) = u.terms, w.terms
    assert heis._modes.memo[u_bv, 1, w_bv] is entry
    u_copy, w_copy = deep(u), deep(w)
    assert heis._modes.apply(u_copy, 1, w_copy) is entry


def test_unknown_generator_rejected(fock_half):
    with pytest.raises(UnknownGeneratorError):
        fock_half.basis_vector([("b", -1)])


def test_min_part_enforced(vir_half):
    with pytest.raises(ValueError):
        vir_half.basis_vector([("L", -1)])  # vacuum algebra needs parts >= 2


def test_graded_vector_arithmetic(heis):
    u = heis.monomial([("a", -1)], 2)
    v = heis.monomial([("a", -2)], Fraction(1, 3))
    w = u + v
    assert w.coefficient(heis.basis_vector([("a", -1)])) == 2
    assert (w - u - v).is_zero()
    assert (w * 0).is_zero()
    assert -w + w == heis.zero()
    assert w * Fraction(3) == u * 3 + v * 3


# 3, 16 and 5 each raise the common denominator over the ones before them
SUM_DENOMINATORS = (2, 3, 16, 5, 12, 1)
BIG = 2**64


def _fraction_sum(pairs) -> dict:
    """The oracle: sum of scale * vector in plain Fraction arithmetic."""
    out: dict = {}
    for gv, scale in pairs:
        for bv, c in gv.terms.items():
            out[bv] = out.get(bv, 0) + Fraction(c) * Fraction(scale)
    return {bv: c for bv, c in out.items() if c}


def _sum_pairs(heis, seed):
    """Seeded (vector, scale) pairs: int and Fraction coefficients over the
    denominators of SUM_DENOMINATORS in that order, numerators above 2^64, a
    zero scale, and entries and whole vectors that cancel to zero."""
    rng = random.Random(seed)
    basis = basis_window(heis, 4)
    a, b, c = heis.basis_at_depth(5)[:3]   # touched only by the cancelling pair

    def vector(d):
        picks = rng.sample(basis, 4)
        coeffs = [rng.choice([rng.randint(-9, 9), rng.randint(BIG, 4 * BIG)]) or 1
                  for _ in picks]
        coeffs[0] *= d                      # an integral entry on every vector
        return GradedVector(heis, {bv: Fraction(n, d) for bv, n in zip(picks, coeffs)})

    pairs = []
    for d in SUM_DENOMINATORS:
        scale = rng.choice([rng.randint(-5, 5) or 1, Fraction(rng.randint(1, 7), rng.randint(1, 7)),
                            BIG + rng.randint(0, 9)])
        pairs.append((vector(d), scale))
    x = pairs[2][0]
    pairs += [(x, 0), (x, Fraction(0)),
              (GradedVector(heis, {a: Fraction(1, 2), b: 1}), 1),
              (GradedVector(heis, {a: Fraction(-1, 4), c: Fraction(1, 3)}), 2),   # a cancels
              (x, Fraction(-5, 3)), (x, Fraction(5, 3))]                         # x cancels
    return pairs


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sum_matches_fraction_arithmetic(heis, seed):
    """``Sum`` holds numerators over one common denominator; read through
    ``terms()`` it equals the plain Fraction sum after every add, stores an
    integral value as an ``int`` and anything else as a ``Fraction``, and
    does not depend on the order of the adds."""
    pairs = _sum_pairs(heis, seed)
    acc = Sum()
    for k, (gv, scale) in enumerate(pairs):
        acc.add(gv, scale)
        assert acc.terms() == _fraction_sum(pairs[:k + 1]), k
    want = _fraction_sum(pairs)
    got = acc.terms()
    assert got == want
    assert {bv: type(v) for bv, v in got.items()} == {
        bv: int if v.denominator == 1 else Fraction for bv, v in want.items()}
    assert int in map(type, got.values()) and Fraction in map(type, got.values())
    assert max(abs(v) for v in got.values()) > BIG
    assert acc.den % 240 == 0               # 16 * 3 * 5: every rescale happened
    a, b, c = heis.basis_at_depth(5)[:3]
    assert a not in acc.nums and got[b] == 1 and got[c] == Fraction(2, 3)
    backward = Sum()
    for gv, scale in reversed(pairs):
        backward.add(gv, scale)
    assert backward.terms() == got


def test_homogeneous_components(fock_one):
    x = fock_one.lw() + fock_one.monomial([("a", -2)], 5)
    comps = x.homogeneous_components()
    assert sorted(comps) == [Fraction(1, 2), Fraction(5, 2)]
    assert not x.is_homogeneous()
    with pytest.raises(ValueError):
        x.weight()
    assert comps[Fraction(5, 2)] == fock_one.monomial([("a", -2)], 5)


def mixed_depth_vector(module, seed: int) -> GradedVector:
    """Every basis vector of depths 0..5 (several at each depth from 2 on)
    with a nonzero rational coefficient, inserted in shuffled order."""
    rng = random.Random(seed)
    window = basis_window(module, 5)
    rng.shuffle(window)
    return GradedVector(module, {bv: Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4))
                                 for bv in window})


@pytest.mark.parametrize("make", [lambda: fock("1/2"), lambda: verma("1/2", "1/16")])
def test_depth_buckets_match_the_per_term_weights(make):
    """homogeneous_components and weights bucket by integer depth; their
    keys, key order and values equal those of the per-term weight h + depth."""
    module = make()
    h = module.lowest_weight
    for seed in range(3):
        x = mixed_depth_vector(module, seed)
        oracle: dict = {}
        for bv, c in x.terms.items():
            oracle.setdefault(h + bv.depth, {})[bv] = c
        assert sum(len(t) >= 2 for t in oracle.values()) >= 3
        comps = x.homogeneous_components()
        assert list(comps) == sorted(oracle)
        for wt, comp in comps.items():
            assert type(wt) is Fraction
            assert comp.terms == oracle[wt] and comp.module is module
            assert comp.weight() == wt
        assert x.weights() == {h + bv.depth for bv in x.terms} == set(oracle)
        assert all(type(wt) is Fraction for wt in x.weights())


def test_basis_window_ordering(heis):
    window = basis_window(heis, 3)
    depths = [bv.depth for bv in window]
    assert depths == sorted(depths)
    assert len(window) == 1 + 1 + 2 + 3
    assert window == sorted(window, key=sort_key)


def test_cross_module_vectors_rejected(fock_one, fock_half):
    bv = fock_one.basis_vector([("a", -1)])
    with pytest.raises(ValueError):
        GradedVector(fock_half, {bv: Fraction(1)})
    with pytest.raises(ValueError):
        fock_one.lw() + fock_half.lw()
