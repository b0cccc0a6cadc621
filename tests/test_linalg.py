"""Fraction-free echelon forms against a dense Fraction elimination oracle."""

import random
from fractions import Fraction

import pytest

from oracles import dense_rref
from voazhu.errors import WindowOverflowError
from voazhu.linalg import ModuleWindow, SparseEchelon, WindowSubspace, kernel_basis


def random_rows(rng, nrows, ncols, density=0.5):
    rows = []
    for _ in range(nrows):
        row = {}
        for c in range(ncols):
            if rng.random() < density:
                v = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                if v:
                    row[c] = v
        rows.append(row)
    return rows


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_rank_matches_dense_oracle(seed):
    rng = random.Random(seed)
    rows = random_rows(rng, rng.randint(1, 10), rng.randint(1, 8))
    ncols = 8
    ech = SparseEchelon()
    for r in rows:
        ech.insert_rational(dict(r))
    # pivots are the highest columns, i.e. the lowest after reversing them
    reversed_rows = [{ncols - 1 - c: v for c, v in r.items()} for r in rows]
    rank, pivots = dense_rref(reversed_rows, ncols)
    assert ech.rank == rank
    assert set(ech.pivots) == {ncols - 1 - c for c in pivots}


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_reduce_leaves_no_pivot_support(seed):
    rng = random.Random(seed)
    rows = random_rows(rng, 8, 6)
    ech = SparseEchelon()
    for r in rows:
        ech.insert_rational(dict(r))
    probe = {c: Fraction(rng.randint(-5, 5)) for c in range(6)}
    rem, _ = ech.reduce(dict(probe))
    assert not set(rem) & set(ech.pivots)


@pytest.mark.parametrize("seed", [21, 22, 23, 24])
def test_membership_and_witness_roundtrip(seed):
    rng = random.Random(seed)
    rows = random_rows(rng, 6, 6)
    ech = SparseEchelon(track_combos=True)
    gained = {i for i, r in enumerate(rows) if ech.insert_rational(dict(r))}
    # a random combination of inputs must reduce to zero with a correct combo
    coeffs = [Fraction(rng.randint(-3, 3)) for _ in rows]
    target = {}
    for c_i, row in zip(coeffs, rows):
        for k, v in row.items():
            target[k] = target.get(k, Fraction(0)) + c_i * v
    target = {k: v for k, v in target.items() if v}
    rem, combo = ech.reduce(dict(target))
    assert not rem
    # the witness names only inputs that added rank, with coefficients over
    # the rows as supplied
    assert set(combo) <= gained
    rebuilt = {}
    for idx, t in combo.items():
        for k, v in rows[idx].items():
            rebuilt[k] = rebuilt.get(k, Fraction(0)) + t * v
    rebuilt = {k: v for k, v in rebuilt.items() if v}
    assert rebuilt == target


def test_kernel_basis_annihilates_and_has_right_dimension():
    rng = random.Random(7)
    rows = random_rows(rng, 5, 7)
    ncols = 7
    basis = kernel_basis(rows, ncols)
    rank, _ = dense_rref(rows, ncols)
    assert len(basis) == ncols - rank
    for sol in basis:
        for row in rows:
            s = sum((row[k] * sol.get(k, Fraction(0)) for k in row), Fraction(0))
            assert s == 0


def test_window_roundtrip_and_overflow(fock_one):
    window = ModuleWindow(fock_one, 3)
    x = fock_one.monomial([("a", -2), ("a", -1)], Fraction(5, 3)) + fock_one.lw()
    assert window.vector_of(window.row_of(x)) == x
    deep = fock_one.monomial([("a", -4)])
    with pytest.raises(WindowOverflowError):
        window.row_of(deep)
    assert window.dims_by_depth() == [1, 1, 2, 3]


def test_window_subspace_quotient_reps_are_shallow(fock_one):
    """Quotient representatives should sit at the bottom of the window."""
    window = ModuleWindow(fock_one, 3)
    sub = WindowSubspace(window)
    # relations identifying each depth-(d+1) layer with lower ones
    from voazhu.zhu import lp_element
    for d in range(3):
        for bv in fock_one.basis_at_depth(d):
            from voazhu.basis import GradedVector
            sub.add_generator(lp_element(fock_one, GradedVector(fock_one, {bv: Fraction(1)})))
    free_cols = [i for i in range(len(window.basis)) if i not in sub.ech.pivots]
    free_depths = sorted(window.basis[i].depth for i in free_cols)
    assert free_depths == sorted(free_depths)
    assert free_depths[0] == 0


def test_window_subspace_witness_soundness(heis):
    from voazhu.zhu import zhu_context
    ctx = zhu_context(heis, 0, 5)
    # every certified membership is re-multiplied inside membership();
    # spot check the witness structure on a known ideal element
    from voazhu.zhu import lp_element
    x = lp_element(heis, heis.alpha())
    cert = ctx.membership(x)
    assert cert.certified
    rebuilt = heis.zero()
    for i, c in cert.witness.items():
        rebuilt = rebuilt + ctx.subspace.gens[i] * c
    assert rebuilt == x
