"""Fraction-free echelon forms against a dense Fraction elimination oracle,
and the mod-P rank filter in front of them."""

import copy
import random
from fractions import Fraction

import pytest

from oracles import FractionEchelon, dense_rref, plain_exact
from voazhu import linalg
from voazhu.bimodule import action_swap_defect, bimodule_context, commutator_defect
from voazhu.errors import WindowOverflowError
from voazhu.heisenberg import FockModule, HeisenbergVOA
from voazhu.intertwiner import fusion_dim
from voazhu.linalg import SparseEchelon, WindowSubspace
from voazhu.sampling import SampleStream
from voazhu.virasoro import VirasoroVOA
from voazhu.zhu import star_product, zhu_context


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
    assert set(ech.rows) == {ncols - 1 - c for c in pivots}


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_reduce_leaves_no_pivot_support(seed):
    rng = random.Random(seed)
    rows = random_rows(rng, 8, 6)
    ech = SparseEchelon()
    for r in rows:
        ech.insert_rational(dict(r))
    probe = {c: Fraction(rng.randint(-5, 5)) for c in range(6)}
    rem, _ = _reduce(ech, rows, probe)
    assert not set(rem) & set(ech.rows)


@pytest.mark.parametrize("seed", [21, 22, 23, 24])
def test_membership_and_witness_roundtrip(seed):
    rng = random.Random(seed)
    rows = random_rows(rng, 6, 6)
    ech = SparseEchelon()
    gained = {i for i, r in enumerate(rows) if ech.insert_rational(dict(r))}
    # a random combination of inputs must reduce to zero with a correct combo
    coeffs = [Fraction(rng.randint(-3, 3)) for _ in rows]
    target = {}
    for c_i, row in zip(coeffs, rows):
        for k, v in row.items():
            target[k] = target.get(k, Fraction(0)) + c_i * v
    target = {k: v for k, v in target.items() if v}
    rem, combo = _reduce(ech, rows, target)
    assert not rem
    # the witness names only inputs that added rank, with coefficients over
    # the rows as supplied
    assert set(combo) <= gained
    assert _rebuild(rows, combo) == target


def _reduce(ech, rows, probe):
    """``ech.reduce(probe)`` as (rest, rational combo -combo[i]/scale), once
    its integer witness is checked: integer combo values, a nonzero integer
    scale and  scale*(probe - rest) + sum_i combo[i]*rows[i] == 0  exactly."""
    rest, combo, scale = ech.reduce(dict(probe))
    assert type(scale) is int and scale
    assert all(type(c) is int for c in combo.values())
    total = {k: scale * (probe.get(k, 0) - rest.get(k, 0)) for k in set(probe) | set(rest)}
    for i, c in combo.items():
        for k, v in rows[i].items():
            total[k] = total.get(k, 0) + c * v
    assert not any(total.values())
    return rest, {i: Fraction(-c, scale) for i, c in combo.items()}


def _rebuild(rows, combo):
    out = {}
    for idx, t in combo.items():
        for k, v in rows[idx].items():
            out[k] = out.get(k, Fraction(0)) + t * v
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize("seed", [31, 32, 33, 34])
def test_combo_rebuilds_row_minus_remainder_outside_the_span(seed):
    rng = random.Random(seed)
    rows = random_rows(rng, 4, 7)
    ech = SparseEchelon()
    for r in rows:
        ech.insert_rational(dict(r))
    for _ in range(5):
        probe = {c: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for c in range(7)}
        probe = {c: v for c, v in probe.items() if v}
        rem, combo = _reduce(ech, rows, probe)
        if not rem:
            continue
        expected = {k: probe.get(k, 0) - rem.get(k, 0) for k in set(probe) | set(rem)}
        assert _rebuild(rows, combo) == {k: v for k, v in expected.items() if v}


@pytest.mark.parametrize("seed", [41, 42, 43])
def test_reduce_remainder_does_not_depend_on_insertion_order(seed):
    rng = random.Random(seed)
    rows = random_rows(rng, 6, 7)
    shuffled = list(rows)
    rng.shuffle(shuffled)
    forms = []
    for order in (rows, shuffled):
        ech = SparseEchelon()
        for r in order:
            ech.insert_rational(dict(r))
        forms.append(ech)
    for _ in range(8):
        probe = {c: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for c in range(7)}
        probe = {c: v for c, v in probe.items() if v}
        assert forms[0].reduce(dict(probe))[0] == forms[1].reduce(dict(probe))[0]


# --- the two-case elimination step -----------------------------------------

# pivot leads: units, divisors of PROBE_LEADS and non-divisors of them
PIVOT_LEADS = (1, -1, 2, -3, 4, -6, 5, -7)
PROBE_LEADS = (12, -12, 6, -18, 1, -1)
NCOLS = 14


def _integer_rows(rng, leads, ncols):
    """One integer row per lead, each with its highest column drawn at
    random and that lead there, dense below it."""
    rows = []
    for lead in leads:
        top = rng.randrange(ncols)
        row = {c: v for c in range(top) if (v := rng.randint(-9, 9))}
        row[top] = lead
        rows.append(row)
    return rows


def _two_case_form(rng):
    """A SparseEchelon and its FractionEchelon oracle over the same seeded
    integer rows: one with each pivot lead at its own column, then rows
    whose leads may land on pivots already stored, then combinations of
    those, which add no rank; the span stays short of every column."""
    rows = [{**{c: rng.randint(-9, 9) for c in range(col)}, col: lead}
            for col, lead in zip(rng.sample(range(NCOLS), len(PIVOT_LEADS)), PIVOT_LEADS)]
    rows += _integer_rows(rng, rng.choices(PIVOT_LEADS + PROBE_LEADS, k=3), NCOLS)
    rows += [_rebuild(rows, {i: rng.choice((-2, -1, 1, 3)) for i in rng.sample(range(len(rows)), 3)})
             for _ in range(2)]
    ech, oracle = SparseEchelon(), FractionEchelon()
    gains = [ech.insert_rational({k: Fraction(v) for k, v in r.items() if v}) for r in rows]
    assert gains == [oracle.insert(r) for r in rows]
    assert set(ech.rows) == set(oracle.rows)
    return rows, ech, oracle


def _probes(rng, rows):
    """Integer rows outside the span and integer combinations in it."""
    probes = _integer_rows(rng, PROBE_LEADS * 2, NCOLS)
    probes += [_rebuild(rows, {i: rng.choice((-3, -2, -1, 1, 2, 3))
                               for i in rng.sample(range(len(rows)), 3)}) for _ in range(6)]
    return [{k: Fraction(v) for k, v in p.items()} for p in probes if p]


def _count_steps(monkeypatch):
    """The quotients of the subtracting steps and the number of
    cross-multiplying ones taken by SparseEchelon from here on."""
    quotients, cross = [], []
    sub, combine = linalg._sub, linalg._combine
    monkeypatch.setattr(linalg, "_sub", lambda r, q, row: quotients.append(q) or sub(r, q, row))
    monkeypatch.setattr(linalg, "_combine",
                        lambda *a: cross.append(1) or combine(*a))
    return quotients, cross


@pytest.mark.parametrize("seed", [61, 62, 63, 64])
def test_two_case_step_matches_fraction_oracle(monkeypatch, seed):
    """Whether a step subtracts the quotient in place (the pivot's lead
    divides the row's) or cross-multiplies, inserts, reductions and
    witnesses equal the plain Fraction elimination's."""
    rng = random.Random(seed)
    quotients, cross = _count_steps(monkeypatch)
    rows, ech, oracle = _two_case_form(rng)
    zero = nonzero = 0
    for probe in _probes(rng, rows):
        rem, combo = _reduce(ech, rows, probe)
        assert (rem, combo) == oracle.reduce(probe)
        assert _rebuild(rows, combo) == {k: probe.get(k, 0) - rem.get(k, 0)
                                         for k in set(probe) | set(rem)
                                         if probe.get(k, 0) != rem.get(k, 0)}
        zero += not rem
        nonzero += bool(rem)
    assert zero and nonzero
    # both steps ran, the subtracting one with quotients of either sign,
    # unit and not
    assert cross
    assert {q > 0 for q in quotients} == {True, False}
    assert {abs(q) == 1 for q in quotients} == {True, False}


@pytest.mark.parametrize("seed", [71, 72, 73])
def test_elimination_never_writes_the_stored_rows(seed):
    """reduce leaves every stored row and combo as it was, and an insert
    only adds a row under a new pivot."""
    rng = random.Random(seed)
    rows, ech, _ = _two_case_form(rng)
    snapshot = copy.deepcopy((ech.rows, ech.rows_p.rows))
    for _ in range(5):
        for probe in _probes(rng, rows):
            ech.reduce(dict(probe))
            assert (ech.rows, ech.rows_p.rows) == snapshot
    for row in _integer_rows(rng, PROBE_LEADS, NCOLS + 2):
        before = copy.deepcopy(ech.rows)
        ech.insert_rational({k: Fraction(v) for k, v in row.items()})
        assert {col: ech.rows[col] for col in before} == before


def test_window_roundtrip_and_overflow(fock_one):
    window = WindowSubspace(fock_one, 3)
    x = fock_one.monomial([("a", -2), ("a", -1)], Fraction(5, 3)) + fock_one.lw()
    assert window.vector_of(window.row_of(x)) == x
    deep = fock_one.monomial([("a", -4)])
    with pytest.raises(WindowOverflowError):
        window.row_of(deep)
    assert window.dims_by_depth() == [1, 1, 2, 3]


def test_window_subspace_quotient_reps_are_shallow(fock_one):
    """Quotient representatives should sit at the bottom of the window."""
    sub = WindowSubspace(fock_one, 3)
    # relations identifying each depth-(d+1) layer with lower ones
    from voazhu.zhu import lp_element
    for d in range(3):
        for bv in fock_one.basis_at_depth(d):
            from voazhu.basis import GradedVector
            sub.add_generator(lp_element(fock_one, GradedVector(fock_one, {bv: Fraction(1)})))
    free_cols = [i for i in range(len(sub.basis)) if i not in sub.ech.rows]
    free_depths = sorted(sub.basis[i].depth for i in free_cols)
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


# --- the mod-P rank filter ------------------------------------------------------

# six real windows: (context, fresh module, N, depth); each is also built at
# depth - 2 on the same module
REAL_WINDOWS = pytest.mark.parametrize("context, module, N, depth", [
    (zhu_context, HeisenbergVOA, 0, 8),
    (zhu_context, HeisenbergVOA, 1, 8),
    (zhu_context, lambda: VirasoroVOA(Fraction(1, 2)), 0, 8),
    (zhu_context, lambda: VirasoroVOA(Fraction(1, 2)), 1, 8),
    (bimodule_context, lambda: FockModule(HeisenbergVOA(), 1), 0, 7),
    (bimodule_context, lambda: FockModule(HeisenbergVOA(), 1), 1, 7),
], ids=["heisenberg-N0", "heisenberg-N1", "vir-half-N0", "vir-half-N1",
        "fock1-N0", "fock1-N1"])


@REAL_WINDOWS
def test_filtered_window_matches_dense_and_plain_exact(context, module, N, depth):
    mod = module()
    base = context(mod, N, depth - 2)
    ctx = context(mod, N, depth)
    for win in (base, ctx):
        rows = [win.subspace.row_of(gv) for gv in win.subspace.gens]
        ncols = len(win.subspace.basis)
        rank, pivots = dense_rref([{ncols - 1 - c: v for c, v in r.items()} for r in rows],
                                  ncols)
        assert win.subspace.rank == rank
        assert set(win.subspace.ech.rows) == {ncols - 1 - c for c in pivots}
        free = [c for c in range(ncols) if ncols - 1 - c not in pivots]
        assert win.subspace.cosets() == free
        assert win.quotient_dims() == [sum(win.subspace.basis[c].depth == d for c in free)
                                       for d in range(win.depth + 1)]
        filtered = SparseEchelon()
        gains = [filtered.insert_rational(dict(r)) for r in rows]
        plain, plain_gains = plain_exact(rows)
        assert gains == plain_gains
        assert sum(gains) < len(rows)   # the filter had rows to drop
        for form in (filtered, win.subspace.ech):
            assert form.rows == plain.rows
            assert set(form.rows_p.rows) == set(plain.rows)
            _assert_fully_reduced_mod_p(form)


def _assert_fully_reduced_mod_p(form):
    """rows_p is fully reduced: each row is monic at its pivot and zero at
    every other pivot column, and every exact row reduces to zero against it."""
    for col, prow in form.rows_p.rows.items():
        assert max(prow) == col and prow[col] == 1
        assert not (set(prow) - {col}) & set(form.rows_p.rows)
    for row, _ in form.rows.values():
        assert form.rows_p.remainder(row) == {}


@REAL_WINDOWS
def test_remainder_matches_reduce_on_real_windows(context, module, N, depth):
    """A window's ``reduce`` is its canonical representative: reducing it
    again changes nothing, it is the representative the membership oracle
    reports, and the vector minus it is certified in the span; on seeded
    vectors with Fraction entries, in the span and outside it."""
    mod = module()
    rng = random.Random(100 * N + depth)
    nonzero = 0
    for win in (context(mod, N, depth - 2), context(mod, N, depth)):
        sub = win.subspace
        gens = [sub.row_of(gv) for gv in sub.gens]
        others = random_rows(rng, 6, len(sub.basis), density=0.2)
        in_span = [_rebuild(gens, {i: Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                                   for i in rng.sample(range(len(gens)), 3)})
                   for _ in range(4)]
        # generators with each entry scaled on its own, mostly off the span
        others += [{k: v * Fraction(rng.randint(1, 5), rng.randint(1, 5)) for k, v in r.items()}
                   for r in rng.sample(gens, 4)]
        for row, spanned in [(r, False) for r in others] + [(r, True) for r in in_span]:
            x = sub.vector_of(row)
            rep = sub.reduce(x)
            assert sub.reduce(rep) == rep
            assert rep == win.reduce(x)[0]
            assert win.membership(x - rep).certified
            if spanned:
                assert not rep
            else:
                nonzero += bool(rep)
    assert nonzero


def _count_exact(monkeypatch):
    calls = []
    eliminate = SparseEchelon._eliminate
    monkeypatch.setattr(SparseEchelon, "_eliminate",
                        lambda self, *a: calls.append(1) or eliminate(self, *a))
    return calls


@pytest.mark.parametrize("seed", [51, 52, 53])
def test_filter_leaves_exact_elimination_to_the_rows_that_add_rank(monkeypatch, seed):
    rng = random.Random(seed)
    base = random_rows(rng, 4, 8)
    # dependent rows: rational combinations of the first four
    rows = base + [_rebuild(base, {i: Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                                   for i in range(4)})
                   for _ in range(6)]
    calls = _count_exact(monkeypatch)
    ech = SparseEchelon()
    gains = [ech.insert_rational(dict(r)) for r in rows]
    assert not any(gains[4:])
    assert len(calls) == ech.rank == sum(gains)


def _unlucky_answers():
    """Quotient and fusion bounds and Certified witnesses, on fresh instances
    so that no window is reused from a cache."""
    heis, vir = HeisenbergVOA(), VirasoroVOA(Fraction(1, 2))
    f1, f2, f3 = (FockModule(heis, m) for m in (1, 2, 3))
    dims = {}
    for N in (0, 1):
        dims["heisenberg", N] = zhu_context(heis, N, 8).quotient_dims()
        dims["vir-half", N] = zhu_context(vir, N, 8).quotient_dims()
        dims["fock1", N] = bimodule_context(f1, N, 7).quotient_dims()
    fusion = [fusion_dim(heis, f1, f2, f3, N, w) for N, w in ((0, 4), (0, 6), (1, 4))]
    certs = []
    stream = SampleStream(1303)
    for N in (0, 1):
        for _ in range(6):
            u, v, w = (stream.monomial(heis, 2) for _ in range(3))
            assoc = (star_product(heis, star_product(heis, u, v, N), w, N)
                     - star_product(heis, u, star_product(heis, v, w, N), N))
            certs.append((zhu_context(heis, N, 8), assoc))
            x = stream.monomial(f1, 2)
            for defect in (action_swap_defect(f1, u, x, N), commutator_defect(f1, u, x, N)):
                certs.append((bimodule_context(f1, N, 7), defect))
    return dims, fusion, [(ctx, x, ctx.membership(x)) for ctx, x in certs if not x.is_zero()]


def test_unlucky_prime_only_makes_answers_more_conservative(monkeypatch):
    dims, fusion, certs = _unlucky_answers()
    monkeypatch.setattr(linalg, "P", 3)
    dims3, fusion3, certs3 = _unlucky_answers()
    assert dims3 != dims   # P = 3 drops some generators that add rank
    for key, bounds in dims.items():
        assert all(b3 >= b for b3, b in zip(dims3[key], bounds)), key
    assert all(d3 >= d for d3, d in zip(fusion3, fusion))
    assert any(cert.certified for _, _, cert in certs3)
    for ctx, x, cert in certs3:
        if cert.certified:
            rebuilt = ctx.module.zero()
            for i, c in cert.witness.items():
                rebuilt = rebuilt + ctx.subspace.gens[i] * c
            assert rebuilt == x


def test_denominator_divisible_by_p_is_scaled_before_the_filter(monkeypatch):
    monkeypatch.setattr(linalg, "P", 3)
    exact_calls = _count_exact(monkeypatch)
    ech = SparseEchelon()
    assert ech.insert_rational({0: Fraction(1)})
    assert len(exact_calls) == 1
    # zero mod 3 against {0: 1}: dropped before exact elimination
    assert not ech.insert_rational({0: Fraction(4)})
    assert len(exact_calls) == 1
    # scaled by 3, a row with a 1/3 entry has image {1: 1} mod 3; twice
    # that row is zero against it and is dropped before exact elimination
    assert ech.insert_rational({0: Fraction(1), 1: Fraction(1, 3)})
    assert not ech.insert_rational({0: Fraction(2), 1: Fraction(2, 3)})
    assert len(exact_calls) == 2
    assert (ech.rank, ech.n_inserted) == (2, 4)
    rows = [{0: 1}, {0: 4}, {0: 1, 1: Fraction(1, 3)}, {0: 2, 1: Fraction(2, 3)}]
    rem, combo = _reduce(ech, rows, {0: Fraction(1), 1: Fraction(1, 3)})
    assert not rem and _rebuild(rows, combo) == {0: 1, 1: Fraction(1, 3)}


def test_mod_p_remainder_is_the_image_of_the_row_itself(monkeypatch):
    """Entry by entry, numerator times denominator inverse: not the image of
    the row scaled to integers, which is off by the scale.  None where P
    divides a denominator; the prime is read at call time."""
    monkeypatch.setattr(linalg, "P", 7)
    form = linalg.ModPEchelon()
    # the row scaled by 6 would give {0: 3, 1: 2}
    assert form.remainder({0: Fraction(1, 2), 1: Fraction(1, 3)}) == {0: 4, 1: 5}
    assert form.insert({0: 2, 2: 1})
    # any integers with the same image mod 7 leave the same rows
    other = linalg.ModPEchelon()
    assert other.insert({0: 9, 2: -6}) and other.rows == form.rows
    # e_1/3 + e_2 - (2 e_0 + e_2) = 5 e_1 + 5 e_0; scaled by 3 it would be e_1 + e_0
    assert form.remainder({1: Fraction(1, 3), 2: Fraction(1)}) == {0: 5, 1: 5}
    assert form.remainder({0: Fraction(2), 2: Fraction(1)}) == {}
    assert form.remainder({1: Fraction(1, 14)}) is None
    assert linalg.image_mod_p({1: Fraction(1, 14)}) is None
    monkeypatch.setattr(linalg, "P", 5)
    assert form.remainder({1: Fraction(1, 14)}) == {1: 4}
    assert linalg.image_mod_p({1: Fraction(1, 14)}) == {1: 4}


def test_equal_row_counts_can_hide_different_pivots(monkeypatch):
    """As many rows mod P as exact rows does not mean the pivots agree, so
    the mod-P form reduces to its own non-pivot columns: coordinates mod P
    are read there, never over the exact coset representatives.  The counts
    themselves are always equal, at any prime and with denominators
    divisible by it: a row independent mod P of the kept rows is
    independent over Q."""
    monkeypatch.setattr(linalg, "P", 3)
    ech = SparseEchelon()
    assert ech.insert_rational({0: Fraction(1), 1: Fraction(3)})
    assert ech.rank == ech.rows_p.rank == 1
    assert set(ech.rows) == {1} and set(ech.rows_p.rows) == {0}
    # e_0 is its own exact remainder, but reduces to zero mod 3
    assert ech.reduce({0: Fraction(1)})[0] == {0: 1}
    assert ech.rows_p.remainder({0: 1}) == {}
    assert ech.rows_p.remainder({1: 1}) == {1: 1}
    # the exact coset representatives (a window's cosets()) against the mod-P ones
    assert [c for c in range(2) if c not in ech.rows] == [0]
    assert [c for c in range(2) if c not in ech.rows_p.rows] == [1]
    for p in (2, 3, 5, 7):
        monkeypatch.setattr(linalg, "P", p)
        rng = random.Random(p)
        for _ in range(25):
            ech = SparseEchelon()
            for _ in range(8):
                ech.insert_rational({c: Fraction(rng.randint(-6, 6), rng.choice((1, 2, p, p * p)))
                                     for c in rng.sample(range(6), 3)})
                assert ech.rank == ech.rows_p.rank
