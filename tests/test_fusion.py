"""Fusion-dimension upper bounds on free-boson triples."""

from fractions import Fraction

import pytest

from oracles import exact_fusion_dim
from voazhu import intertwiner, linalg
from voazhu.heisenberg import FockModule, HeisenbergVOA
from voazhu.instances import fock, heisenberg_voa, verma, virasoro_voa
from voazhu.intertwiner import fusion_dim, fusion_report
from voazhu.virasoro import VermaModule, VirasoroVOA


@pytest.fixture(scope="module")
def V():
    return heisenberg_voa()


def test_momentum_conserving_channel(V):
    rep = fusion_report(V, fock(1), fock(2), fock(3), 0, windows=(6, 8))
    assert rep["dims"] == [1, 1]
    assert rep["stabilized"] and rep["fusion_dim_upper"] == 1
    for windows in ((6,), (6, 6)):  # one distinct window is no evidence of stability
        rep = fusion_report(V, fock(1), fock(2), fock(3), 0, windows=windows)
        assert rep["fusion_dim_upper"] == 1 and not rep["stabilized"]


def test_weight_obstructed_channels(V):
    for nu in (4, 2):
        rep = fusion_report(V, fock(1), fock(2), fock(nu), 0, windows=(6, 8))
        assert rep["dims"] == [0, 0]
        assert rep["stabilized"]


def test_half_momenta(V):
    rep = fusion_report(V, fock("1/2"), fock("1/2"), fock(1), 0, windows=(6, 8))
    assert rep["dims"] == [1, 1] and rep["stabilized"]
    for nu in (2, 0):
        rep = fusion_report(V, fock("1/2"), fock("1/2"), fock(nu), 0, windows=(6, 8))
        assert rep["dims"] == [0, 0]


def test_vacuum_module_acts_as_identity_channel(V):
    """W1 = F_0 (the algebra as a module): the module operator spans Hom."""
    for lam in (Fraction(1), Fraction(1, 2)):
        dim = fusion_dim(V, fock(0), fock(lam), fock(lam), 0, window=6)
        assert dim == 1
        assert fusion_dim(V, fock(0), fock(lam), fock(lam + 1), 0, window=6) == 0


def test_fusion_monotone_in_window(V):
    dims = [fusion_dim(V, fock(1), fock(2), fock(3), 0, window=w) for w in (4, 6, 8)]
    assert dims[0] >= dims[1] >= dims[2]
    assert dims[-1] == 1


def test_fusion_level_one_is_a_sound_upper_bound(V):
    """At level 1 the bound is valid but not tight: the induced map of the
    free-boson operator is always a solution, so the conserving channel
    reports at least 1; the stabilized value is an upper bound only."""
    rep = fusion_report(V, fock(1), fock(2), fock(3), 1, windows=(6, 8))
    assert rep["dims"][0] >= rep["dims"][1] >= 1


def test_degenerate_empty_bottom_slice(V):
    assert fusion_dim(V, fock(1), fock(2), fock(3), 0, window=0) in (0, 1)


def _triple(kind, *args):
    if kind == "fock":
        return heisenberg_voa(), [fock(a) for a in args]
    return virasoro_voa("1/2"), [verma("1/2", h) for h in args]


@pytest.mark.parametrize("triple, N, window, offered, rank", [
    (("fock", 1, 2, 3), 0, 6, 12, 6),
    (("fock", 1, 2, 4), 0, 6, 12, 7),
    (("fock", "1/2", "1/2", 1), 0, 6, 12, 6),
    (("verma", "1/16", "1/16", 0), 0, 6, 62, 14),
    (("verma", "1/16", "1/16", 0), 1, 6, 64, 40),
    (("fock", 1, 2, 3), 1, 8, 824, 88),
    (("verma", "1/16", "1/16", 0), 1, 8, 280, 118),
    (("verma", "1/16", "1/16", 0), 0, 8, 148, 23),
    (("fock", "1/2", "1/2", 1), 0, 8, 16, 8),
], ids=["fock-1-2-3", "fock-1-2-4", "fock-half", "verma-ising", "verma-ising-N1",
        "fock-1-2-3-N1", "verma-ising-N1-w8", "verma-ising-w8", "fock-half-w8"])
def test_rank_mod_p_is_the_exact_rank(monkeypatch, triple, N, window, offered, rank):
    """fusion_dim assembles and ranks its constraints mod P, on the window's
    mod-P coset representatives; the same system over Q, on the exact coset
    representatives and coordinates, has the same dimension.  The last
    three triples are the ones where an integer-scaled image mod P, taken
    for a coordinate, lowers the bound (82 -> 76, 2 -> 1, 1 -> 0).  The
    Fock triples at N = 0 stop after the rows of alpha(-1): at full rank,
    or one below it with the free-boson operator's vector in the kernel."""
    algebra, modules = _triple(*triple)
    seen = _record_offered(monkeypatch)
    dim = fusion_dim(algebra, *modules, N, window)
    (ranks,) = seen
    assert (ranks.offered, ranks.rank) == (offered, rank)
    assert dim == exact_fusion_dim(algebra, *modules, N, window)


def _record_offered(monkeypatch) -> list:
    """Make fusion_dim's echelon count the rows offered to it; returns the
    list each new echelon is appended to."""
    seen = []

    class Recording(intertwiner.ModPEchelon):
        def __init__(self):
            super().__init__()
            seen.append(self)
            self.offered = 0

        def insert(self, row):
            assert all(type(c) is int for c in row.values())
            self.offered += 1
            return super().insert(row)

    monkeypatch.setattr(intertwiner, "ModPEchelon", Recording)
    return seen


# every Fock triple the package ships: run_fusion's six at windows 6 and 8,
# and demo 06's vacuum channel at windows 5 and 6
SHIPPED_FOCK = ([((lam, mu, nu), w) for lam, mu in ((1, 2), ("1/2", "1/2"))
                 for nu in (Fraction(lam) + Fraction(mu) + d for d in (0, 1, -1))
                 for w in (6, 8)]
                + [((0, "1/2", "1/2"), w) for w in (5, 6)])


@pytest.mark.parametrize("momenta, window", SHIPPED_FOCK,
                         ids=[f"{'-'.join(map(str, m))}-w{w}" for m, w in SHIPPED_FOCK])
def test_stopped_scan_matches_the_full_scan_over_q(V, momenta, window):
    """A scan that stops once its bound is decided gives the dim of the
    full system over Q on every shipped Fock triple."""
    modules = [fock(m) for m in momenta]
    assert fusion_dim(V, *modules, 0, window) == exact_fusion_dim(V, *modules, 0, window)


def test_a_vector_off_the_kernel_does_not_stop_the_scan(V, monkeypatch):
    """One below full rank the scan stops only on a vector orthogonal to its
    rows: the free-boson operator's stops fock(1), fock(2), fock(3) after
    the 12 rows of alpha(-1); a unit vector on the first unknown, which is
    no solution, leaves all 136 rows offered and the dim unchanged."""
    modules = [fock(1), fock(2), fock(3)]
    seen = _record_offered(monkeypatch)
    assert fusion_dim(V, *modules, 0, 6) == 1
    monkeypatch.setattr(intertwiner, "known_induced_map", lambda *args: {(0, 0, 0): 1})
    assert fusion_dim(V, *modules, 0, 6) == 1
    assert [ranks.offered for ranks in seen] == [12, 136]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_unlucky_prime_fusion_stays_above_the_exact_system(monkeypatch, p):
    """At a small prime the mod-P coset representatives, coordinates and
    o(u) entries can all go wrong, and the bound only grows.  The exact
    systems are built first, at the real prime; each side has its own fresh
    instances, so no window built at one prime is read at the other."""
    def fresh():
        heis, vir = HeisenbergVOA(), VirasoroVOA(Fraction(1, 2))
        return [(heis, [FockModule(heis, m) for m in (1, 2, 3)]),
                (vir, [VermaModule(vir, Fraction(h)) for h in ("1/16", "1/16", "0")])]

    exact = [exact_fusion_dim(algebra, *modules, 0, 6) for algebra, modules in fresh()]
    skipped = []
    remainder = linalg.ModPEchelon.remainder

    def recording(self, row):
        out = remainder(self, row)
        skipped.append(out is None)
        return out

    monkeypatch.setattr(linalg.ModPEchelon, "remainder", recording)
    monkeypatch.setattr(linalg, "P", p)
    for (algebra, modules), dim in zip(fresh(), exact):
        skipped.clear()
        assert fusion_dim(algebra, *modules, 0, 6) >= dim
    if p == 2:  # the Verma products have even denominators
        assert any(skipped)
