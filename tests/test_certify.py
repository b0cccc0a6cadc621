"""The one escalation ladder, ``zhu.certify``, that every membership query
uses, and the integer witness check behind every Certified answer."""

from fractions import Fraction

import pytest

from voazhu import linalg
from voazhu.bimodule import bimodule_context
from voazhu.errors import WindowOverflowError
from voazhu.linalg import WindowSubspace
from voazhu.zhu import (CERTIFIED, INCONCLUSIVE, MembershipCert, certify,
                        certify_membership, lp_element, zhu_context)


class FakeWindow:
    def __init__(self, depth, answers):
        self.depth = depth
        self.answers = answers

    def membership(self, x):
        answer = self.answers.get(self.depth, INCONCLUSIVE)
        if answer == "overflow":
            raise WindowOverflowError(f"x outside window depth {self.depth}")
        return MembershipCert(answer, self.depth)


class FakeContext:
    """Windows by depth whose answers are fixed in advance; records requests."""

    def __init__(self, **answers):
        self.answers = {int(k[1:]): v for k, v in answers.items()}
        self.requested = []

    def __call__(self, depth):
        self.requested.append(depth)
        return FakeWindow(depth, self.answers)


def test_tries_every_depth_until_certified():
    ctx = FakeContext(d9=CERTIFIED)
    cert, tried = certify(ctx, None, 5, retries=(2, 4, 6))
    assert cert.certified and cert.window_depth == 9
    assert tried == ctx.requested == [5, 7, 9]


def test_stops_at_the_first_certified():
    ctx = FakeContext(d5=CERTIFIED, d7=CERTIFIED)
    cert, tried = certify(ctx, None, 5)
    assert cert.certified and tried == ctx.requested == [5]


def test_inconclusive_everywhere_reports_the_last_depth():
    ctx = FakeContext()
    cert, tried = certify(ctx, None, 4)
    assert cert.status == INCONCLUSIVE and cert.window_depth == 8
    assert tried == [4, 6, 8]
    assert certify(FakeContext(), None, 4, retries=())[1] == [4]


def test_overflow_is_inconclusive_at_that_depth():
    ctx = FakeContext(d4="overflow", d6=CERTIFIED)
    cert, tried = certify(ctx, None, 4)
    assert cert.certified and tried == [4, 6]
    cert, tried = certify(FakeContext(d4="overflow"), None, 4, retries=())
    assert cert.status == INCONCLUSIVE and cert.window_depth == 4 and tried == [4]


def test_cap_lowers_depths_and_skips_repeats():
    ctx = FakeContext()
    cert, tried = certify(ctx, None, 15, retries=(2, 4), cap=16)
    assert tried == ctx.requested == [15, 16]
    assert cert.window_depth == 16
    cert, tried = certify(FakeContext(), None, 20, retries=(2, 4), cap=18)
    assert tried == [18]


def test_skips_depths_not_deeper_than_the_last_one_tried():
    ctx = FakeContext()
    _, tried = certify(ctx, None, 6, retries=(4, 2, 4, 6))
    assert tried == ctx.requested == [6, 10, 12]


def test_vector_deeper_than_the_first_window_escalates(heis):
    """a(-3)a(-1) has depth 4, so its lp element overflows the depth-4 window."""
    x = lp_element(heis, heis.monomial([("a", -3), ("a", -1)]))
    assert x.max_depth() == 5
    cert = certify_membership(heis, 0, x, 4)
    assert cert.certified and cert.window_depth == 6


@pytest.mark.parametrize("retries", [(), (1,)])
def test_overflow_without_a_deeper_window_is_inconclusive(heis, retries):
    x = lp_element(heis, heis.monomial([("a", -3), ("a", -1)]))
    cert = certify_membership(heis, 0, x, 3, retries=retries)
    assert cert.status == INCONCLUSIVE


# --- the witness check ---------------------------------------------------------

def _window_and_members(request, case):
    """A window and vectors of its span, Certified there."""
    if case == "heisenberg":
        V = request.getfixturevalue("heis")
        ctx = zhu_context(V, 0, 6)
        xs = [lp_element(V, V.monomial([("a", -1), ("a", -1)])) * Fraction(2, 3)
              - lp_element(V, V.monomial([("a", -2)])),
              lp_element(V, V.alpha()) * 5 + ctx.subspace.gens[-1] * Fraction(-3, 4)]
    else:   # lowest weight 1/8: generators with Fraction coefficients
        W = request.getfixturevalue("fock_half")
        ctx = bimodule_context(W, 0, 5)
        xs = [lp_element(W, W.monomial([("a", -1)])) * Fraction(1, 3) + lp_element(W, W.lw()),
              ctx.subspace.gens[-1] * Fraction(7, 6) - ctx.subspace.gens[2]]
    return ctx, xs


def _tamper_coefficient(sub, combo, scale):
    i = next(iter(combo))
    combo[i] += 1
    return combo, scale


def _tamper_modulus(sub, combo, scale):
    # the same witness mod P: only an exact re-multiplication tells them apart
    i = next(iter(combo))
    combo[i] += linalg.P
    return combo, scale


def _tamper_index(sub, combo, scale):
    # move one coefficient onto a generator that differs from the one it named
    i = next(iter(combo))
    j = next(j for j, g in enumerate(sub.gens) if j not in combo and g != sub.gens[i])
    combo[j] = combo.pop(i)
    return combo, scale


def _tamper_scale_modulus(sub, combo, scale):
    return combo, scale + linalg.P


def _tamper_scale_sign(sub, combo, scale):
    return combo, -scale


def _tamper_scale_zero(sub, combo, scale):
    # an empty combo over scale 0 sums to zero for every x
    return {}, 0


@pytest.mark.parametrize("tamper", [_tamper_coefficient, _tamper_modulus, _tamper_index,
                                    _tamper_scale_modulus, _tamper_scale_sign, _tamper_scale_zero],
                         ids=["coefficient", "modulus", "index", "scale-modulus", "scale-sign",
                              "scale-zero"])
@pytest.mark.parametrize("case", ["heisenberg", "fock-half"])
def test_a_witness_that_does_not_rebuild_x_is_inconclusive(monkeypatch, request, case, tamper):
    ctx, (x, _) = _window_and_members(request, case)
    honest = ctx.membership(x)
    assert honest.certified
    split = WindowSubspace.split

    def tampered(self, gv):
        rep, witness = split(self, gv)
        return rep, tamper(self, *witness)

    monkeypatch.setattr(WindowSubspace, "split", tampered)
    cert = ctx.membership(x)
    assert cert.status == INCONCLUSIVE and cert.witness is None and cert.labels == ()
    assert ctx.reduce(x)[1].status == INCONCLUSIVE


@pytest.mark.parametrize("case", ["heisenberg", "fock-half"])
def test_the_rational_witness_is_read_from_the_integer_one(request, case):
    """A Certified answer holds its witness in integers; ``cert.witness``
    is -combo[i]/scale in index order, built on the first read and kept, and
    it re-multiplies to x; reading it changes neither equality nor repr."""
    ctx, xs = _window_and_members(request, case)
    for x in xs:
        cert, unread = ctx.membership(x), ctx.membership(x)
        assert cert.certified
        size = cert.witness_size()
        witness = cert.witness
        assert size == len(witness) > 0
        assert list(witness) == sorted(witness)
        assert witness == {i: Fraction(-c, cert.scale) for i, c in cert.combo.items()}
        rebuilt = ctx.module.zero()
        for i, c in witness.items():
            rebuilt = rebuilt + ctx.subspace.gens[i] * c
        assert rebuilt == x
        assert cert.witness == witness
        assert cert == unread and repr(cert) == repr(unread)
