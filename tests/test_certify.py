"""The one escalation ladder, ``zhu.certify``, that every membership query uses."""

import pytest

from voazhu.errors import WindowOverflowError
from voazhu.zhu import (CERTIFIED, INCONCLUSIVE, MembershipCert, certify,
                        certify_membership, lp_element)


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
