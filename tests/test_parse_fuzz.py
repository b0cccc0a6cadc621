"""Fuzzing the text parsers: bad input raises ValueError or VoazhuError only.

Digit runs are kept under 3 characters (and underscores, which Fraction
reads as digit separators, are left out), so no example asks for a huge
power, mode list or rational exponent.
"""

import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from voazhu.errors import VoazhuError
from voazhu.instances import fock, heisenberg_voa, verma, virasoro_voa
from voazhu.serialize import pairs_to_vector, parse_module_spec, parse_monomial

MODULES = (heisenberg_voa(), fock(1), virasoro_voa("1/2"), verma("1/2", "1/16"))


def _small(text: str) -> bool:
    return not re.search(r"\d{3}", text) and "_" not in text


def _text(alphabet=None, max_size=16):
    chars = st.characters() if alphabet is None else st.sampled_from(alphabet)
    return st.text(chars, max_size=max_size).filter(_small)


SPEC_PREFIXES = ("", "heisenberg", "fock:", "virasoro:", "virasoro:c=", "verma:",
                 "verma:c=", "verma:c=1/2,h=", "verma:h=1,c=")
specs = st.one_of(
    _text(),
    st.builds(lambda p, s: p + s, st.sampled_from(SPEC_PREFIXES),
              _text("0123456789/-+.,=:chel x"))).filter(_small)

factors = st.builds(
    lambda tag, sign, mode, power: f"{tag}({sign}{mode}){power}",
    st.sampled_from(("a", "L", "b", "")), st.sampled_from(("-", "", "+")),
    st.integers(0, 99), st.sampled_from(("",)) | st.integers(0, 99).map(lambda k: f"^{k}"))
monomials = st.one_of(
    _text(),
    st.lists(st.one_of(factors, _text("()-^aL0123456789 ", 8)), max_size=4).map(" ".join))
coefficients = st.one_of(
    _text("0123456789/-+. e"), st.integers(-10 ** 6, 10 ** 6),
    st.floats(allow_nan=True), st.none(), st.lists(st.integers(), max_size=2))


def _only_clean_errors(fn, *args):
    try:
        fn(*args)
    except (ValueError, VoazhuError):
        pass


@given(specs)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_parse_module_spec_raises_only_clean_errors(spec):
    _only_clean_errors(parse_module_spec, spec)


@given(st.sampled_from(MODULES), monomials)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_parse_monomial_raises_only_clean_errors(module, text):
    _only_clean_errors(parse_monomial, module, text)


@given(st.sampled_from(MODULES), st.lists(st.tuples(monomials, coefficients), max_size=4))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_pairs_to_vector_raises_only_clean_errors(module, pairs):
    _only_clean_errors(pairs_to_vector, module, [list(p) for p in pairs])
