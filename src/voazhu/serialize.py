"""Text and JSON forms for scalars, monomials, vectors, and modules.

Monomial grammar: whitespace-separated factors ``tag(mode)`` or
``tag(mode)^power`` applied to the lowest weight vector, e.g.
``a(-1)^2 a(-3)`` or ``L(-2) L(-2)``; the empty string, ``1`` and ``lw``
all denote the lowest weight vector itself.  Scalars print as ``p`` or
``p/q``.  Element files are JSON lists of [monomial, scalar] pairs.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .basis import BasisVector, GradedVector, Sum, sort_key
from .formal import as_scalar
from .instances import fock, heisenberg_voa, verma, virasoro_voa
from .modules import GenModule

_FACTOR = re.compile(r"^([A-Za-z]+)\((-\d+)\)(?:\^(\d+))?$")


def scalar_str(c) -> str:
    c = as_scalar(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def monomial_str(bv: BasisVector) -> str:
    if not bv.modes:
        return "lw"
    out = []
    run_tag = run_mode = None
    count = 0
    for g, m in bv.modes:
        if (g, m) == (run_tag, run_mode):
            count += 1
            continue
        if run_tag is not None:
            out.append(f"{run_tag}({run_mode})" + (f"^{count}" if count > 1 else ""))
        run_tag, run_mode, count = g, m, 1
    out.append(f"{run_tag}({run_mode})" + (f"^{count}" if count > 1 else ""))
    return " ".join(out)


def monomial_depth(text: str) -> int:
    """The depth of a monomial, read from its text without building it."""
    return -sum(int(m[2]) * int(m[3] or 1) for m in map(_FACTOR.match, text.split()) if m)


def parse_monomial(module: GenModule, text: str) -> BasisVector:
    text = text.strip()
    if text in ("", "1", "lw"):
        return BasisVector(module.module_id, ())
    modes = []
    for token in text.split():
        m = _FACTOR.match(token)
        if not m:
            raise ValueError(f"bad monomial factor {token!r}")
        tag, mode, power = m.group(1), int(m.group(2)), int(m.group(3) or 1)
        modes.extend([(tag, mode)] * power)
    return module.basis_vector(modes)


def vector_to_pairs(gv: GradedVector) -> list:
    return [[monomial_str(bv), scalar_str(c)]
            for bv, c in sorted(gv.terms.items(), key=lambda t: sort_key(t[0]))]


def _coefficient(coeff) -> int | Fraction:
    try:
        if isinstance(coeff, bool):   # JSON true/false would read as 1/0
            raise TypeError
        return as_scalar(coeff)
    except (TypeError, ZeroDivisionError):
        raise ValueError(f"bad coefficient {coeff!r}: expected an integer or a "
                         "rational string with a nonzero denominator") from None


def pairs_to_vector(module: GenModule, pairs) -> GradedVector:
    """The vector sum of coefficient * monomial; bad input raises ValueError."""
    acc = Sum()
    for mono, coeff in pairs:
        acc.add(GradedVector(module, {parse_monomial(module, mono): _coefficient(coeff)}))
    return GradedVector._of(module, acc.terms())


def _spec_rational(spec: str, text: str) -> int | Fraction:
    try:
        return as_scalar(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad module spec {spec!r}: {text!r} is not a rational") from None


def _spec_values(spec: str, body: str, keys: tuple) -> list:
    """The rationals of a spec body of key=value pairs, in the order of keys."""
    pairs = [p.split("=", 1) for p in body.split(",")]
    if any(len(p) != 2 for p in pairs) or sorted(p[0] for p in pairs) != sorted(keys):
        form = ",".join(f"{k}=R" for k in keys)
        raise ValueError(f"bad module spec {spec!r}: expected {form}")
    kv = dict(pairs)
    return [_spec_rational(spec, kv[k]) for k in keys]


def parse_module_spec(spec: str) -> GenModule:
    """Parse CLI module notation.

    heisenberg | fock:LAMBDA | virasoro:c=C | verma:c=C,h=H

    Anything else, including a value that is not a rational, raises
    ValueError.
    """
    spec = spec.strip()
    if spec == "heisenberg":
        return heisenberg_voa()
    kind, _, body = spec.partition(":")
    if kind == "fock":
        return fock(_spec_rational(spec, body))
    if kind == "virasoro":
        return virasoro_voa(*_spec_values(spec, body, ("c",)))
    if kind == "verma":
        return verma(*_spec_values(spec, body, ("c", "h")))
    raise ValueError(f"unknown module spec {spec!r} (expected heisenberg, fock:LAMBDA, "
                     "virasoro:c=C or verma:c=C,h=H)")
