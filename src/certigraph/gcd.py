"""Witness checker for the greatest common divisor.

A claimed gcd g of nonnegative a and b (not both zero) is certified by
Bezout coefficients s, t with g = s*a + t*b. Divisibility of a and b by g
makes g a common divisor; the linear combination makes every common
divisor divide g; together with g >= 0 that pins g as the greatest one.
Checking costs two divisions and one multiplication-addition, all exact.

A gcd file is one line ``gcd <a> <b> <g> <s> <t>``: a, b and g are
nonnegative, and the Bezout coefficients s and t may carry a ``-``.
"""

from __future__ import annotations

from .numerals import _decimal, _digits_value, _nat, _rows
from .record import Record
from .verdict import ACCEPT, ParseError, PreconditionError, Verdict, reject, shown


class GcdTriple(Record):
    """Inputs a, b; claimed gcd g; Bezout coefficients s, t.

    No field is validated at construction: the checker decides everything.
    """

    a: int
    b: int
    g: int
    s: int
    t: int


def parse_gcd_line(text: str) -> GcdTriple:
    """Parse a one-line gcd instance ``gcd a b g s t``."""
    rows = _rows(text)
    if len(rows) != 1:
        raise ParseError("expected a single 'gcd a b g s t' line")
    lineno, toks = rows[0]
    if len(toks) != 6 or toks[0] != "gcd":
        raise ParseError(f"line {lineno}: expected 'gcd a b g s t'")
    a, b, g = (_nat(tok, lineno) for tok in toks[1:4])
    s, t = (_signed(tok, lineno) for tok in toks[4:6])
    return GcdTriple(a, b, g, s, t)


def _signed(token: str, lineno: int) -> int:
    body = token[1:] if token.startswith("-") else token
    if not (body and body.isascii() and body.isdigit()):
        raise ParseError(f"line {lineno}: expected an integer, got {token!r}")
    return -_digits_value(body) if token.startswith("-") else _digits_value(body)


def serialize_gcd(t: GcdTriple) -> str:
    return "gcd " + " ".join(map(_decimal, (t.a, t.b, t.g, t.s, t.t))) + "\n"


def require_gcd_inputs(a: int, b: int) -> None:
    """Raise :class:`PreconditionError` unless a >= 0, b >= 0, and a + b > 0."""
    if a < 0 or b < 0:
        raise PreconditionError("nonneg_inputs", "a and b must be nonnegative")
    if a + b == 0:
        raise PreconditionError("not_both_zero", "gcd(0, 0) is undefined")


def check_gcd(t: GcdTriple) -> Verdict:
    """Decide whether (g, s, t) certifies gcd(a, b) = g.

    Raises :class:`PreconditionError` unless a >= 0, b >= 0, and a + b > 0.
    """
    require_gcd_inputs(t.a, t.b)
    if t.g < 0:
        return reject("g_nonneg", f"claimed gcd {shown(t.g)} is negative")
    if not _divides(t.g, t.a):
        return reject("divides_a", f"{shown(t.g)} does not divide {shown(t.a)}")
    if not _divides(t.g, t.b):
        return reject("divides_b", f"{shown(t.g)} does not divide {shown(t.b)}")
    if t.g != t.s * t.a + t.t * t.b:
        return reject(
            "combination",
            f"{shown(t.g)} != {shown(t.s)}*{shown(t.a)} + {shown(t.t)}*{shown(t.b)}",
        )
    return ACCEPT


def _divides(d: int, x: int) -> bool:
    return x == 0 if d == 0 else x % d == 0
