"""Rows and exact decimals for the line-based file formats.

``_rows`` splits a file into numbered lines of whitespace-separated tokens.
The rest read unsigned and write signed decimals of any length in pieces,
so no number meets the interpreter's int/str digit limit, which is never changed.
"""

from .verdict import ParseError


def _rows(text: str) -> list[tuple[int, list[str]]]:
    rows = [(i, raw.split()) for i, raw in enumerate(text.splitlines(), start=1)]
    while rows and not rows[-1][1]:
        rows.pop()
    for lineno, toks in rows:
        if not toks:
            raise ParseError(f"line {lineno}: blank line inside the file")
    return rows


_SAFE_DIGITS = 640  # the lowest digit limit CPython can be set to


def _digits_value(digits: str) -> int:
    """The value of an ASCII digit string of any length.

    Long strings are split in halves until each piece is short enough for
    ``int`` under any digit limit.
    """
    if len(digits) <= _SAFE_DIGITS:
        return int(digits)
    low = len(digits) // 2
    return _digits_value(digits[:-low]) * 10**low + _digits_value(digits[-low:])


def _decimal(x: int) -> str:
    """``str(x)`` for an int of any size, whatever the digit limit."""
    try:
        return str(x)
    except ValueError:  # past the limit: write the halves
        pass
    if x < 0:
        return "-" + _decimal(-x)
    low = x.bit_length() * 3 // 20  # about half the digits, as log10(2) ~ 0.3
    high, rest = divmod(x, 10**low)
    return _decimal(high) + _decimal(rest).zfill(low)


def _nat(token: str, lineno: int) -> int:
    if not (token.isascii() and token.isdigit()):
        raise ParseError(f"line {lineno}: expected a nonnegative integer, got {token!r}")
    return _digits_value(token)
