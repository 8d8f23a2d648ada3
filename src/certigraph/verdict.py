"""Checker verdicts, and the two errors that mean no verdict exists.

A checker decides its witness predicate totally: every call on inputs that
satisfy the problem precondition returns Accept or Reject, never an
exception. Inputs that violate the precondition raise
:class:`PreconditionError` instead of producing an arbitrary verdict, and
a file that does not conform to its format raises :class:`ParseError`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from .record import Record


class Verdict(Record):
    """Outcome of a witness check.

    ``clause`` names the first violated conjunct on rejection (a short,
    stable identifier; the CLI prints it verbatim). ``detail`` is free-form
    diagnostic text such as the offending vertex or edge.
    """

    accepted: bool
    clause: str
    detail: str

    def __bool__(self) -> bool:
        return self.accepted


ACCEPT = Verdict(True, "", "")


def reject(clause: str, detail: str = "") -> Verdict:
    return Verdict(False, clause, detail)


_SHOWN_BELOW = 10**30


def shown(x: int) -> str:
    """Decimal for small numbers, the bit length for large ones.

    Details name numbers from the witness. Decimal conversion of a large
    int can exceed the interpreter's digit limit and raise; the bit length
    needs no conversion at all.
    """
    if -_SHOWN_BELOW < x < _SHOWN_BELOW:
        return str(x)
    return f"{'-' if x < 0 else ''}<{x.bit_length()}-bit integer>"


def first_rejection(clauses: Iterable[Callable[..., Verdict]], *args) -> Verdict:
    """The verdict of the first clause that rejects ``args``, else ACCEPT.

    A checker is the conjunction of its clauses in a fixed order; later
    clauses may assume that earlier ones hold.
    """
    for clause in clauses:
        verdict = clause(*args)
        if not verdict:
            return verdict
    return ACCEPT


class PreconditionError(Exception):
    """The instance violates the problem precondition; no verdict exists."""

    def __init__(self, clause: str, detail: str = ""):
        self.clause = clause
        self.detail = detail
        super().__init__(f"{clause}: {detail}" if detail else clause)


class ParseError(ValueError):
    """The file does not conform to its format."""
