"""Natural numbers extended with infinity, in exact unbounded arithmetic.

Shortest-path distances live in this domain: absence of a path is the
infinite distance, and all finite values are ordinary Python integers, so
no comparison or addition ever overflows or rounds.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class ExtNat:
    """A nonnegative integer or infinity (encoded as ``value = None``).

    Supports the total order of the extended naturals and addition, with
    infinity absorbing: ``INFINITY + k == INFINITY`` for every k.
    """

    value: int | None

    def __post_init__(self) -> None:
        if self.value is not None:
            if not isinstance(self.value, int) or isinstance(self.value, bool):
                raise TypeError(f"finite ExtNat needs an int, got {self.value!r}")
            if self.value < 0:
                raise ValueError(f"ExtNat must be nonnegative, got {self.value}")

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def __add__(self, other: ExtNat | int) -> ExtNat:
        k = other.value if isinstance(other, ExtNat) else other
        if k is not None and k < 0:
            raise ValueError(f"cannot add negative {k} to an ExtNat")
        if self.value is None or k is None:
            return INFINITY
        return ExtNat(self.value + k)

    def __le__(self, other: ExtNat) -> bool:
        # Everything is <= infinity; otherwise both sides must be finite.
        if other.value is None:
            return True
        return self.value is not None and self.value <= other.value

    def __lt__(self, other: ExtNat) -> bool:
        return self <= other and self != other

    def __ge__(self, other: ExtNat) -> bool:
        return other <= self

    def __gt__(self, other: ExtNat) -> bool:
        return other < self

    def __str__(self) -> str:
        return "INF" if self.value is None else str(self.value)


INFINITY = ExtNat(None)
