"""Immutable value records, the base of the package's data classes.

A subclass's own annotations, in order, are its fields, given by position
only. A record equals only a record of the same class with equal fields,
hashes as its fields, and cannot change.
"""


class Record:
    __match_args__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls.__match_args__ = tuple(vars(cls).get("__annotations__", {}))

    def __init__(self, *args) -> None:
        fields = self.__match_args__
        if len(args) != len(fields):
            sig = f"{type(self).__qualname__}({', '.join(fields)})"
            raise TypeError(f"{sig} takes {len(fields)} positional arguments, not {len(args)}")
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check and normalize the fields; a subclass with checks overrides it."""

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
