"""Immutable value records, the base of the package's data classes.

A subclass's own annotations, in order, are its fields; a class attribute
of a field's name is its default. A record equals only a record of the
same class with equal fields, hashes as its fields, and cannot change.
"""


class Record:
    __slots__ = ()
    __match_args__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        cls.__match_args__ = fields = tuple(own.get("__annotations__", {}))
        slots = own.get("__slots__", ())
        cls._defaults = {f: own[f] for f in fields if f in own and f not in slots}

    def __init__(self, *args, **kwargs) -> None:
        fields = self.__match_args__
        if kwargs or len(args) != len(fields):
            given = {**self._defaults, **dict(zip(fields, args)), **kwargs}
            unknown = {*kwargs} - {*fields[len(args) :]}  # not a field, or given by position too
            if len(args) > len(fields) or unknown or {*fields} - {*given}:
                raise TypeError(
                    f"{type(self).__qualname__}({', '.join(fields)}) cannot take "
                    f"{len(args)} positional arguments and the keywords {sorted(kwargs)}"
                )
            args = [given[f] for f in fields]
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

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
