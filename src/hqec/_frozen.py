"""Read-only records: a record names its fields in ``__slots__`` and sets them
once in ``__init__``, through ``_init``, or through ``_set`` field by field
where records are built per trial.  Assigning or deleting an attribute then
raises AttributeError, as on a frozen dataclass, with no class generated at
import.  The repr shows the public fields; ``_Value`` records also compare and
hash by all their fields, for the types that callers compare."""

_set = object.__setattr__


class _Frozen:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _init(self, *values) -> None:
        """Set the fields to ``values``, in ``__slots__`` order."""
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__ if not name.startswith("_"))
        return f"{type(self).__qualname__}({fields})"


class _Value(_Frozen):
    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)
