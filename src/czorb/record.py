"""The base of czorb's value classes: immutable records whose fields are
their class's __slots__."""


class Record:
    """An immutable record. A subclass names its fields, in order, in
    __slots__ and sets each one in its __init__ with object.__setattr__.

    Equality, hashing and repr follow the fields in order, as those of a
    frozen dataclass do, and a record never equals an instance of another
    class. copy, deepcopy and pickle rebuild a record by calling its class
    with the fields. Assigning or deleting an attribute raises
    AttributeError.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
