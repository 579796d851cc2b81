"""The base of czorb's value classes: immutable records whose fields are
their class's __slots__."""


class Record:
    """An immutable record. A subclass declares its fields once: their
    names, in order, in __slots__, and the defaults of trailing fields in a
    `_defaults` dict. At class creation the fields are stored as `_fields`
    and an __init__ is built from them that takes each field positionally
    or by keyword, as namedtuple builds its __new__; a subclass that names
    no new field keeps its parent's, and one that writes an __init__ or adds
    fields raises TypeError. The built __init__ carries no annotations. A
    class with a rule defines it as a static `_check`, which takes the field
    values in order and returns them checked; the built __init__ stores what
    it returns, and a classmethod `_unchecked` skips it, for builders that
    have proved the rule themselves.

    Equality, hashing and repr follow the fields in order, as those of a
    frozen dataclass do, and a record never equals an instance of another
    class. copy, deepcopy and pickle rebuild a record by calling its class
    with the fields. Assigning or deleting an attribute raises
    AttributeError.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = vars(cls).get("__slots__", ())
        if not fields:
            return
        if "__init__" in vars(cls) or cls._fields:  # the built __init__ would drop either
            raise TypeError(f"{cls.__qualname__}: a record writes no __init__ and adds no fields to a parent's")
        defaults = vars(cls).get("_defaults", {})
        params = ", ".join(f"{name}=_defaults[{name!r}]" if name in defaults else name for name in fields)
        names = ", ".join(fields)
        check = f"\n    ({names},) = _check({names})" if "_check" in vars(cls) else ""
        body = "".join(f"\n    _setattr(self, {name!r}, {name})" for name in fields)
        namespace = {"_setattr": object.__setattr__, "_new": object.__new__, "_defaults": defaults}
        if check:
            namespace["_check"] = cls._check
            exec(f"def _unchecked(cls, {names}):\n    self = _new(cls){body}\n    return self", namespace)
            cls._unchecked = classmethod(namespace["_unchecked"])
        exec(f"def __init__(self, {params}):{check}{body}", namespace)
        cls.__init__ = init = namespace["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        init.__module__ = cls.__module__
        cls._fields = fields

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

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
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
