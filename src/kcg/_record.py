"""Immutable value records.  A subclass lists its fields as class
annotations, in order, with any defaults as class attributes; instances
run ``__post_init__`` to validate, refuse assignment, compare by class
and fields, and hash as the tuple of their fields."""


class Record:
    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {n: cls.__dict__[n] for n in cls._fields if n in cls.__dict__}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            given = dict(zip(fields, args), **kwargs)
            values = {**self._defaults, **given}
            if len(given) < len(args) + len(kwargs) or values.keys() != set(fields):
                raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
            args = [values[field] for field in fields]
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, field) for field in self._fields)

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
