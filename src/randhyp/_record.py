"""Frozen value records, built without generated code.

A `Record` subclass declares its fields as class annotations, as a frozen
dataclass would: construction by position or keyword in field order, with
defaults; `field(...)` for a default factory or for a field left out of
`__init__`, the repr or comparison; an optional `__post_init__`, which may
set fields through `object.__setattr__`; equality and hashing over the
compared fields; and `AttributeError` on assignment or deletion.  The
fields are read once per class and every method is shared, so defining a
record compiles nothing.
"""

_MISSING = object()


class field:
    """Options of one record field; a plain default needs none."""

    __slots__ = ("name", "default", "default_factory", "init", "repr", "compare")

    def __init__(self, *, default=_MISSING, default_factory=_MISSING,
                 init=True, repr=True, compare=True):
        self.default = default
        self.default_factory = default_factory
        self.init = init
        self.repr = repr
        self.compare = compare


class Record:
    _fields = ()        # field specs in declaration order
    _init_names = ()    # names accepted by __init__, in order
    _compare_names = ()
    _repr_names = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        specs = {f.name: f for f in cls._fields}     # inherited fields first
        for name in cls.__annotations__:
            value = cls.__dict__.get(name, _MISSING)
            spec = value if isinstance(value, field) else field(default=value)
            spec.name = name
            if spec.default is not _MISSING:
                setattr(cls, name, spec.default)
            elif name in cls.__dict__:
                delattr(cls, name)
            specs[name] = spec
        cls._fields = tuple(specs.values())
        cls._init_names = tuple(f.name for f in cls._fields if f.init)
        cls._compare_names = tuple(f.name for f in cls._fields if f.compare)
        cls._repr_names = tuple(f.name for f in cls._fields if f.repr)

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = cls._init_names
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments "
                            f"but {len(args)} were given")
        state = self.__dict__
        if len(args) == len(cls._fields) and not kwargs:    # a complete positional call
            state.update(zip(names, args))
        else:
            values = dict(zip(names, args))
            for name, value in kwargs.items():
                if name in values:
                    raise TypeError(f"{cls.__name__}() got multiple values for {name!r}")
                if name not in names:
                    raise TypeError(f"{cls.__name__}() got an unexpected argument {name!r}")
                values[name] = value
            for f in cls._fields:
                if f.name in values:
                    state[f.name] = values[f.name]
                elif f.default is not _MISSING:
                    state[f.name] = f.default
                elif f.default_factory is not _MISSING:
                    state[f.name] = f.default_factory()
                elif f.init:
                    raise TypeError(f"{cls.__name__}() missing argument {f.name!r}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def _key(self):
        return tuple([getattr(self, name) for name in self._compare_names])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._repr_names)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
