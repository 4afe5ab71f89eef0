"""Value classes built from their annotated fields, without generated code.

`value_class` takes a class's own annotations, in order, as its fields and
adds what the standard library's frozen data classes have: field-wise
`__eq__`, `__hash__` and `__repr__`, and the one constructor of every value
class, an `__init__` taking the fields positionally or by keyword (a class
attribute of the same name is the default) that calls `__post_init__` when
the class has one, so a class checks its fields there.  Instances refuse
assignment and deletion, and keep a `__dict__`, so
`functools.cached_property` works and its values stay out of equality.
"""

from operator import attrgetter


def _bind(cls, names, args, kwargs):
    """Field values in field order, from a call that is not one positional
    argument per field."""
    if len(args) > len(names):
        raise TypeError(f"{cls.__name__}() takes {len(names)} positional arguments "
                        f"but {len(args)} were given")
    values = dict(zip(names, args))
    for name, value in kwargs.items():
        if name not in names:
            raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
        if name in values:
            raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
        values[name] = value
    for name in names:
        if name not in values:
            if name not in cls.__dict__:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
            values[name] = cls.__dict__[name]
    return [values[name] for name in names]


def value_class(cls):
    """Make cls a value class."""
    names = tuple(cls.__dict__["__annotations__"])
    arity = len(names)
    fields = attrgetter(*names)
    key = fields if arity > 1 else (lambda self: (fields(self),))
    post_init = cls.__dict__.get("__post_init__")

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != arity:
            args = _bind(cls, names, args, kwargs)
        self.__dict__.update(zip(names, args))
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return fields(self) == fields(other)

    def __repr__(self):
        args = ", ".join(f"{name}={value!r}" for name, value in zip(names, key(self)))
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
    cls.__hash__ = lambda self: hash(key(self))
    cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
    return cls
