"""`Value`, the base of the package's plain value classes.

A class that derives from `Value` declares its fields by annotation, in
constructor order; a class attribute of the same name is the field's
default.  Instances are built positionally or by keyword, compare equal
only to instances of the same class whose fields are all equal, and show
their fields in `repr`.  The class keyword `frozen=True` refuses
assignment and deletion after construction, and hashes the fields;
instances of other classes are unhashable.

Fields live in the instance `__dict__`, so instances take weak references
and `functools.cached_property` attributes, and pickle as plain objects.
"""

from __future__ import annotations

from operator import attrgetter


class Value:
    FIELDS = ()  # the declared field names, in constructor order

    def __init_subclass__(cls, frozen: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.FIELDS = tuple(cls.__annotations__)
        cls._defaults = {name: vars(cls)[name] for name in cls.FIELDS
                         if name in vars(cls)}
        cls._compared = attrgetter(*cls.FIELDS)
        if frozen:
            cls.__setattr__ = cls.__delattr__ = Value._refuse
            cls.__hash__ = Value._hash

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self.FIELDS):
            args = self._complete(args, kwargs)
        self.__dict__.update(zip(self.FIELDS, args))

    @classmethod
    def _complete(cls, args: tuple, kwargs: dict) -> list:
        """Every field's value, in order, from arguments that do not give
        them all positionally."""
        fields, name = cls.FIELDS, cls.__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} field values, "
                            f"got {len(args)}")
        values = dict(zip(fields, args))
        for field, value in kwargs.items():
            if field not in fields or field in values:
                raise TypeError(f"{name}() got an unknown or repeated field "
                                f"{field!r}")
            values[field] = value
        for field in fields:
            if field not in values:
                if field not in cls._defaults:
                    raise TypeError(f"{name}() is missing field {field!r}")
                values[field] = cls._defaults[field]
        return [values[field] for field in fields]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared(self) == self._compared(other)

    __hash__ = None

    def _hash(self):
        return hash(self._compared(self))

    def _refuse(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen "
                             f"{type(self).__name__}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.FIELDS)
        return f"{type(self).__qualname__}({fields})"
