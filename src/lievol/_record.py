"""Immutable value records: the one base of the package's result and key types.

A subclass lists its fields as class annotations, in order; a class
attribute of the same name is that field's default and stays readable on
the class (``Tolerance.rel``). Each subclass gets an ``__init__`` with
exactly those parameters, which calls ``__post_init__`` if defined (it may
normalize a field through ``object.__setattr__``); equality and hashing by
field values within one type, so a record never equals a tuple; a repr in
constructor form; and instances that refuse assignment and deletion. This
is the part of ``dataclasses.dataclass(frozen=True)`` the package used,
without the import and per-class cost of ``dataclasses`` at start-up.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
        params = ", ".join(
            f"{name}=_defaults[{name!r}]" if name in defaults else name for name in fields
        )
        body = f"self.__dict__.update({', '.join(f'{name}={name}' for name in fields)})"
        if hasattr(cls, "__post_init__"):
            body += "; self.__post_init__()"
        # generated like namedtuple's __new__, so signatures and TypeError
        # messages name the fields
        namespace = {"_defaults": defaults}
        exec(f"def __init__(self, {params}):\n    {body}\n", namespace)
        init = namespace["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        init.__module__ = cls.__module__
        cls.__init__ = init
        cls._fields = fields

    def _values(self) -> tuple:
        values = self.__dict__
        return tuple([values[name] for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
