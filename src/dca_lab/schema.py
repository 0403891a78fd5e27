"""The config schema: a config class's fields are its rows, and one check of a value against its row.

A ``Config`` subclass declares each field as a class attribute that is its
row, ``name = Field(kind, lo, hi, default=..., note=...)``. A value is
checked once, by ``check``, whether it arrives through Python, the CLI's
JSON reader or ``replace``.
"""

from __future__ import annotations

import reprlib
from types import EllipsisType
from typing import NamedTuple


class InvalidConfigError(ValueError):
    """A config value, or a rule between config values, is violated."""


#: A row's default when it has none: the field must be given.
REQUIRED = object()


class Field(NamedTuple):
    """One config field: its JSON kind, inclusive bounds, default and ``gen-config`` note.

    ``kind`` is int, float, bool, str, or a component: a ``Config``
    subclass. With ``length`` the field is an array of that many values
    (``...``: any number). With ``choices`` the value must be one of them.
    """

    kind: type
    lo: float | None = None
    hi: float | None = None
    length: int | EllipsisType | None = None
    note: str | None = None
    default: object = REQUIRED
    choices: tuple | None = None


_KIND_TEXT = {int: "an integer", float: "a number", bool: "true or false"}


def expected_text(f: Field) -> str:
    """What a field's value must be, in words that fit both its JSON document and its class."""
    if issubclass(f.kind, Config):
        name = f.kind.__name__
        return f"{'an' if name[0] in 'AEIOU' else 'a'} {name}"
    one = "one of " + ", ".join(map(repr, f.choices)) if f.choices else _KIND_TEXT[f.kind]
    if f.length is None:
        return one
    count = "" if f.length is ... else f"{f.length} "
    return f"an array of {count}values, each {one}"


def _has_kind(value, kind: type) -> bool:
    """Whether a value fits a row's kind: a bool is only a flag, an int is also a number."""
    if isinstance(value, bool) or kind is bool:
        return type(value) is kind
    return isinstance(value, (int, float) if kind is float else kind)


def brief(value) -> str:
    """A value as a one-line diagnostic echoes it: its repr, cut short if long."""
    try:
        return reprlib.repr(value)
    except ValueError:  # an integer past the interpreter's limit for str()
        return "a value too long to print"


def check(name: str, f: Field, value):
    """The value of field ``name`` checked against its row, then converted.

    A value must have its row's kind (an array: a list or tuple of the
    row's length, each item of that kind), be one of its choices if it
    has any, and lie within its bounds. An array is then returned as a
    tuple, and a number in a float row as a float.
    """
    items = (value,) if f.length is None else value
    shaped = f.length is None or isinstance(value, (list, tuple)) and f.length in (..., len(value))
    if not shaped or not all(_has_kind(v, f.kind) for v in items) or f.choices and value not in f.choices:
        raise InvalidConfigError(f"{name} must be {expected_text(f)}, got {brief(value)}")
    if f.lo is not None:
        for v in items:
            if not f.lo <= v <= f.hi:
                raise InvalidConfigError(f"{name} must be in [{f.lo}, {f.hi}], got {brief(v)}")
    converted = tuple(map(float, items)) if f.kind is float else tuple(items)
    return converted[0] if f.length is None else converted


class Config:
    """An immutable config whose ``Field`` class attributes are its rows, collected in ``ROWS``.

    Arguments bind by position or by name, as a dataclass's do, and a field
    left out takes its row's default. Each value is stored as ``check``
    returns it, then ``rules`` runs: a config that exists is valid.
    """

    def __init_subclass__(cls):
        cls.ROWS = {name: row for name, row in vars(cls).items() if isinstance(row, Field)}

    def __init__(self, *args, **kwargs):
        cls, rows = type(self).__name__, self.ROWS
        if len(args) > len(rows):
            raise TypeError(f"{cls}() takes {len(rows)} positional arguments but {len(args)} were given")
        values = dict(zip(rows, args))
        for name in kwargs:
            if name not in rows:
                raise TypeError(f"{cls}() got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{cls}() got multiple values for argument {name!r}")
        values.update(kwargs)
        for name, row in rows.items():
            value = values.get(name, row.default)
            if value is REQUIRED:
                raise TypeError(f"{cls}() missing required argument {name!r}")
            object.__setattr__(self, name, check(name, row, value))
        self.rules()

    def rules(self) -> None:
        """Check the rules between this config's values; each class states its own."""

    def replace(self, **changes):
        """A new config of this class with ``changes`` applied, built and checked afresh."""
        return type(self)(**{**vars(self), **changes})

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        values = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({values})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: a config is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: a config is immutable")
