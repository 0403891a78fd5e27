"""The config schema's rules: one row per field, and the one check of a value against its row.

Each config class declares a field's row in the field itself, as
``dataclasses.field(metadata={"row": Field(...)})``, and calls ``check``
in ``__post_init__``, so a value is checked once, by the same code,
whether it arrives through Python, the CLI's JSON reader or
``dataclasses.replace``.
"""

from __future__ import annotations

import dataclasses
import reprlib
from types import EllipsisType
from typing import NamedTuple


class InvalidConfigError(ValueError):
    """A config value, or a rule between config values, is violated."""


class Field(NamedTuple):
    """One config field: its JSON kind, inclusive bounds and ``gen-config`` note.

    ``kind`` is int, float, bool, an Enum, or a component: a config class
    whose own fields carry rows. With ``length`` the field is an array of
    that many values (``...``: any number). Defaults come from the classes.
    """

    kind: type
    lo: float | None = None
    hi: float | None = None
    length: int | EllipsisType | None = None
    note: str | None = None


def rows(cls_or_obj) -> dict[str, Field]:
    """A config class's rows by field name, in field order; a field without a row is a fault."""
    found = {}
    for d in dataclasses.fields(cls_or_obj):
        if "row" not in d.metadata:
            cls = cls_or_obj if isinstance(cls_or_obj, type) else type(cls_or_obj)
            raise TypeError(f"{cls.__name__}.{d.name} has no schema row")
        found[d.name] = d.metadata["row"]
    return found


_KIND_TEXT = {int: "an integer", float: "a number", bool: "true or false"}


def expected_text(f: Field) -> str:
    """What a field's value must be, in words that fit both its JSON document and its class."""
    name = f.kind.__name__
    if dataclasses.is_dataclass(f.kind):
        return f"{'an' if name[0] in 'AEIOU' else 'a'} {name}"
    one = _KIND_TEXT.get(f.kind) or "one of " + ", ".join(repr(m.value) for m in f.kind) + f" (a {name})"
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


def check(obj) -> None:
    """Check each of ``obj``'s values against its row; only then store it converted.

    A value must have its row's kind (an array: a list or tuple of the
    row's length, each item of that kind) and lie within its bounds. An
    array is then stored as a tuple, and a number in a float row as a float.
    """
    for name, f in rows(obj).items():
        value = getattr(obj, name)
        items = (value,) if f.length is None else value
        shaped = f.length is None or isinstance(value, (list, tuple)) and f.length in (..., len(value))
        if not shaped or not all(_has_kind(v, f.kind) for v in items):
            raise InvalidConfigError(f"{name} must be {expected_text(f)}, got {brief(value)}")
        if f.lo is not None:
            for v in items:
                if not f.lo <= v <= f.hi:
                    raise InvalidConfigError(f"{name} must be in [{f.lo}, {f.hi}], got {brief(v)}")
        converted = tuple(map(float, items)) if f.kind is float else tuple(items)
        object.__setattr__(obj, name, converted[0] if f.length is None else converted)
