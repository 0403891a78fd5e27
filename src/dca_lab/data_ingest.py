"""Parsing, validation and normalization of the input dataset.

Input format: UTF-8 text split on ``\\n`` only, one record per line, 11
comma-separated fields (sample id, nine attributes, class code), no
header. Every field is ASCII digits, except that ``?`` marks a missing
attribute. One trailing ``\\r`` per line and one leading byte order mark
are dropped and empty lines are skipped; any other text is a fault. This
is bit-compatible with the UCI ``breast-cancer-wisconsin.data``
distribution, whose attributes range over [1, 10] and whose class codes
are 2 (Normal) and 4 (Anomalous).
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from collections import Counter
from itertools import accumulate, compress, count, islice, repeat
from operator import attrgetter, countOf
from typing import BinaryIO, NamedTuple, NoReturn

from .agents import Category
from .schema import Config, Field, InvalidConfigError, brief

ATTRIBUTE_COUNT = 9
FIELD_COUNT = ATTRIBUTE_COUNT + 2  # sample id, attributes, class code
MISSING_MARKER = "?"
NORMAL_CLASS_CODE = 2
ANOMALOUS_CLASS_CODE = 4


class DatasetError(ValueError):
    """The dataset or its records are faulty; the CLI exits 3. The message names the fault."""


class MissingValuePolicy:
    """The two ways to treat a missing attribute, as the config file spells them."""

    SKIP_RECORD = "skip_record"
    IMPUTE_MEDIAN = "impute_median"


class AntigenRecord(NamedTuple):
    """One classification item: normalized attributes plus the ground truth.

    antigen_id values are assigned sequentially in file order from 0. A
    NamedTuple: built once per row, it costs about half what a frozen
    dataclass does.
    """

    antigen_id: int
    source_sample_id: int
    attributes: tuple[float, ...]
    true_label: str


class AttributePolicy(Config):
    """How to treat missing values, and the fixed min-max bounds.

    Bounds default to the dataset's documented [1, 10] attribute range so
    classification does not depend on record order or subset. Both bounds
    are finite, and so must be their span: with ``hi - lo`` overflowing to
    inf, every attribute would normalize to 0.0.
    """

    missing_value_policy = Field(str, default=MissingValuePolicy.SKIP_RECORD, choices=(MissingValuePolicy.SKIP_RECORD, MissingValuePolicy.IMPUTE_MEDIAN))
    lo = Field(float, -sys.float_info.max, sys.float_info.max, default=1.0)
    hi = Field(float, -sys.float_info.max, sys.float_info.max, default=10.0)

    def rules(self):
        if not 0.0 < self.hi - self.lo < math.inf:
            raise InvalidConfigError(f"lo must be below hi, with hi - lo finite, got [{self.lo}, {self.hi}]")


class DatasetSummary(NamedTuple):
    rows_read: int
    rows_skipped: int
    records_produced: int
    label_counts: dict[str, int]


def normalize_attribute(value: float, lo: float, hi: float) -> float:
    """Min-max normalization of one value onto [0, 1].

    The bounds are taken as ``AttributePolicy`` checked them: lo < hi, with
    ``hi - lo`` finite.
    """
    if not lo <= value <= hi:
        raise DatasetError(f"value {brief(value)} outside declared bounds [{lo}, {hi}]")
    return (value - lo) / (hi - lo)


def _lines(source: BinaryIO) -> list[str]:
    """The stream's lines, without one leading byte order mark (U+FEFF).

    The stream is read whole and split on ``\\n`` only, so a fault's line
    number counts the same line ends whether it is a bad byte or a bad
    field. A text stream is refused: its universal newlines would already
    have split rows at a lone ``\\r``.
    """
    data = source.read()
    if not isinstance(data, (bytes, bytearray)):
        raise TypeError("load_dataset reads a stream in binary mode only: open the file with 'rb'")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = exc.object.count(b"\n", 0, exc.start) + 1
        raise DatasetError(
            f"line {lineno}: not UTF-8 text "
            f"(byte 0x{exc.object[exc.start]:02x} at offset {exc.start})"
        ) from None
    return text.removeprefix("\ufeff").split("\n")


def _ascii_int(text: str, what: str) -> int:
    """The value of a field of ASCII digits; every other spelling is a fault."""
    if text.isdigit() and text.isascii():
        try:
            return int(text)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise DatasetError(f"{what} has {len(text)} digits, more than int() converts") from None
    raise DatasetError(f"{what} {brief(text)} is not ASCII digits")


#: The label each class code stands for.
_LABELS = {NORMAL_CLASS_CODE: Category.NORMAL, ANOMALOUS_CLASS_CODE: Category.ANOMALOUS}


def _median_low(counts: Counter, key):
    """``statistics.median_low`` of the counted items, ordered by ``key``: the one at sorted index (n - 1) // 2."""
    values = sorted(counts, key=key)
    ends = list(accumulate(counts[v] for v in values))  # ends[j]: how many are <= values[j]
    return values[bisect_right(ends, (ends[-1] - 1) // 2)]


def _positions(items: list, item) -> list[int]:
    """Every index of ``item`` in ``items``, found by one scan at C speed."""
    found = [-1]
    try:
        while True:
            found.append(items.index(item, found[-1] + 1))
    except ValueError:
        return found[1:]


def _raise_parse_error(lines: list[str]) -> NoReturn:
    """Raise the first parse error in file order, with its 1-based line number.

    A row's parse error is its first faulty field: the field count, the
    sample id, the attributes left to right, the class code.
    """
    for lineno, line in enumerate(lines, start=1):
        line = line.removesuffix("\r")
        if not line:
            continue
        fields = line.split(",")
        try:
            if len(fields) != FIELD_COUNT:
                raise DatasetError(f"expected {FIELD_COUNT} comma-separated fields, got {len(fields)}")
            _ascii_int(fields[0], "sample id")
            for i, t in enumerate(fields[1:-1], start=1):
                if t != MISSING_MARKER:
                    _ascii_int(t, f"attribute {i}")
            code = _ascii_int(fields[-1], "class code")
            if code not in _LABELS:
                raise DatasetError(f"class code must be {NORMAL_CLASS_CODE} or {ANOMALOUS_CLASS_CODE}, got {code}")
        except DatasetError as exc:
            raise DatasetError(f"line {lineno}: {exc}") from exc
    raise AssertionError("a bulk grammar check failed on a file without a parse error")


def _read_columns(lines: list[str], policy: AttributePolicy) -> tuple[list[AntigenRecord], int]:
    """The records and row count of the file, read by columns; a fault raises ``DatasetError``.

    Blank lines are dropped, every line is checked for ten commas, and all
    fields are split at once. Sample ids and class tokens are carved off by
    extended slices, leaving the attribute tokens row after row. Each
    distinct token is parsed and normalized once, and a missing attribute
    takes its column's median or drops its row. No step loops over the rows
    in Python. Faults come in this order: a file without a row, the first
    parse error in file order (found by ``_raise_parse_error`` once a bulk
    check fails), then the lowest column with nothing to impute from, then
    the first out-of-range value among the kept rows, leftmost in its row.
    """
    rows = list(filter(None, map(str.removesuffix, lines, repeat("\r"))))
    if not rows:
        raise DatasetError("no records produced")
    if set(map(str.count, rows, repeat(","))) != {FIELD_COUNT - 1}:
        _raise_parse_error(lines)
    fields = ",".join(rows).split(",")
    sample_ids = fields[::FIELD_COUNT]
    class_tokens = fields[FIELD_COUNT - 1 :: FIELD_COUNT]
    del fields[FIELD_COUNT - 1 :: FIELD_COUNT], fields[:: FIELD_COUNT - 1]
    id_digits = "".join(sample_ids)
    if not (id_digits.isdigit() and id_digits.isascii()):
        _raise_parse_error(lines)
    tokens = set(fields)
    try:
        sample_ids = list(map(int, sample_ids))  # ValueError: an empty id, or more digits than int() converts
        label = {t: _LABELS[_ascii_int(t, "class code")] for t in set(class_tokens)}
        value = {t: _ascii_int(t, "attribute") for t in tokens - {MISSING_MARKER}}
    except (ValueError, KeyError):  # DatasetError is a ValueError
        _raise_parse_error(lines)
    lo, hi = policy.lo, policy.hi
    normalized = {t: normalize_attribute(v, lo, hi) for t, v in value.items() if lo <= v <= hi}
    out_of_range = value.keys() - normalized.keys()
    normalized.update(dict.fromkeys(out_of_range | {MISSING_MARKER}))  # None marks a value no kept row may hold
    missing = _positions(fields, MISSING_MARKER) if MISSING_MARKER in tokens else []
    skipped: set[int] = set()
    if policy.missing_value_policy == MissingValuePolicy.IMPUTE_MEDIAN:
        fill = {}
        for column in sorted({p % ATTRIBUTE_COUNT for p in missing}):
            counts = Counter(fields[column::ATTRIBUTE_COUNT])
            del counts[MISSING_MARKER]
            if not counts:
                raise DatasetError(f"attribute column {column + 1} has no non-missing values to impute from")
            fill[column] = _median_low(counts, key=value.__getitem__)
        for p in missing:
            fields[p] = fill[p % ATTRIBUTE_COUNT]
    else:
        skipped = {p // ATTRIBUTE_COUNT for p in missing}
    bad = [p for t in out_of_range for p in _positions(fields, t) if p // ATTRIBUTE_COUNT not in skipped]
    if bad:
        p = min(bad)
        # Only this fault needs the row's line number: the row's place among the non-blank lines.
        nonblank = (n for n, line in enumerate(lines, start=1) if line.removesuffix("\r"))
        lineno = next(islice(nonblank, p // ATTRIBUTE_COUNT, None))
        try:
            normalize_attribute(value[fields[p]], lo, hi)
        except DatasetError as exc:
            raise DatasetError(f"line {lineno}: {exc}") from exc
    attributes = list(zip(*[map(normalized.__getitem__, fields)] * ATTRIBUTE_COUNT))
    del fields  # its tokens go before the records come, which keeps the peak memory down
    columns = sample_ids, attributes, map(label.__getitem__, class_tokens)
    if skipped:
        keep = [True] * len(sample_ids)
        for row in skipped:
            keep[row] = False
        columns = [compress(column, keep) for column in columns]
    # tuple.__new__ builds each record in C, as AntigenRecord._make does.
    return list(map(tuple.__new__, repeat(AntigenRecord), zip(count(), *columns))), len(rows)


def load_dataset(
    source: BinaryIO,
    policy: AttributePolicy = AttributePolicy(),
) -> tuple[list[AntigenRecord], DatasetSummary]:
    """Parse, apply the missing-value policy, normalize, and label every row.

    ``source`` is a binary stream, read whole and split on ``\\n``; a text
    stream raises ``TypeError``. Each line loses one trailing ``\\r``; an
    empty line is skipped and every other line is a row in the module's
    grammar. Faults are raised with the offending 1-based line number: the
    first parse error in file order, then a column with nothing to impute
    from, then the first out-of-range value in the order of the kept rows;
    a file that keeps no row raises last. A pure function of the bytes and
    the policy: identical inputs yield identical record lists.

    The file is read once, by columns (``_read_columns``), and
    ``normalize_attribute`` gives every attribute value, once per distinct
    token.
    """
    records, rows_read = _read_columns(_lines(source), policy)
    if not records:
        raise DatasetError("no records produced")
    anomalous = countOf(map(attrgetter("true_label"), records), Category.ANOMALOUS)
    summary = DatasetSummary(
        rows_read=rows_read,
        rows_skipped=rows_read - len(records),
        records_produced=len(records),
        label_counts={
            Category.NORMAL: len(records) - anomalous,
            Category.ANOMALOUS: anomalous,
        },
    )
    return records, summary
