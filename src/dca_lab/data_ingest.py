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
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate
from typing import Iterable, NamedTuple

from .agents import Category
from .schema import Field, InvalidConfigError, brief, check

ATTRIBUTE_COUNT = 9
FIELD_COUNT = ATTRIBUTE_COUNT + 2  # sample id, attributes, class code
MISSING_MARKER = "?"
NORMAL_CLASS_CODE = 2
ANOMALOUS_CLASS_CODE = 4


class DatasetError(ValueError):
    """The dataset or its records are faulty; the CLI exits 3. The message names the fault."""


class MissingValuePolicy(Enum):
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
    true_label: Category


_FINITE = {"row": Field(float, -sys.float_info.max, sys.float_info.max)}


@dataclass(frozen=True)
class AttributePolicy:
    """How to treat missing values, and the fixed min-max bounds.

    Bounds default to the dataset's documented [1, 10] attribute range so
    classification does not depend on record order or subset. Both bounds
    are finite, and so must be their span: with ``hi - lo`` overflowing to
    inf, every attribute would normalize to 0.0.
    """

    missing_value_policy: MissingValuePolicy = field(default=MissingValuePolicy.SKIP_RECORD, metadata={"row": Field(MissingValuePolicy)})
    lo: float = field(default=1.0, metadata=_FINITE)
    hi: float = field(default=10.0, metadata=_FINITE)

    def __post_init__(self):
        check(self)
        if not 0.0 < self.hi - self.lo < math.inf:
            raise InvalidConfigError(f"lo must be below hi, with hi - lo finite, got [{self.lo}, {self.hi}]")


@dataclass
class DatasetSummary:
    rows_read: int = 0
    rows_skipped: int = 0
    records_produced: int = 0
    label_counts: dict[Category, int] = field(
        default_factory=lambda: {Category.NORMAL: 0, Category.ANOMALOUS: 0}
    )


def normalize_attribute(value: float, lo: float, hi: float) -> float:
    """Min-max normalization of one value onto [0, 1].

    The bounds are taken as ``AttributePolicy`` checked them: lo < hi, with
    ``hi - lo`` finite.
    """
    if not lo <= value <= hi:
        raise DatasetError(f"value {brief(value)} outside declared bounds [{lo}, {hi}]")
    return (value - lo) / (hi - lo)


def _lines(source) -> list[str]:
    """The source's lines, without one leading byte order mark (U+FEFF).

    A binary stream is read whole and split on ``\\n`` only, so a fault's
    line number counts the same line ends whether it is a bad byte or a bad
    field. A text stream is refused: its universal newlines would already
    have split rows at a lone ``\\r``.
    """
    if hasattr(source, "read"):
        data = source.read()
        if not isinstance(data, (bytes, bytearray)):
            raise TypeError("load_dataset reads a stream in binary mode only: open the file with 'rb'")
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            lineno = exc.object.count(b"\n", 0, exc.start) + 1
            raise DatasetError(
                f"line {lineno}: not UTF-8 text "
                f"(byte 0x{exc.object[exc.start]:02x} at offset {exc.start})"
            ) from None
        lines = data.split("\n")
    else:
        lines = list(source)
    if lines:
        lines[0] = lines[0].removeprefix("\ufeff")
    return lines


def _ascii_int(text: str, what: str) -> int:
    """The value of a field of ASCII digits; every other spelling is a fault."""
    if text.isdigit() and text.isascii():
        try:
            return int(text)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise DatasetError(f"{what} has {len(text)} digits, more than int() converts") from None
    raise DatasetError(f"{what} {brief(text)} is not ASCII digits")


#: The class tokens a row may carry as they are, and whether each marks an
#: anomalous row. Any other spelling of 2 or 4 in ASCII digits (``02``)
#: is read by ``_ascii_int``.
_CLASS_TOKENS = {str(NORMAL_CLASS_CODE): False, str(ANOMALOUS_CLASS_CODE): True}

#: One parsed row: line number, sample id, attribute values (None where
#: missing) and whether the class code is the anomalous one.
_Row = tuple[int, int, tuple[int | None, ...], bool]


def _read_rows(lines: list[str]) -> list[_Row]:
    """Each row's sample id, attribute values (None where missing) and class.

    Attribute tokens are looked up in a table that learns each new one.
    A row's first fault is raised with its line number, in field order:
    the field count, the sample id, the attributes left to right, the
    class code.
    """
    tokens: dict[str, int | None] = {MISSING_MARKER: None}
    token_value = tokens.__getitem__
    rows: list[_Row] = []
    try:
        for lineno, line in enumerate(lines, start=1):
            line = line.removesuffix("\r")
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != FIELD_COUNT:
                raise DatasetError(f"expected {FIELD_COUNT} comma-separated fields, got {len(fields)}")
            sample_id = _ascii_int(fields[0], "sample id")
            attributes = fields[1:-1]
            try:
                values = tuple(map(token_value, attributes))
            except KeyError:
                for i, text in enumerate(attributes, start=1):
                    if text not in tokens:
                        tokens[text] = _ascii_int(text, f"attribute {i}")
                values = tuple(map(token_value, attributes))
            anomalous = _CLASS_TOKENS.get(fields[-1])
            if anomalous is None:
                code = _ascii_int(fields[-1], "class code")
                if code not in (NORMAL_CLASS_CODE, ANOMALOUS_CLASS_CODE):
                    raise DatasetError(
                        f"class code must be {NORMAL_CLASS_CODE} or {ANOMALOUS_CLASS_CODE}, got {code}"
                    )
                anomalous = code == ANOMALOUS_CLASS_CODE
            rows.append((lineno, sample_id, values, anomalous))
    except DatasetError as exc:
        raise DatasetError(f"line {lineno}: {exc}") from exc
    return rows


def _median_low(counts: Counter) -> int:
    """``statistics.median_low`` of the counted values: the one at sorted index (n - 1) // 2."""
    values = sorted(counts)
    ends = list(accumulate(counts[v] for v in values))  # ends[j]: how many are <= values[j]
    return values[bisect_right(ends, (ends[-1] - 1) // 2)]


def _column_medians(rows: list[_Row]) -> list[int]:
    """Per-column median of the non-missing values; even counts take the lower middle.

    Each column is counted per distinct value, which is cheap because the
    attributes take only a few distinct values.
    """
    medians: list[int] = []
    for col, column in enumerate(zip(*(values for _, _, values, _ in rows)), start=1):
        counts = Counter(column)
        del counts[None]
        if not counts:
            raise DatasetError(
                f"attribute column {col} has no non-missing values to impute from"
            )
        medians.append(_median_low(counts))
    return medians


def load_dataset(
    source: Iterable[str],
    policy: AttributePolicy = AttributePolicy(),
) -> tuple[list[AntigenRecord], DatasetSummary]:
    """Parse, apply the missing-value policy, normalize, and label every row.

    ``source`` may be a binary stream, read whole and split on ``\\n``,
    or any iterable of lines without their ``\\n``; a text stream raises
    ``TypeError``. Each line loses one trailing ``\\r``; an empty line is
    skipped and every other line is a row in the module's grammar. Faults
    are raised with the offending 1-based line number: the first parse
    error in file order, then a column with nothing to impute from, then
    the first out-of-range value in the order of the kept rows. A pure
    function of the bytes and the policy: identical inputs yield identical
    record lists.

    Each distinct attribute token is parsed once and each distinct value
    normalized once, by table lookup. ``normalize_attribute`` fills the
    value table, so the floats are the ones it returns.
    """
    rows = _read_rows(_lines(source))
    impute = policy.missing_value_policy is not MissingValuePolicy.SKIP_RECORD
    medians = _column_medians(rows) if impute else []
    labels = (Category.NORMAL, Category.ANOMALOUS)
    normalized: dict[int, float] = {}
    normalized_value = normalized.__getitem__
    records: list[AntigenRecord] = []
    anomalous_count = 0
    for lineno, sample_id, values, anomalous in rows:
        if None in values:
            if not impute:
                continue
            values = tuple(medians[i] if v is None else v for i, v in enumerate(values))
        try:
            attributes = tuple(map(normalized_value, values))
        except KeyError:
            for v in values:
                if v not in normalized:
                    try:
                        normalized[v] = normalize_attribute(v, policy.lo, policy.hi)
                    except DatasetError as exc:
                        raise DatasetError(f"line {lineno}: {exc}") from exc
            attributes = tuple(map(normalized_value, values))
        records.append(AntigenRecord(len(records), sample_id, attributes, labels[anomalous]))
        anomalous_count += anomalous
    if not records:
        raise DatasetError("no records produced")

    summary = DatasetSummary(
        rows_read=len(rows),
        rows_skipped=len(rows) - len(records),
        records_produced=len(records),
        label_counts={
            Category.NORMAL: len(records) - anomalous_count,
            Category.ANOMALOUS: anomalous_count,
        },
    )
    return records, summary
