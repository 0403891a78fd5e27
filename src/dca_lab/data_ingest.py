"""Parsing, validation and normalization of the input dataset.

Input format: plain text, one record per line, 11 comma-separated fields
(sample id, nine attributes, class code), no header, ``?`` marking a
missing attribute. This is bit-compatible with the UCI
``breast-cancer-wisconsin.data`` distribution, whose attributes range
over [1, 10] and whose class codes are 2 (Normal) and 4 (Anomalous).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator

from .agents import Category

ATTRIBUTE_COUNT = 9
FIELD_COUNT = 11
MISSING_MARKER = "?"
NORMAL_CLASS_CODE = 2
ANOMALOUS_CLASS_CODE = 4


class DatasetError(ValueError):
    """Base class for dataset parse and validation failures."""


class FieldCountError(DatasetError):
    """A row does not have exactly 11 comma-separated fields."""


class NonNumericFieldError(DatasetError):
    """A field is neither an integer nor the missing marker."""


class ClassCodeError(DatasetError):
    """The class code is not one of the two reference values."""


class EmptyDatasetError(DatasetError):
    """Loading produced zero records."""


class OutOfRangeError(DatasetError):
    """An attribute value lies outside the declared normalization bounds."""


class BadBoundsError(ValueError):
    """Normalization bounds do not satisfy lo < hi."""


class MissingValuePolicy(Enum):
    SKIP_RECORD = "skip_record"
    IMPUTE_MEDIAN = "impute_median"


@dataclass(frozen=True)
class RawRecord:
    """One parsed row, missing markers preserved as None, not yet normalized."""

    sample_id: int
    attributes: tuple[int | None, ...]
    class_code: int


@dataclass(frozen=True)
class AntigenRecord:
    """One classification item: normalized attributes plus the ground truth.

    antigen_id values are assigned sequentially in file order from 0.
    """

    antigen_id: int
    source_sample_id: int
    attributes: tuple[float, ...]
    true_label: Category


@dataclass(frozen=True)
class AttributePolicy:
    """How to treat missing values, and the fixed min-max bounds.

    Bounds default to the dataset's documented [1, 10] attribute range so
    classification does not depend on record order or subset.
    """

    missing_value_policy: MissingValuePolicy = MissingValuePolicy.SKIP_RECORD
    lo: float = 1.0
    hi: float = 10.0

    def __post_init__(self):
        if not self.lo < self.hi:
            raise BadBoundsError(f"bounds must satisfy lo < hi, got [{self.lo}, {self.hi}]")


@dataclass
class DatasetSummary:
    rows_read: int = 0
    rows_skipped: int = 0
    records_produced: int = 0
    label_counts: dict[Category, int] = field(
        default_factory=lambda: {Category.NORMAL: 0, Category.ANOMALOUS: 0}
    )


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise NonNumericFieldError(
            f"{what} {text!r} is neither an integer nor {MISSING_MARKER!r}"
        ) from None


def parse_record(line: str) -> RawRecord:
    """Parse one comma-separated row; preserves missing markers, no normalization."""
    fields = line.strip().split(",")
    if len(fields) != FIELD_COUNT:
        raise FieldCountError(
            f"expected {FIELD_COUNT} comma-separated fields, got {len(fields)}"
        )
    sample_id = _parse_int(fields[0], "sample id")
    attributes = tuple(
        None if text == MISSING_MARKER else _parse_int(text, f"attribute {i + 1}")
        for i, text in enumerate(fields[1 : 1 + ATTRIBUTE_COUNT])
    )
    class_code = _parse_int(fields[FIELD_COUNT - 1], "class code")
    if class_code not in (NORMAL_CLASS_CODE, ANOMALOUS_CLASS_CODE):
        raise ClassCodeError(
            f"class code must be {NORMAL_CLASS_CODE} or {ANOMALOUS_CLASS_CODE}, "
            f"got {class_code}"
        )
    return RawRecord(sample_id=sample_id, attributes=attributes, class_code=class_code)


def normalize_attribute(value: float, lo: float, hi: float) -> float:
    """Min-max normalization of one value onto [0, 1]."""
    if lo >= hi:
        raise BadBoundsError(f"bounds must satisfy lo < hi, got [{lo}, {hi}]")
    if not lo <= value <= hi:
        raise OutOfRangeError(f"value {value} outside declared bounds [{lo}, {hi}]")
    return (value - lo) / (hi - lo)


def _iter_lines(source) -> Iterator[str]:
    """The source's lines, without one leading byte order mark (U+FEFF)."""
    if hasattr(source, "read"):
        try:
            data = source.read()
            if isinstance(data, (bytes, bytearray)):
                data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            lineno = exc.object.count(b"\n", 0, exc.start) + 1
            raise DatasetError(
                f"line {lineno}: not UTF-8 text "
                f"(byte 0x{exc.object[exc.start]:02x} at offset {exc.start})"
            ) from None
        lines = iter(data.splitlines())
    else:
        lines = iter(source)
    first = next(lines, None)
    if first is not None:
        yield first.removeprefix("\ufeff")
        yield from lines


def _column_medians(rows: list[RawRecord]) -> list[int]:
    """Per-column median of the non-missing values; even counts take the lower middle."""
    medians: list[int] = []
    for col in range(ATTRIBUTE_COUNT):
        present = [row.attributes[col] for row in rows if row.attributes[col] is not None]
        if not present:
            raise DatasetError(
                f"attribute column {col + 1} has no non-missing values to impute from"
            )
        medians.append(statistics.median_low(present))
    return medians


def load_dataset(
    source: Iterable[str],
    policy: AttributePolicy = AttributePolicy(),
) -> tuple[list[AntigenRecord], DatasetSummary]:
    """Parse, apply the missing-value policy, normalize, and label every row.

    ``source`` may be a text or binary stream or any iterable of lines.
    Blank lines are ignored. Parse and normalization errors are re-raised
    with the offending 1-based line number. A pure function of the bytes
    and the policy: identical inputs yield identical record lists.
    """
    parsed: list[tuple[int, RawRecord]] = []
    for lineno, line in enumerate(_iter_lines(source), start=1):
        if not line.strip():
            continue
        try:
            parsed.append((lineno, parse_record(line)))
        except DatasetError as exc:
            raise type(exc)(f"line {lineno}: {exc}") from exc

    rows_read = len(parsed)
    if policy.missing_value_policy is MissingValuePolicy.SKIP_RECORD:
        kept = [(lineno, row) for lineno, row in parsed if None not in row.attributes]
        rows_skipped = rows_read - len(kept)
    else:
        medians = _column_medians([row for _, row in parsed]) if parsed else []
        kept = [
            (
                lineno,
                RawRecord(
                    sample_id=row.sample_id,
                    attributes=tuple(
                        medians[i] if v is None else v
                        for i, v in enumerate(row.attributes)
                    ),
                    class_code=row.class_code,
                ),
            )
            for lineno, row in parsed
        ]
        rows_skipped = 0

    if not kept:
        raise EmptyDatasetError("no records produced")

    records: list[AntigenRecord] = []
    summary = DatasetSummary(rows_read=rows_read, rows_skipped=rows_skipped)
    for antigen_id, (lineno, row) in enumerate(kept):
        try:
            attributes = tuple(
                normalize_attribute(v, policy.lo, policy.hi) for v in row.attributes
            )
        except DatasetError as exc:
            raise type(exc)(f"line {lineno}: {exc}") from exc
        label = (
            Category.ANOMALOUS
            if row.class_code == ANOMALOUS_CLASS_CODE
            else Category.NORMAL
        )
        records.append(
            AntigenRecord(
                antigen_id=antigen_id,
                source_sample_id=row.sample_id,
                attributes=attributes,
                true_label=label,
            )
        )
        summary.label_counts[label] += 1
    summary.records_produced = len(records)
    return records, summary
