"""Parsing, normalization and loading behavior of the dataset reader."""

import io
import statistics

import pytest
from hypothesis import example, given, settings, strategies as st

from dca_lab.agents import Category
from dca_lab.data_ingest import (
    AttributePolicy,
    BadBoundsError,
    ClassCodeError,
    DatasetError,
    EmptyDatasetError,
    FieldCountError,
    MissingValuePolicy,
    NonNumericFieldError,
    OutOfRangeError,
    RawRecord,
    load_dataset,
    normalize_attribute,
    parse_record,
)
from dca_lab.schema import InvalidConfigError

# First row of the UCI distribution, and its first row carrying a missing marker.
FIRST_UCI_ROW = "1000025,5,1,1,1,2,1,3,1,1,2"
MISSING_UCI_ROW = "1057013,8,4,5,1,2,?,7,3,1,4"


class TestParseRecord:
    def test_first_reference_row(self):
        rec = parse_record(FIRST_UCI_ROW)
        assert rec.sample_id == 1000025
        assert rec.attributes == (5, 1, 1, 1, 2, 1, 3, 1, 1)
        assert rec.class_code == 2

    def test_missing_marker_preserved(self):
        rec = parse_record(MISSING_UCI_ROW)
        assert rec.attributes[5] is None
        assert rec.attributes[:5] == (8, 4, 5, 1, 2)
        assert rec.class_code == 4

    def test_field_count_error(self):
        with pytest.raises(FieldCountError):
            parse_record("1,2,3")

    def test_non_numeric_attribute(self):
        with pytest.raises(NonNumericFieldError):
            parse_record("1,2,3,x,5,6,7,8,9,10,2")

    def test_non_numeric_sample_id(self):
        with pytest.raises(NonNumericFieldError):
            parse_record("?,2,3,4,5,6,7,8,9,10,2")

    def test_class_code_error(self):
        with pytest.raises(ClassCodeError):
            parse_record("1,2,3,4,5,6,7,8,9,10,3")

    def test_does_not_normalize(self):
        assert parse_record("1,10,10,10,10,10,10,10,10,10,4").attributes == (10,) * 9


class TestNormalizeAttribute:
    def test_lower_bound(self):
        assert normalize_attribute(1, 1, 10) == 0.0

    def test_upper_bound(self):
        assert normalize_attribute(10, 1, 10) == 1.0

    def test_midpoint(self):
        assert normalize_attribute(5.5, 1, 10) == 0.5

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            normalize_attribute(11, 1, 10)
        with pytest.raises(OutOfRangeError):
            normalize_attribute(0, 1, 10)

    def test_bad_bounds(self):
        with pytest.raises(BadBoundsError):
            normalize_attribute(5, 10, 10)
        with pytest.raises(BadBoundsError):
            normalize_attribute(5, 10, 1)

    def test_bounds_whose_span_overflows_are_rejected(self):
        # Both bounds are finite, but hi - lo is inf: every value would come out 0.0.
        with pytest.raises(BadBoundsError, match="hi - lo finite"):
            normalize_attribute(5, -1e308, 1e308)

    @pytest.mark.parametrize("lo, hi", [(1, 10), (0, 20), (2, 8), (-1.5, 11.25), (1, 7)])
    def test_is_the_literal_quotient_bit_for_bit(self, lo, hi):
        # The ingest parity property takes this function as its reference,
        # so it is pinned here against the formula itself. A reciprocal
        # form, (v - lo) * (1 / (hi - lo)), differs at v = 8 on [1, 10].
        for v in range(int(lo) + 1, int(hi) + 1):
            assert normalize_attribute(v, lo, hi) == (v - lo) / (hi - lo)

    @given(
        lo=st.floats(-1000, 1000),
        width=st.floats(0.01, 2000),
        t=st.floats(0, 1),
    )
    def test_stays_in_unit_interval(self, lo, width, t):
        hi = lo + width
        value = min(max(lo + t * width, lo), hi)
        assert 0.0 <= normalize_attribute(value, lo, hi) <= 1.0

    @given(
        lo=st.floats(-1000, 1000),
        width=st.floats(0.01, 2000),
        t1=st.floats(0, 1),
        t2=st.floats(0, 1),
    )
    def test_monotone(self, lo, width, t1, t2):
        hi = lo + width
        v1 = min(max(lo + min(t1, t2) * width, lo), hi)
        v2 = min(max(lo + max(t1, t2) * width, lo), hi)
        n1 = normalize_attribute(v1, lo, hi)
        n2 = normalize_attribute(v2, lo, hi)
        assert n1 <= n2
        if v2 - v1 > width * 1e-9:
            assert n1 < n2


def _stream(*lines: str) -> io.BytesIO:
    return io.BytesIO(("\n".join(lines) + "\n").encode())


class TestLoadDataset:
    def test_label_and_id_mapping(self):
        records, summary = load_dataset(
            _stream("11,1,1,1,1,1,1,1,1,1,2", "22,10,10,10,10,10,10,10,10,10,4")
        )
        assert [r.true_label for r in records] == [Category.NORMAL, Category.ANOMALOUS]
        assert [r.antigen_id for r in records] == [0, 1]
        assert [r.source_sample_id for r in records] == [11, 22]
        assert records[0].attributes == (0.0,) * 9
        assert records[1].attributes == (1.0,) * 9
        assert summary.label_counts == {Category.NORMAL: 1, Category.ANOMALOUS: 1}

    def test_empty_stream(self):
        with pytest.raises(EmptyDatasetError):
            load_dataset(io.BytesIO(b""))

    def test_skip_record_counts(self):
        records, summary = load_dataset(
            _stream(
                "1,1,1,1,1,1,1,1,1,1,2",
                "2,1,1,1,1,1,?,1,1,1,2",
                "3,5,5,5,5,5,5,5,5,5,4",
            )
        )
        assert summary.rows_read == 3
        assert summary.rows_skipped == 1
        assert summary.records_produced == 2
        assert summary.rows_read == summary.rows_skipped + summary.records_produced
        assert [r.source_sample_id for r in records] == [1, 3]
        # ids stay contiguous after the skip
        assert [r.antigen_id for r in records] == [0, 1]

    @pytest.mark.parametrize("policy", ["skip_record", "impute_median", None])
    def test_policy_that_is_not_the_enum_rejected(self, policy):
        # A plain string once fell through to imputation, skipping no row.
        with pytest.raises(InvalidConfigError, match="missing_value_policy must be one of"):
            AttributePolicy(missing_value_policy=policy)

    def test_impute_median_lower_of_two(self):
        # Column 1 non-missing values are [1, 2, 4, 8]: median_low is 2.
        policy = AttributePolicy(missing_value_policy=MissingValuePolicy.IMPUTE_MEDIAN)
        records, summary = load_dataset(
            _stream(
                "1,1,1,1,1,1,1,1,1,1,2",
                "2,2,1,1,1,1,1,1,1,1,2",
                "3,4,1,1,1,1,1,1,1,1,2",
                "4,8,1,1,1,1,1,1,1,1,2",
                "5,?,1,1,1,1,1,1,1,1,4",
            ),
            policy,
        )
        assert summary.records_produced == summary.rows_read == 5
        assert summary.rows_skipped == 0
        imputed = records[4].attributes[0]
        assert imputed == normalize_attribute(2, 1, 10)

    def test_parse_error_carries_line_number(self):
        with pytest.raises(FieldCountError, match="line 2"):
            load_dataset(_stream("1,1,1,1,1,1,1,1,1,1,2", "nope"))

    def test_out_of_range_carries_line_number(self):
        with pytest.raises(OutOfRangeError, match="line 1"):
            load_dataset(_stream("1,11,1,1,1,1,1,1,1,1,2"))

    def test_blank_lines_ignored(self):
        records, summary = load_dataset(
            io.BytesIO(b"\n1,1,1,1,1,1,1,1,1,1,2\n\n\n2,2,2,2,2,2,2,2,2,2,4\n\n")
        )
        assert summary.rows_read == 2
        assert len(records) == 2

    def test_leading_byte_order_mark_is_dropped(self):
        payload = FIRST_UCI_ROW + "\n" + MISSING_UCI_ROW + "\n"
        plain, _ = load_dataset(io.BytesIO(payload.encode("utf-8")))
        for source in (
            io.BytesIO(payload.encode("utf-8-sig")),
            io.StringIO("\ufeff" + payload),
            ["\ufeff" + FIRST_UCI_ROW, MISSING_UCI_ROW],
        ):
            records, summary = load_dataset(source)
            assert records == plain
            assert summary.rows_read == 2

    def test_only_one_leading_byte_order_mark_is_dropped(self):
        with pytest.raises(NonNumericFieldError, match=r"line 1: sample id '\\ufeff1000025'"):
            load_dataset(io.BytesIO(("\ufeff\ufeff" + FIRST_UCI_ROW).encode("utf-8")))
        with pytest.raises(NonNumericFieldError, match=r"line 2: sample id '\\ufeff1000025'"):
            load_dataset(io.StringIO(MISSING_UCI_ROW + "\n\ufeff" + FIRST_UCI_ROW))

    def test_accepts_text_iterable(self):
        records, _ = load_dataset(["7,3,3,3,3,3,3,3,3,3,4"])
        assert records[0].source_sample_id == 7

    def test_pure_function_of_bytes_and_policy(self):
        payload = b"1,1,2,3,4,5,6,7,8,9,2\n2,9,8,7,6,5,4,3,2,1,4\n"
        first, _ = load_dataset(io.BytesIO(payload))
        second, _ = load_dataset(io.BytesIO(payload))
        assert first == second

    def test_bounds_override(self):
        policy = AttributePolicy(lo=0.0, hi=20.0)
        records, _ = load_dataset(_stream("1,0,5,10,20,0,0,0,0,0,2"), policy)
        assert records[0].attributes[:4] == (0.0, 0.25, 0.5, 1.0)


def _reference_load(lines, policy):
    """The loader written out plainly: parse every row, take each column's
    median_low of a list, then normalize each value, row by row."""
    parsed: list[tuple[int, RawRecord]] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            parsed.append((lineno, parse_record(line)))
        except DatasetError as exc:
            raise type(exc)(f"line {lineno}: {exc}") from exc
    if policy.missing_value_policy is MissingValuePolicy.SKIP_RECORD:
        kept = [(lineno, row.attributes, row) for lineno, row in parsed if None not in row.attributes]
    else:
        medians = []
        for col in range(9):
            present = [row.attributes[col] for _, row in parsed if row.attributes[col] is not None]
            if parsed and not present:
                raise DatasetError(
                    f"attribute column {col + 1} has no non-missing values to impute from"
                )
            medians.append(statistics.median_low(present) if present else None)
        kept = [
            (lineno, tuple(medians[i] if v is None else v for i, v in enumerate(row.attributes)), row)
            for lineno, row in parsed
        ]
    if not kept:
        raise EmptyDatasetError("no records produced")
    records = []
    labels = {Category.NORMAL: 0, Category.ANOMALOUS: 0}
    for antigen_id, (lineno, values, row) in enumerate(kept):
        try:
            attributes = tuple(normalize_attribute(v, policy.lo, policy.hi) for v in values)
        except DatasetError as exc:
            raise type(exc)(f"line {lineno}: {exc}") from exc
        label = Category.ANOMALOUS if row.class_code == 4 else Category.NORMAL
        labels[label] += 1
        records.append((antigen_id, row.sample_id, attributes, label))
    return records, (len(parsed), len(parsed) - len(kept), len(records), labels)


def _outcome(load, lines, policy):
    try:
        return load(lines, policy)
    except DatasetError as exc:
        return type(exc), str(exc)


def _loaded(lines, policy):
    records, summary = load_dataset(lines, policy)
    return (
        [(r.antigen_id, r.source_sample_id, r.attributes, r.true_label) for r in records],
        (summary.rows_read, summary.rows_skipped, summary.records_produced, summary.label_counts),
    )


# Spellings that int() reads, ones out of [1, 10] and ones it rejects; the
# weights keep whole files and every kind of failure common.
ATTRIBUTE_SPELLINGS = (
    [str(v) for v in range(1, 11)] * 2
    + [" 5", "05", "+3", "1_0", "\u0665", "0", "11", "-1"]
    + ["x", "", "3.0"]
)
SAMPLE_IDS = ["1000025", "7"] * 8 + ["-3", "\u0665", "1_0", "?", "x", ""]
CLASS_CODES = ["2", "4"] * 8 + ["3", " 4", "02", "x", "?"]
IMPUTE = MissingValuePolicy.IMPUTE_MEDIAN
SKIP = MissingValuePolicy.SKIP_RECORD


@st.composite
def wbc_like_lines(draw):
    """A few rows, each field drawn from a small per-file alphabet of spellings,
    with missing markers in one or two columns at a per-file rate."""
    def alphabet(spellings):
        return st.sampled_from(draw(st.lists(st.sampled_from(spellings), min_size=1, max_size=4)))

    sample_ids, attributes, class_codes = map(alphabet, (SAMPLE_IDS, ATTRIBUTE_SPELLINGS, CLASS_CODES))
    missing_columns = st.sampled_from(draw(st.lists(st.integers(1, 9), min_size=1, max_size=2)))
    missing_in_four = draw(st.sampled_from([0, 1, 2, 4]))
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row"] * 16 + ["fields", "blank"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "  "])))
            continue
        count = 9 if kind == "row" else draw(st.integers(0, 12).filter(lambda n: n != 9))
        fields = [draw(sample_ids), *(draw(attributes) for _ in range(count)), draw(class_codes)]
        if draw(st.integers(1, 4)) <= missing_in_four:
            column = draw(missing_columns)
            if column < len(fields) - 1:
                fields[column] = "?"
        lines.append(",".join(fields))
    return lines


policies = st.builds(
    lambda rule, bounds: AttributePolicy(rule, *bounds),
    st.sampled_from([SKIP, IMPUTE]),
    st.sampled_from([(1.0, 10.0), (0.0, 20.0), (2.0, 8.0), (-1.5, 11.25)]),
)


@settings(max_examples=400)
@given(lines=wbc_like_lines(), policy=policies)
# A bad class code after an out-of-range value: every parse error comes first.
@example(lines=["1,11,1,1,1,1,1,1,1,1,2", "2,1,1,1,1,1,1,1,1,1,3"], policy=AttributePolicy())
# An all-missing column has nothing to impute from.
@example(
    lines=["1,1,1,?,1,1,1,1,1,1,2", "2,2,2,?,2,2,2,2,2,2,4"],
    policy=AttributePolicy(IMPUTE),
)
# An even count takes the lower middle: column 1 holds 1, 2, 4, 8, so 2.
@example(
    lines=[
        "1,1,1,1,1,1,1,1,1,1,2",
        "2,8,1,1,1,1,1,1,1,1,2",
        "3,4,1,1,1,1,1,1,1,1,2",
        "4,2,1,1,1,1,1,1,1,1,2",
        "5,?,1,1,1,1,1,1,1,1,4",
    ],
    policy=AttributePolicy(IMPUTE),
)
def test_matches_reference_ingest(lines, policy):
    assert _outcome(_loaded, lines, policy) == _outcome(_reference_load, lines, policy)
