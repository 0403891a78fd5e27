"""Parsing, normalization and loading behavior of the dataset reader."""

import io
import re
import statistics

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import write_wbc_like_file
from dca_lab import data_ingest
from dca_lab.agents import Category
from dca_lab.data_ingest import (
    AttributePolicy,
    DatasetError,
    MissingValuePolicy,
    load_dataset,
    normalize_attribute,
)
from dca_lab.schema import InvalidConfigError

# First row of the UCI distribution, and its first row carrying a missing marker.
FIRST_UCI_ROW = "1000025,5,1,1,1,2,1,3,1,1,2"
MISSING_UCI_ROW = "1057013,8,4,5,1,2,?,7,3,1,4"


def _stream(*lines: str) -> io.BytesIO:
    return io.BytesIO(("\n".join(lines) + "\n").encode())


def _one_row(line):
    """The single record ``load_dataset`` reads from a one-line file."""
    (record,), _ = load_dataset(_stream(line))
    return record


def _normalized(*values):
    return tuple(normalize_attribute(v, 1, 10) for v in values)


class TestParseRecord:
    """How ``load_dataset`` reads one row, and the diagnostic it raises for a bad one."""

    def test_first_reference_row(self):
        rec = _one_row(FIRST_UCI_ROW)
        assert rec.source_sample_id == 1000025
        assert rec.attributes == _normalized(5, 1, 1, 1, 2, 1, 3, 1, 1)
        assert rec.true_label is Category.NORMAL

    def test_missing_marker_preserved(self):
        # The marker reads as a missing value: skip_record drops the row, impute_median fills it.
        lines = FIRST_UCI_ROW, MISSING_UCI_ROW
        records, summary = load_dataset(_stream(*lines))
        assert (summary.rows_read, summary.rows_skipped) == (2, 1)
        assert [r.source_sample_id for r in records] == [1000025]
        records, _ = load_dataset(_stream(*lines), AttributePolicy(MissingValuePolicy.IMPUTE_MEDIAN))
        assert records[1].attributes == _normalized(8, 4, 5, 1, 2, 1, 7, 3, 1)
        assert records[1].true_label is Category.ANOMALOUS

    def test_field_count_error(self):
        with pytest.raises(DatasetError, match="^line 1: expected 11 comma-separated fields, got 3$"):
            load_dataset(_stream("1,2,3"))

    def test_non_numeric_attribute(self):
        with pytest.raises(DatasetError, match="^line 1: attribute 3 'x' is not ASCII digits$"):
            load_dataset(_stream("1,2,3,x,5,6,7,8,9,10,2"))

    def test_non_numeric_sample_id(self):
        with pytest.raises(DatasetError, match=r"^line 1: sample id '\?' is not ASCII digits$"):
            load_dataset(_stream("?,2,3,4,5,6,7,8,9,10,2"))

    def test_class_code_error(self):
        with pytest.raises(DatasetError, match="^line 1: class code must be 2 or 4, got 3$"):
            load_dataset(_stream("1,2,3,4,5,6,7,8,9,10,3"))


class TestNormalizeAttribute:
    def test_lower_bound(self):
        assert normalize_attribute(1, 1, 10) == 0.0

    def test_upper_bound(self):
        assert normalize_attribute(10, 1, 10) == 1.0

    def test_midpoint(self):
        assert normalize_attribute(5.5, 1, 10) == 0.5

    def test_out_of_range(self):
        with pytest.raises(DatasetError, match=r"^value 11 outside declared bounds \[1, 10\]$"):
            normalize_attribute(11, 1, 10)
        with pytest.raises(DatasetError, match=r"^value 0 outside declared bounds \[1, 10\]$"):
            normalize_attribute(0, 1, 10)

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
        with pytest.raises(DatasetError, match="^no records produced$"):
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

    @pytest.mark.parametrize("policy", ["skip", "IMPUTE_MEDIAN", None])
    def test_policy_that_is_not_the_enum_rejected(self, policy):
        # A string other than the two policies once fell through to imputation, skipping no row.
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

    def test_impute_median_middle_of_three(self):
        # Column 1 non-missing values are [1, 2, 3]: median_low is 2.
        policy = AttributePolicy(missing_value_policy=MissingValuePolicy.IMPUTE_MEDIAN)
        records, _ = load_dataset(
            _stream(
                "1,1,1,1,1,1,1,1,1,1,2",
                "2,2,1,1,1,1,1,1,1,1,2",
                "3,3,1,1,1,1,1,1,1,1,2",
                "4,?,1,1,1,1,1,1,1,1,4",
            ),
            policy,
        )
        assert records[3].attributes[0] == normalize_attribute(2, 1, 10)

    def test_lowest_column_with_nothing_to_impute_from_is_named(self):
        # Columns 6 and 9 hold only '?': the set {0, 5, 8} of their indices iterates 8 before 5.
        rows = "1,?,1,1,1,1,?,1,1,?,2", "2,1,1,1,1,1,?,1,1,?,4", "3,2,1,1,1,1,?,1,1,?,2"
        with pytest.raises(DatasetError, match="^attribute column 6 has no non-missing values to impute from$"):
            load_dataset(_stream(*rows), AttributePolicy(MissingValuePolicy.IMPUTE_MEDIAN))

    def test_parse_error_carries_line_number(self):
        with pytest.raises(DatasetError, match="^line 2: expected 11 comma-separated fields, got 1$"):
            load_dataset(_stream("1,1,1,1,1,1,1,1,1,1,2", "nope"))

    def test_out_of_range_carries_line_number(self):
        with pytest.raises(DatasetError, match=r"^line 1: value 11 outside declared bounds \[1.0, 10.0\]$"):
            load_dataset(_stream("1,11,1,1,1,1,1,1,1,1,2"))
        # Blank lines, \r\n line ends and a row with a '?' all count as lines before the bad row.
        payload = b"\r\n1,1,1,1,1,1,1,1,1,1,2\r\n\n2,?,1,1,1,1,1,1,1,1,2\r\n\r\n3,1,1,11,1,1,1,1,1,1,4\r\n"
        for rule in (MissingValuePolicy.SKIP_RECORD, MissingValuePolicy.IMPUTE_MEDIAN):
            with pytest.raises(DatasetError, match=r"^line 6: value 11 outside declared bounds \[1.0, 10.0\]$"):
                load_dataset(io.BytesIO(payload), AttributePolicy(rule))

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
            io.BufferedReader(io.BytesIO(("\ufeff" + payload).encode())),  # as open(path, "rb") gives
        ):
            records, summary = load_dataset(source)
            assert records == plain
            assert summary.rows_read == 2

    def test_only_one_leading_byte_order_mark_is_dropped(self):
        with pytest.raises(DatasetError, match=r"line 1: sample id '\\ufeff1000025'"):
            load_dataset(io.BytesIO(("\ufeff\ufeff" + FIRST_UCI_ROW).encode("utf-8")))
        with pytest.raises(DatasetError, match=r"line 2: sample id '\\ufeff1000025'"):
            load_dataset(io.BytesIO((MISSING_UCI_ROW + "\n\ufeff" + FIRST_UCI_ROW).encode()))

    def test_text_stream_is_refused(self):
        # Universal newlines would split these rows at the lone \r; the grammar does not.
        payload = f"{FIRST_UCI_ROW}\r{MISSING_UCI_ROW}\r".encode()
        for source in (io.TextIOWrapper(io.BytesIO(payload)), io.StringIO(payload.decode())):
            with pytest.raises(TypeError, match="binary mode"):
                load_dataset(source)
        with pytest.raises(DatasetError, match="^line 1: expected 11 comma-separated fields, got 21$"):
            load_dataset(io.BytesIO(payload))

    def test_pure_function_of_bytes_and_policy(self):
        payload = b"1,1,2,3,4,5,6,7,8,9,2\n2,9,8,7,6,5,4,3,2,1,4\n"
        first, _ = load_dataset(io.BytesIO(payload))
        second, _ = load_dataset(io.BytesIO(payload))
        assert first == second

    def test_span_of_one_is_accepted(self):
        policy = AttributePolicy(lo=1.0, hi=2.0)
        assert (policy.lo, policy.hi) == (1.0, 2.0)

    def test_bounds_override(self):
        policy = AttributePolicy(lo=0.0, hi=20.0)
        records, _ = load_dataset(_stream("1,0,5,10,20,0,0,0,0,0,2"), policy)
        assert records[0].attributes[:4] == (0.0, 0.25, 0.5, 1.0)


class TestGrammar:
    """A field is ``?`` or ASCII digits; text splits on ``\\n`` only, each line losing one ``\\r``."""

    @pytest.mark.parametrize("spelling", [" 5", "5 ", "+3", "1_0", "-1", "\u0661", "\u0665", "\uff15", "\u00b2",
                                          "5\x0c", "5\x00", "5\r3", ""])
    @pytest.mark.parametrize("column, what", [(0, "sample id"), (4, "attribute 4"), (10, "class code")])
    def test_spelling_that_int_reads_or_not_is_rejected(self, spelling, column, what):
        fields = FIRST_UCI_ROW.split(",")
        fields[column] = spelling
        with pytest.raises(DatasetError, match=f"^line 1: {what} {re.escape(repr(spelling))} is not ASCII digits$"):
            load_dataset(io.BytesIO(",".join(fields).encode() + b"\n"))

    def test_leading_zeros_are_digits(self):
        assert _one_row("01000025,05,01,1,1,2,1,3,1,1,02") == _one_row(FIRST_UCI_ROW)
        assert _one_row("7,1,1,1,1,1,1,1,1,1,004").true_label is Category.ANOMALOUS

    def test_more_digits_than_int_converts_is_rejected(self):
        for line in ("9" * 5000 + ",1,1,1,1,1,1,1,1,1,2", "1," + "9" * 5000 + ",1,1,1,1,1,1,1,1,2"):
            with pytest.raises(DatasetError, match="has 5000 digits, more than int"):
                load_dataset(_stream(line))

    def test_crlf_line_ends_load_the_same_records(self):
        lf = load_dataset(io.BytesIO(f"{FIRST_UCI_ROW}\n\n{MISSING_UCI_ROW}\n".encode()))
        crlf = load_dataset(io.BytesIO(f"{FIRST_UCI_ROW}\r\n\r\n{MISSING_UCI_ROW}\r\n".encode()))
        assert crlf == lf

    def test_only_one_trailing_carriage_return_is_dropped(self):
        with pytest.raises(DatasetError, match=r"^line 1: class code '2\\r' is not ASCII digits$"):
            load_dataset(io.BytesIO(FIRST_UCI_ROW.encode() + b"\r\r\n"))

    @pytest.mark.parametrize("separator", ["\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
    def test_no_other_line_break_splits_rows(self, separator):
        # Two rows joined by anything but \n are one line of 21 fields.
        payload = f"{FIRST_UCI_ROW}{separator}{FIRST_UCI_ROW}\n".encode()
        with pytest.raises(DatasetError, match="^line 1: expected 11 comma-separated fields, got 21$"):
            load_dataset(io.BytesIO(payload))

    def test_whitespace_only_line_is_a_bad_row(self):
        with pytest.raises(DatasetError, match="^line 2: expected 11 comma-separated fields, got 1$"):
            load_dataset(io.BytesIO(f"{FIRST_UCI_ROW}\n \t\n{FIRST_UCI_ROW}\n".encode()))

    def test_cr_only_file_names_the_same_line_on_both_error_paths(self):
        # Rows ended by a lone \r are one line, for a bad byte and a bad token alike.
        rows = [FIRST_UCI_ROW, MISSING_UCI_ROW]
        bad_byte = "\r".join(rows).encode() + b"\r1000026,\xff,1,1,1,1,1,1,1,1,2\r"
        bad_token = "\r".join(rows + ["1000026,x,1,1,1,1,1,1,1,1,2", ""]).encode()
        with pytest.raises(DatasetError, match="^line 1: not UTF-8") as byte_error:
            load_dataset(io.BytesIO(bad_byte))
        with pytest.raises(DatasetError, match="^line 1: ") as token_error:
            load_dataset(io.BytesIO(bad_token))
        assert str(byte_error.value).split(":")[0] == str(token_error.value).split(":")[0]


#: The grammar's digits, written out apart from the loader's own check.
DIGITS = set("0123456789")


def _reference_value(text, what):
    if not text or not set(text) <= DIGITS:
        raise DatasetError(f"{what} {text!r} is not ASCII digits")
    return int(text)


def _reference_load(text, policy):
    """The loader written out plainly: split on \\n, parse every row, take
    each column's median_low of a list, then normalize each value, row by row."""
    parsed = []
    for lineno, line in enumerate(text.removeprefix("\ufeff").split("\n"), start=1):
        if line.endswith("\r"):
            line = line[:-1]
        if not line:
            continue
        fields = line.split(",")
        try:
            if len(fields) != 11:
                raise DatasetError(f"expected 11 comma-separated fields, got {len(fields)}")
            sample_id = _reference_value(fields[0], "sample id")
            attributes = tuple(
                None if t == "?" else _reference_value(t, f"attribute {i}")
                for i, t in enumerate(fields[1:10], start=1)
            )
            class_code = _reference_value(fields[10], "class code")
            if class_code not in (2, 4):
                raise DatasetError(f"class code must be 2 or 4, got {class_code}")
        except DatasetError as exc:
            raise DatasetError(f"line {lineno}: {exc}") from exc
        parsed.append((lineno, sample_id, attributes, class_code))
    if policy.missing_value_policy == MissingValuePolicy.SKIP_RECORD:
        kept = [row for row in parsed if None not in row[2]]
    else:
        medians = []
        for col in range(9):
            present = [attributes[col] for _, _, attributes, _ in parsed if attributes[col] is not None]
            if parsed and not present:
                raise DatasetError(
                    f"attribute column {col + 1} has no non-missing values to impute from"
                )
            medians.append(statistics.median_low(present) if present else None)
        kept = [
            (lineno, sample_id, tuple(medians[i] if v is None else v for i, v in enumerate(attributes)), code)
            for lineno, sample_id, attributes, code in parsed
        ]
    if not kept:
        raise DatasetError("no records produced")
    records = []
    labels = {Category.NORMAL: 0, Category.ANOMALOUS: 0}
    for antigen_id, (lineno, sample_id, values, class_code) in enumerate(kept):
        try:
            attributes = tuple(normalize_attribute(v, policy.lo, policy.hi) for v in values)
        except DatasetError as exc:
            raise DatasetError(f"line {lineno}: {exc}") from exc
        label = Category.ANOMALOUS if class_code == 4 else Category.NORMAL
        labels[label] += 1
        records.append((antigen_id, sample_id, attributes, label))
    return records, (len(parsed), len(parsed) - len(kept), len(records), labels)


def _outcome(load, source, policy):
    try:
        return load(source, policy)
    except DatasetError as exc:
        return type(exc), str(exc)


def _loaded(source, policy):
    records, summary = load_dataset(source, policy)
    return (
        [(r.antigen_id, r.source_sample_id, r.attributes, r.true_label) for r in records],
        (summary.rows_read, summary.rows_skipped, summary.records_produced, summary.label_counts),
    )


# Spellings of ASCII digits, ones out of [1, 10] and ones the grammar
# rejects, though int() reads the first five of them; the weights keep
# whole files and every kind of failure common.
ATTRIBUTE_SPELLINGS = (
    [str(v) for v in range(1, 11)] * 2
    + ["05", "0", "11", "010"]
    + [" 5", "+3", "1_0", "\u0665", "-1", "x", "", "3.0", "\x0c5", "5\r3"]
)
SAMPLE_IDS = ["1000025", "7", "0007"] * 6 + ["-3", "\u0665", "1_0", "?", "x", "", "1\r"]
CLASS_CODES = ["2", "4"] * 8 + ["02", "3", " 4", "x", "?", "4\r"]
IMPUTE = MissingValuePolicy.IMPUTE_MEDIAN
SKIP = MissingValuePolicy.SKIP_RECORD


@st.composite
def wbc_like_text(draw):
    """A few rows, each field drawn from a small per-file alphabet of spellings,
    with missing markers in one or two columns at a per-file rate, joined by
    \\n or \\r\\n line ends, sometimes after a byte order mark."""
    def alphabet(spellings):
        return st.sampled_from(draw(st.lists(st.sampled_from(spellings), min_size=1, max_size=4)))

    sample_ids, attributes, class_codes = map(alphabet, (SAMPLE_IDS, ATTRIBUTE_SPELLINGS, CLASS_CODES))
    missing_columns = st.sampled_from(draw(st.lists(st.integers(1, 9), min_size=1, max_size=2)))
    missing_in_four = draw(st.sampled_from([0, 1, 2, 4]))
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row"] * 16 + ["fields", "blank"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\r", "\x0c"])))
            continue
        count = 9 if kind == "row" else draw(st.integers(0, 12).filter(lambda n: n != 9))
        fields = [draw(sample_ids), *(draw(attributes) for _ in range(count)), draw(class_codes)]
        if draw(st.integers(1, 4)) <= missing_in_four:
            column = draw(missing_columns)
            if column < len(fields) - 1:
                fields[column] = "?"
        lines.append(",".join(fields))
    line_end = draw(st.sampled_from(["\n", "\r\n"]))
    return draw(st.sampled_from(["", "\ufeff"])) + "".join(line + line_end for line in lines)


policies = st.builds(
    lambda rule, bounds: AttributePolicy(rule, *bounds),
    st.sampled_from([SKIP, IMPUTE]),
    st.sampled_from([(1.0, 10.0), (0.0, 20.0), (2.0, 8.0), (-1.5, 11.25)]),
)


@settings(max_examples=400)
@given(text=wbc_like_text(), policy=policies)
# A bad class code after an out-of-range value: every parse error comes first.
@example(text="1,11,1,1,1,1,1,1,1,1,2\n2,1,1,1,1,1,1,1,1,1,3\n", policy=AttributePolicy())
# An all-missing column has nothing to impute from.
@example(text="1,1,1,?,1,1,1,1,1,1,2\r\n2,2,2,?,2,2,2,2,2,2,4\r\n", policy=AttributePolicy(IMPUTE))
# An even count takes the lower middle: column 1 holds 1, 2, 4, 8, so 2.
@example(
    text="1,1,1,1,1,1,1,1,1,1,2\n2,8,1,1,1,1,1,1,1,1,2\n3,4,1,1,1,1,1,1,1,1,2\n"
    "4,2,1,1,1,1,1,1,1,1,2\n5,?,1,1,1,1,1,1,1,1,4\n",
    policy=AttributePolicy(IMPUTE),
)
def test_matches_reference_ingest(text, policy):
    expected = _outcome(_reference_load, text, policy)
    assert _outcome(_loaded, io.BytesIO(text.encode()), policy) == expected


@settings(max_examples=400)
@given(text=wbc_like_text(), policy=policies)
@example(text="1,1,1,1,1,1,1,1,1,2\n2,1,1,1,1,1,1,1,1,1,1,4\n", policy=AttributePolicy())
@example(text="1,1,1,1,1,1,1,1,1,1,3\n", policy=AttributePolicy())
@example(text="1,11,1,?,1,1,1,1,1,1,2\n2,1,1,1,1,1,1,1,1,1,4\n", policy=AttributePolicy())
def test_row_walk_names_exactly_the_parse_errors_the_column_reader_finds(text, policy):
    # Where the row walk finds a parse error, load_dataset raises it; where it
    # finds none, load_dataset never calls it (its AssertionError would escape)
    # and raises no parse error of its own.
    lines = data_ingest._lines(io.BytesIO(text.encode()))
    try:
        data_ingest._raise_parse_error(lines)
    except AssertionError:
        walk_error = None
    except DatasetError as exc:
        walk_error = str(exc)
    outcome = _outcome(_loaded, io.BytesIO(text.encode()), policy)
    if walk_error is not None:
        assert outcome == (DatasetError, walk_error)
    elif outcome[0] is DatasetError:
        assert "outside declared bounds" in outcome[1] or not outcome[1].startswith("line ")


class TestColumnReader:
    """Every well-formed spelling is read by columns; the row-by-row walk only names parse errors."""

    @pytest.fixture
    def no_fault_finder(self, monkeypatch):
        def fail(lines):
            raise AssertionError("a well-formed file reached the parse-error walk")

        monkeypatch.setattr(data_ingest, "_raise_parse_error", fail)

    @pytest.mark.parametrize("rule", [SKIP, IMPUTE], ids=["skip_record", "impute_median"])
    def test_wbc_like_file_is_read_by_columns(self, no_fault_finder, tmp_path, rule):
        path = tmp_path / "wbc.data"
        write_wbc_like_file(path)
        with open(path, "rb") as handle:
            records, summary = load_dataset(handle, AttributePolicy(rule))
        assert summary.rows_read == 699
        assert len(records) == (683 if rule is SKIP else 699)

    @pytest.mark.parametrize("rule", [SKIP, IMPUTE], ids=["skip_record", "impute_median"])
    def test_every_accepted_spelling_is_read_by_columns(self, no_fault_finder, rule):
        # A BOM, \r\n and bare \n line ends, blank lines, leading zeros, and an
        # out-of-range value in a row that skip_record drops.
        out_of_range = "" if rule is IMPUTE else "5,11,1,1,1,1,?,1,1,1,4\r\n"
        payload = ("\ufeff\r\n" + FIRST_UCI_ROW + "\r\n\n" + "01000025,05,01,1,1,2,1,3,1,1,02\n"
                   + out_of_range + MISSING_UCI_ROW + "\r\n\r\n")
        records, summary = load_dataset(io.BytesIO(payload.encode()), AttributePolicy(rule))
        assert summary.rows_read == (4 if out_of_range else 3)
        assert records[0] == records[1]._replace(antigen_id=0)
        assert [r.antigen_id for r in records] == list(range(len(records)))

    def test_fields_spread_unevenly_over_rows_are_found_per_line(self):
        # 10 fields then 12: 22 in all, as two good rows would have.
        with pytest.raises(DatasetError, match="^line 1: expected 11 comma-separated fields, got 10$"):
            load_dataset(_stream("1,1,1,1,1,1,1,1,1,2", "2,1,1,1,1,1,1,1,1,1,1,4"))
