"""Signal derivation and weighted-sum processing."""

import math

import pytest
from hypothesis import given, strategies as st

from dca_lab.schema import InvalidConfigError
from dca_lab.signal_model import (
    DEFAULT_WEIGHT_MATRIX,
    SignalMapping,
    WeightMatrix,
    default_signal_mapping,
    derive_input_signals,
    process_signals,
)

signal_floats = st.floats(0.0, 100.0)
attr_floats = st.floats(0.0, 1.0)


def three_means_reference(attributes, mapping):
    """``derive_input_signals`` with each signal's mean taken on its own."""

    def mean(sources):
        total = 0.0
        for idx in sources:
            total += attributes[idx]
        return total / len(sources)

    pamp = 100.0 * mean(mapping.pamp_sources)
    danger = 100.0 * mean(mapping.danger_sources)
    safe_mean = mean(mapping.safe_sources)
    safe = 100.0 * (1.0 - safe_mean) if mapping.safe_is_complement else 100.0 * safe_mean
    return pamp, danger, safe


#: Which of (pamp, danger, safe) share a source list: each pattern names
#: the list every signal takes, by letter.
COINCIDENCE_PATTERNS = {
    "all_equal": "aaa",
    "pamp_equals_danger": "aab",
    "pamp_equals_safe": "aba",
    "danger_equals_safe": "abb",
    "all_distinct": "abc",
}


@st.composite
def coinciding_mappings(draw, pattern):
    """Attributes, some outside [0, 1], and a mapping whose lists coincide as ``pattern`` says.

    The lists are equal by value but built separately, as a JSON config
    builds them; indices may lie past the last attribute.
    """
    attributes = draw(st.lists(st.floats(-2.0, 3.0), min_size=1, max_size=9))
    indices = st.lists(st.integers(0, len(attributes)), min_size=1, max_size=12)
    lists = {}
    for letter in sorted(set(pattern)):
        lists[letter] = draw(indices.filter(lambda sources: sources not in lists.values()))
    sources = [tuple(lists[letter]) for letter in pattern]
    return attributes, SignalMapping(*sources, safe_is_complement=draw(st.booleans()))


def outcome(derive, attributes, mapping):
    """The signals as exact float hex, or ``IndexError`` for an index past the last attribute."""
    try:
        return [v.hex() for v in derive(attributes, mapping)]
    except IndexError:
        return "IndexError"


class TestDeriveInputSignals:
    def test_benign_extreme(self):
        assert derive_input_signals([0.0] * 9, default_signal_mapping()) == (0.0, 0.0, 100.0)

    def test_malignant_extreme(self):
        assert derive_input_signals([1.0] * 9, default_signal_mapping()) == (100.0, 100.0, 0.0)

    def test_split_sources_with_complement(self):
        mapping = SignalMapping(pamp_sources=(0,), danger_sources=(1,), safe_sources=(0,))
        assert derive_input_signals([0.2, 0.8], mapping) == (20.0, 80.0, 80.0)

    def test_complement_off(self):
        mapping = SignalMapping((0,), (0,), (0,), safe_is_complement=False)
        assert derive_input_signals([0.25], mapping) == (25.0, 25.0, 25.0)

    def test_empty_source_list_rejected(self):
        with pytest.raises(InvalidConfigError, match="pamp_sources must list at least one"):
            SignalMapping((), (0,), (0,))

    def test_negative_index_rejected(self):
        with pytest.raises(InvalidConfigError, match="danger_sources contains negative index -1"):
            SignalMapping((0,), (-1,), (0,))

    @pytest.mark.parametrize("bad", [1.5, 1.0, True, False, "0", None])
    def test_non_integer_index_rejected(self, bad):
        for sources in [((bad,), (0,), (0,)), ((0,), (bad,), (0,)), ((0,), (0,), (0, bad))]:
            with pytest.raises(InvalidConfigError, match="must be an array of values, each an integer"):
                SignalMapping(*sources)

    @pytest.mark.parametrize("pattern", COINCIDENCE_PATTERNS.values(), ids=COINCIDENCE_PATTERNS)
    def test_each_signal_takes_its_own_lists_mean(self, pattern):
        attrs = [0.5, 0.25, 0.75, 1.0]
        lists = {"a": (0, 1), "b": (2, 3), "c": (1, 3, 3)}
        mapping = SignalMapping(*(lists[letter] for letter in pattern), safe_is_complement=False)
        expected = {"a": 37.5, "b": 87.5, "c": 75.0}
        assert derive_input_signals(attrs, mapping) == tuple(expected[letter] for letter in pattern)

    @pytest.mark.parametrize("pattern", COINCIDENCE_PATTERNS.values(), ids=COINCIDENCE_PATTERNS)
    @given(data=st.data())
    def test_matches_three_independent_means_bit_for_bit(self, pattern, data):
        attributes, mapping = data.draw(coinciding_mappings(pattern))
        assert outcome(derive_input_signals, attributes, mapping) == outcome(three_means_reference, attributes, mapping)

    @given(st.lists(attr_floats, min_size=1, max_size=9), st.booleans())
    def test_output_in_range(self, attrs, complement):
        mapping = SignalMapping(
            tuple(range(len(attrs))),
            tuple(range(len(attrs))),
            tuple(range(len(attrs))),
            safe_is_complement=complement,
        )
        for value in derive_input_signals(attrs, mapping):
            assert 0.0 <= value <= 100.0


class TestWeightMatrix:
    def test_negative_csm_column_rejected(self):
        with pytest.raises(ValueError):
            WeightMatrix(pamp=(-0.1, 0, 0), danger=(1, 0, 1), safe=(2, 3, -3))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            WeightMatrix(pamp=(2, 0, math.nan), danger=(1, 0, 1), safe=(2, 3, -3))

    def test_wrong_row_length_rejected(self):
        with pytest.raises(ValueError):
            WeightMatrix(pamp=(2, 0), danger=(1, 0, 1), safe=(2, 3, -3))

    def test_negative_semi_and_mat_allowed(self):
        WeightMatrix(pamp=(0, -1, -1), danger=(0, -2, 3), safe=(0, 3, -3))

    @pytest.mark.parametrize("weight", ["5", True, None, [1.0]])
    def test_weight_that_is_not_a_number_rejected(self, weight):
        with pytest.raises(InvalidConfigError, match="pamp must be an array of 3 values, each a number"):
            WeightMatrix(pamp=(weight, 0, 2), danger=(1, 0, 1), safe=(2, 3, -3))


class TestProcessSignals:
    def test_zero_input_zero_output(self):
        assert process_signals((0, 0, 0), DEFAULT_WEIGHT_MATRIX) == (0.0, 0.0, 0.0)

    def test_unit_pamp(self):
        assert process_signals((1, 0, 0), DEFAULT_WEIGHT_MATRIX) == (2.0, 0.0, 2.0)

    def test_unit_safe(self):
        assert process_signals((0, 0, 1), DEFAULT_WEIGHT_MATRIX) == (2.0, 3.0, -3.0)

    @given(
        x=st.tuples(signal_floats, signal_floats, signal_floats),
        y=st.tuples(signal_floats, signal_floats, signal_floats),
        alpha=st.floats(0.0, 10.0),
    )
    def test_linearity(self, x, y, alpha):
        w = DEFAULT_WEIGHT_MATRIX
        scaled = process_signals(tuple(alpha * v for v in x), w)
        direct = process_signals(x, w)
        for got, expected in zip(scaled, (alpha * v for v in direct)):
            assert math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-9)

        summed = process_signals(tuple(a + b for a, b in zip(x, y)), w)
        parts = [a + b for a, b in zip(process_signals(x, w), process_signals(y, w))]
        for got, expected in zip(summed, parts):
            assert math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-9)

    @given(st.tuples(signal_floats, signal_floats, signal_floats))
    def test_default_matrix_keeps_csm_nonnegative(self, inputs):
        csm, semi, mat = process_signals(inputs, DEFAULT_WEIGHT_MATRIX)
        assert csm >= 0.0

