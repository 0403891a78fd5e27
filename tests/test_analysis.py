"""Histogram binning, confusion counts and metric guards."""

import math
import random
from bisect import bisect_right

import pytest
from hypothesis import example, given, strategies as st

from dca_lab.agents import Category
from dca_lab.analysis import (
    ClassificationResult,
    ConfusionCounts,
    Metrics,
    build_histogram,
    compute_metrics,
)


def result(aid, mcav, predicted, actual) -> ClassificationResult:
    return ClassificationResult(antigen_id=aid, mcav=mcav, predicted=predicted, actual=actual)


N, A = Category.NORMAL, Category.ANOMALOUS


class TestBuildHistogram:
    def test_binning_rule(self):
        hist = build_histogram([0.0, 0.05, 0.5, 1.0], 10)
        expected = [0] * 10
        expected[0] = 2
        expected[5] = 1
        expected[9] = 1
        assert list(hist.counts) == expected

    def test_empty_input(self):
        hist = build_histogram([], 10)
        assert sum(hist.counts) == 0

    def test_single_right_closed_bin(self):
        assert build_histogram([1.0], 1).counts == (1,)

    def test_edges_span_unit_interval(self):
        hist = build_histogram([0.5], 4)
        assert hist.edges == (0.0, 0.25, 0.5, 0.75, 1.0)
        assert all(a < b for a, b in zip(hist.edges, hist.edges[1:]))

    def test_value_out_of_range(self):
        with pytest.raises(ValueError, match=r"^MCAV 1.2 outside \[0, 1\]$"):
            build_histogram([1.2], 10)
        with pytest.raises(ValueError, match=r"^MCAV -0.1 outside \[0, 1\]$"):
            build_histogram([-0.1], 10)

    def test_bad_bin_count(self):
        with pytest.raises(ValueError):
            build_histogram([0.5], 0)

    @given(k=st.integers(1, 100), bins=st.integers(1, 200))
    @example(k=10, bins=90)
    def test_every_mcav_lands_between_its_bin_edges(self, k, bins):
        # An MCAV is j/k. Binning by int(v * bins) rounds some j/k across an
        # edge for 279 of these 20000 (k, bins) pairs: 7/10 * 90 gives
        # 62.99999999999999, yet edges[63] == 0.7.
        mcavs = [j / k for j in range(k + 1)]
        hist = build_histogram(mcavs, bins)
        lo, hi = hist.edges[:-1], hist.edges[1:]
        expected = [
            sum(lo[i] <= v < hi[i] or (i == bins - 1 and v == 1.0) for v in mcavs)
            for i in range(bins)
        ]
        assert list(hist.counts) == expected

    @given(st.lists(st.floats(0, 1), max_size=300), st.integers(1, 40))
    def test_conservation(self, mcavs, bins):
        hist = build_histogram(mcavs, bins)
        assert sum(hist.counts) == len(mcavs)
        assert len(hist.edges) == bins + 1
        assert hist.edges[0] == 0.0 and hist.edges[-1] == 1.0


class TestComputeMetrics:
    def test_mixed_example(self):
        results = (
            [result(i, 0.9, A, A) for i in range(3)]        # tp=3
            + [result(10 + i, 0.1, N, N) for i in range(5)]  # tn=5
            + [result(20, 0.8, A, N)]                        # fp=1
            + [result(30, 0.2, N, A)]                        # fn=1
        )
        confusion, metrics = compute_metrics(results)
        assert (confusion.tp, confusion.tn, confusion.fp, confusion.fn) == (3, 5, 1, 1)
        assert confusion.total == 10
        assert metrics.accuracy == 0.8
        assert metrics.true_positive_rate == 0.75
        assert metrics.false_positive_rate == 1 / 6

    def test_all_correct(self):
        results = [result(0, 0.9, A, A), result(1, 0.1, N, N)]
        _, metrics = compute_metrics(results)
        assert metrics.accuracy == 1.0

    def test_all_actual_normal_guards_tpr(self):
        results = [result(0, 0.1, N, N), result(1, 0.8, A, N)]
        confusion, metrics = compute_metrics(results)
        assert metrics.true_positive_rate is None
        assert metrics.mean_mcav_anomalous is None
        assert metrics.accuracy == 0.5
        assert confusion.total == 2

    def test_all_actual_anomalous_guards_fpr(self):
        results = [result(0, 0.9, A, A)]
        _, metrics = compute_metrics(results)
        assert metrics.false_positive_rate is None
        assert metrics.mean_mcav_normal is None

    def test_mean_mcavs(self):
        results = [result(0, 0.2, N, N), result(1, 0.4, N, N), result(2, 0.9, A, A)]
        _, metrics = compute_metrics(results)
        assert metrics.mean_mcav_normal == pytest.approx(0.3)
        assert metrics.mean_mcav_anomalous == 0.9

    def test_empty_results(self):
        with pytest.raises(ValueError, match="^no classification results to score$"):
            compute_metrics([])

    @given(st.lists(st.tuples(st.floats(0, 1), st.booleans(), st.booleans()),
                    min_size=1, max_size=100),
           st.integers(0, 2**32))
    def test_permutation_invariance(self, rows, seed):
        results = [
            result(i, mcav, A if pred else N, A if act else N)
            for i, (mcav, pred, act) in enumerate(rows)
        ]
        shuffled = list(results)
        random.Random(seed).shuffle(shuffled)
        assert compute_metrics(results) == compute_metrics(shuffled)

    @given(st.lists(st.tuples(st.floats(0, 1), st.booleans(), st.booleans()),
                    min_size=1, max_size=100))
    def test_accuracy_bounds_and_exactness(self, rows):
        results = [
            result(i, mcav, A if pred else N, A if act else N)
            for i, (mcav, pred, act) in enumerate(rows)
        ]
        confusion, metrics = compute_metrics(results)
        assert 0.0 <= metrics.accuracy <= 1.0
        assert confusion.total == len(results)
        all_correct = all(r.predicted is r.actual for r in results)
        assert (metrics.accuracy == 1.0) == all_correct


def _plain_metrics(results):
    """``compute_metrics`` written out per result, one list of MCAVs per class."""
    tp = tn = fp = fn = 0
    normal, anomalous = [], []
    for r in results:
        positive = r.predicted is A
        if r.actual is A:
            anomalous.append(r.mcav)
            tp, fn = tp + positive, fn + (not positive)
        else:
            normal.append(r.mcav)
            fp, tn = fp + positive, tn + (not positive)
    return ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn), Metrics(
        accuracy=(tp + tn) / len(results),
        true_positive_rate=tp / (tp + fn) if tp + fn else None,
        false_positive_rate=fp / (fp + tn) if fp + tn else None,
        mean_mcav_normal=math.fsum(normal) / len(normal) if normal else None,
        mean_mcav_anomalous=math.fsum(anomalous) / len(anomalous) if anomalous else None,
    )


def _plain_histogram(mcavs, bins):
    """``build_histogram`` written out per value: the first value outside [0, 1] raises."""
    edges = tuple(i / bins for i in range(bins + 1))
    counts = [0] * bins
    for v in mcavs:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"MCAV {v} outside [0, 1]")
        counts[min(bisect_right(edges, v) - 1, bins - 1)] += 1
    return edges, tuple(counts)


def _histogram(mcavs, bins):
    histogram = build_histogram(mcavs, bins)
    return histogram.edges, histogram.counts


def _outcome(fn, *args):
    """The repr of what ``fn`` returns or raises, so -0.0 and 0.0 differ and NaN equals NaN."""
    try:
        return repr(fn(*args))
    except ValueError as exc:
        return repr(exc)


# Run-like MCAVs j/k, so values repeat, mixed with signed zeros, NaN and values out of range.
mcav_values = st.one_of(
    st.integers(0, 7).map(lambda j: j / 7),
    st.sampled_from([0.0, -0.0, math.nan, 1.0, 1.5, -0.25]),
    st.floats(0, 1),
)


@given(st.lists(st.tuples(mcav_values, st.booleans(), st.booleans()), min_size=1, max_size=60), st.integers(1, 12))
@example(rows=[(0.0, False, False), (-0.0, True, False), (-0.0, False, False)], bins=3)
@example(rows=[(math.nan, True, True), (0.5, True, True), (math.nan, False, True)], bins=2)
def test_counting_distinct_values_matches_the_per_result_formulas(rows, bins):
    results = [result(i, mcav, A if pred else N, A if act else N) for i, (mcav, pred, act) in enumerate(rows)]
    assert _outcome(compute_metrics, results) == _outcome(_plain_metrics, results)
    mcavs = [r.mcav for r in results]
    assert _outcome(_histogram, iter(mcavs), bins) == _outcome(_plain_histogram, mcavs, bins)
