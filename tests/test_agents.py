"""Agents: sampling, picks, migration, contexts, MCAV, classification."""

import random
from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

from dca_lab.agents import (
    AntigenAgent,
    Category,
    DCAgent,
    antigen_handle_context,
    classify_antigen,
    compute_mcav,
    dc_decide_context,
    dc_handle_picked,
    dc_should_migrate,
    sample_dcs,
)
from dca_lab.signal_model import (
    DEFAULT_WEIGHT_MATRIX,
    CumulativeSignals,
    default_signal_mapping,
    derive_input_signals,
    process_signals,
)

cum_floats = st.floats(-1e6, 1e6, allow_nan=False)


def fresh_dc(threshold=1000.0, dc_id=0) -> DCAgent:
    return DCAgent(dc_id=dc_id, migration_threshold=threshold)


def outputs_of(attributes):
    """The (csm, semi, mat) triple the engine hands to each picked DC."""
    return process_signals(
        derive_input_signals(attributes, default_signal_mapping()), DEFAULT_WEIGHT_MATRIX
    )


def dense_sample(n, k, rng):
    """Reference: the partial Fisher-Yates shuffle over the full list of positions."""
    pool = list(range(n))
    for i in range(k):
        j = i + rng.randrange(len(pool) - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


def fresh_antigen(k=4) -> AntigenAgent:
    return AntigenAgent(true_label=Category.NORMAL, expected_contexts=k)


class TestOwnedDraws:
    """The threshold draw, written out, against ``uniform`` on this interpreter.

    The pick draw is checked against ``randrange`` in ``TestSampleDcs``.
    """

    @given(st.floats(5e-324, 1e150), st.floats(1.0, 1e8), st.integers(0, 2**64 - 1))
    def test_threshold_draw_matches_uniform(self, t_min, scale, seed):
        t_max = t_min * scale
        ours, theirs = random.Random(seed), random.Random(seed)
        drawn = [t_min + (t_max - t_min) * ours.random() for _ in range(5)]
        assert drawn == [theirs.uniform(t_min, t_max) for _ in range(5)]
        assert ours.getstate() == theirs.getstate()


class TestSampleDcs:
    def test_zero_sample(self):
        assert sample_dcs(3, 0, random.Random(0)) == []

    def test_exhaustive_sample(self):
        picked = sample_dcs(4, 4, random.Random(0))
        assert sorted(picked) == [0, 1, 2, 3]

    def test_sample_too_large(self):
        with pytest.raises(ValueError, match="^cannot pick 6 distinct DCs from a population of 5$"):
            sample_dcs(5, 6, random.Random(0))

    def test_negative_sample(self):
        with pytest.raises(ValueError, match="^sample size must be nonnegative, got -1$"):
            sample_dcs(5, -1, random.Random(0))

    def test_deterministic_given_state(self):
        first = sample_dcs(100, 10, random.Random(42))
        second = sample_dcs(100, 10, random.Random(42))
        assert first == second

    @given(st.integers(0, 30), st.integers(0, 2**32))
    def test_distinct_members_of_population(self, k, seed):
        picked = sample_dcs(30, k, random.Random(seed))
        assert len(picked) == k
        assert len(set(picked)) == k
        assert set(picked) <= set(range(30))

    @given(st.integers(1, 2**70) | st.integers(0, 70).map(lambda e: 2**e),
           st.integers(0, 2**64 - 1), st.integers(1, 30))
    @example(n=1, seed=0, draws=3)
    @example(n=2**31 + 5, seed=1, draws=3)
    def test_single_pick_matches_randrange(self, n, seed, draws):
        # The dense-shuffle property below reaches only n <= 2000; one pick
        # from a population of n is one draw below n, for any n.
        ours, theirs = random.Random(seed), random.Random(seed)
        assert [sample_dcs(n, 1, ours) for _ in range(draws)] == [[theirs.randrange(n)] for _ in range(draws)]
        assert ours.getstate() == theirs.getstate()

    @given(st.integers(1, 2000).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
           st.integers(0, 2**64 - 1))
    def test_matches_dense_shuffle_and_rng_state(self, n_and_k, seed):
        n, k = n_and_k
        sparse_rng, dense_rng = random.Random(seed), random.Random(seed)
        assert sample_dcs(n, k, sparse_rng) == dense_sample(n, k, dense_rng)
        assert sparse_rng.getstate() == dense_rng.getstate()

    def test_uniformity_smoke(self):
        rng = random.Random(1234)
        counts = Counter(sample_dcs(10, 1, rng)[0] for _ in range(10_000))
        for dc_id in range(10):
            assert 500 <= counts[dc_id] <= 1500, counts


class TestDcHandlePicked:
    def test_all_max_attributes(self):
        dc = fresh_dc()
        dc_handle_picked(dc, 7, outputs_of((1.0,) * 9))
        assert dc.sampled == [7]
        assert (dc.cum.cum_csm, dc.cum.cum_semi, dc.cum.cum_mat) == (300.0, 0.0, 300.0)

    def test_all_min_attributes(self):
        dc = fresh_dc()
        dc_handle_picked(dc, 3, outputs_of((0.0,) * 9))
        assert (dc.cum.cum_csm, dc.cum.cum_semi, dc.cum.cum_mat) == (200.0, 300.0, -300.0)

    @given(st.lists(st.floats(0, 1), min_size=9, max_size=9), st.integers(0, 10))
    def test_sampled_grows_by_one_and_cum_delta_matches(self, attrs, prior_picks):
        dc = fresh_dc()
        for i in range(prior_picks):
            dc_handle_picked(dc, i, outputs_of((0.3,) * 9))
        before = dc.cum
        size_before = len(dc.sampled)

        csm, semi, mat = outputs_of(tuple(attrs))
        dc_handle_picked(dc, 99, (csm, semi, mat))

        assert len(dc.sampled) == size_before + 1
        assert dc.sampled[-1] == 99
        assert dc.cum.cum_csm == before.cum_csm + csm
        assert dc.cum.cum_semi == before.cum_semi + semi
        assert dc.cum.cum_mat == before.cum_mat + mat


class TestMigrationAndContext:
    def test_strict_exceedance(self):
        dc = fresh_dc(threshold=10.0)
        dc.cum = CumulativeSignals(10.1, 0, 0)
        assert dc_should_migrate(dc)

    def test_equality_does_not_exceed(self):
        dc = fresh_dc(threshold=10.0)
        dc.cum = CumulativeSignals(10.0, 0, 0)
        assert not dc_should_migrate(dc)

    def test_zero_csm_never_migrates(self):
        assert not dc_should_migrate(fresh_dc(threshold=0.001))

    def test_semi_greater_goes_semimature(self):
        dc = fresh_dc()
        dc.cum = CumulativeSignals(0, 10, 5)
        assert dc_decide_context(dc) == ("semimature", 0)

    def test_tie_goes_mature(self):
        dc = fresh_dc()
        dc.cum = CumulativeSignals(0, 5, 5)
        assert dc_decide_context(dc) == ("mature", 1)

    def test_semi_below_goes_mature(self):
        dc = fresh_dc()
        dc.cum = CumulativeSignals(0, -1, 3)
        assert dc_decide_context(dc) == ("mature", 1)

    @given(cum_floats, cum_floats, cum_floats)
    def test_context_zero_iff_semi_exceeds_mat(self, csm, semi, mat):
        dc = fresh_dc()
        dc.cum = CumulativeSignals(csm, semi, mat)
        name, bit = dc_decide_context(dc)
        assert (bit == 0) == (semi > mat)
        assert name == ("semimature" if bit == 0 else "mature")

    @given(cum_floats, st.floats(0.001, 1e6))
    def test_migration_iff_strictly_above_threshold(self, csm, threshold):
        dc = fresh_dc(threshold=threshold)
        dc.cum = CumulativeSignals(csm, 0, 0)
        assert dc_should_migrate(dc) == (csm > threshold)


class TestAntigenHandleContext:
    def test_last_bit_returns_mcav(self):
        ag = fresh_antigen(k=4)
        assert [antigen_handle_context(ag, bit) for bit in (1, 0, 1)] == [None, None, None]
        assert antigen_handle_context(ag, 1) == 0.75

    def test_bit_before_the_last_returns_none(self):
        ag = fresh_antigen(k=2)
        assert antigen_handle_context(ag, 0) is None
        assert (ag.received, ag.ones) == (1, 0)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=50))
    def test_mcav_equals_fraction_of_one_votes(self, bits):
        ag = fresh_antigen(k=len(bits))
        returned = [antigen_handle_context(ag, bit) for bit in bits]
        assert returned[:-1] == [None] * (len(bits) - 1)  # not before the k-th bit
        assert (ag.received, ag.ones) == (len(bits), sum(bits))
        assert returned[-1] == sum(bits) / len(bits)
        assert returned[-1] == compute_mcav(bits)


class TestComputeMcav:
    def test_half(self):
        assert compute_mcav([1, 1, 0, 0]) == 0.5

    def test_all_normal_votes(self):
        assert compute_mcav([0, 0, 0]) == 0.0

    def test_all_anomalous_votes(self):
        assert compute_mcav([1, 1, 1, 1, 1]) == 1.0

    def test_empty(self):
        with pytest.raises(ValueError, match="^MCAV needs at least one context$"):
            compute_mcav([])

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=200))
    def test_in_unit_interval(self, bits):
        assert 0.0 <= compute_mcav(bits) <= 1.0


class TestClassifyAntigen:
    def test_above_threshold_is_anomalous(self):
        assert classify_antigen(0.75, 0.5) is Category.ANOMALOUS

    def test_at_threshold_is_normal(self):
        assert classify_antigen(0.5, 0.5) is Category.NORMAL

    def test_zero_is_normal(self):
        assert classify_antigen(0.0, 0.0) is Category.NORMAL

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    def test_monotone_in_mcav(self, a, b, threshold):
        lo_mcav, hi_mcav = min(a, b), max(a, b)
        if classify_antigen(lo_mcav, threshold) is Category.ANOMALOUS:
            assert classify_antigen(hi_mcav, threshold) is Category.ANOMALOUS

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_strict_comparison(self, mcav, threshold):
        expected = Category.ANOMALOUS if mcav > threshold else Category.NORMAL
        assert classify_antigen(mcav, threshold) is expected
