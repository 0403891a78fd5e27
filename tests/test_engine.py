"""Scheduler behavior: spawning, migration, replacement, flush, determinism."""

import csv
import io
import math
import random
import tracemalloc
from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import make_records, oracle_kwargs, random_sim_setup, write_wbc_like_file
from oracle import run_reference_dca

from dca_lab.agents import AntigenAgent, Category, DCAgent
from dca_lab.data_ingest import AntigenRecord, DatasetError, load_dataset
from dca_lab.engine import (
    _DRAW_CHUNK,
    EngineFaultError,
    InvalidConfigError,
    SimConfig,
    TraceLog,
    World,
    dc_at,
    flush,
    init_world,
    run,
    step,
)
from dca_lab.signal_model import CumulativeSignals, SignalMapping, WeightMatrix


def small_config(**overrides) -> SimConfig:
    defaults = dict(
        population_size=10,
        dcs_per_antigen=3,
        signal_mapping=SignalMapping((0, 1), (0, 1), (0, 1)),
        seed=7,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


def every_dc(world, config):
    """Each slot's DC, made through ``dc_at`` where the slot is still empty."""
    return [dc_at(world, config, position) for position in range(len(world.dcs))]


def run_world(config, records):
    """Drive a full run while keeping the World visible for invariant checks."""
    world = init_world(config, records)
    while world.pending:
        step(world, config)
    flush(world, config)
    return world


class TestSimConfig:
    def test_defaults_are_valid(self):
        SimConfig()

    def test_population_must_be_positive(self):
        with pytest.raises(InvalidConfigError):
            SimConfig(population_size=0)

    def test_k_cannot_exceed_population(self):
        with pytest.raises(InvalidConfigError):
            SimConfig(population_size=5, dcs_per_antigen=6)

    def test_threshold_range_must_be_positive_and_ordered(self):
        with pytest.raises(InvalidConfigError):
            SimConfig(threshold_range=(0.0, 10.0))
        with pytest.raises(InvalidConfigError):
            SimConfig(threshold_range=(10.0, 5.0))
        with pytest.raises(InvalidConfigError):
            SimConfig(threshold_range=(100.0, math.inf))

    def test_smallest_positive_threshold_is_accepted(self):
        assert SimConfig(threshold_range=(5e-324, 5e-324)).threshold_range == (5e-324, 5e-324)

    def test_one_histogram_bin_runs(self):
        records = make_records(random.Random(0), 4, 2)
        histogram = run(small_config(histogram_bins=1), records).histogram
        assert (histogram.edges, histogram.counts) == ((0.0, 1.0), (4,))

    def test_anomalous_threshold_bounds(self):
        with pytest.raises(InvalidConfigError):
            SimConfig(anomalous_threshold=1.5)

    def test_seed_bounds(self):
        with pytest.raises(InvalidConfigError):
            SimConfig(seed=2**64)
        with pytest.raises(InvalidConfigError):
            SimConfig(seed=-1)

    @pytest.mark.parametrize(
        ("kwargs", "message"),
        [
            ({"population_size": True, "dcs_per_antigen": 1}, "population_size must be an integer, got True"),
            ({"population_size": "5"}, "population_size must be an integer, got '5'"),
            ({"threshold_range": (1, 2, 3)}, "threshold_range must be an array of 2 values, each a number, got (1, 2, 3)"),
            ({"threshold_range": (100.0, False)}, "threshold_range must be an array of 2 values, each a number"),
            ({"seed": True}, "seed must be an integer, got True"),
            ({"weight_matrix": None}, "weight_matrix must be a WeightMatrix, got None"),
        ],
    )
    def test_python_values_of_the_wrong_kind_are_rejected(self, kwargs, message):
        with pytest.raises(InvalidConfigError) as excinfo:
            SimConfig(**kwargs)
        assert str(excinfo.value).startswith(message)

    def test_an_integer_is_a_number(self):
        assert SimConfig(threshold_range=(100, 300)).threshold_range == (100, 300)
        assert SimConfig(threshold_range=[100.0, 300.0]).threshold_range == (100.0, 300.0)


class TestInitWorld:
    def test_construction_contract(self):
        rng = random.Random(0)
        config = SimConfig(population_size=100, seed=5)
        world = init_world(config, make_records(rng, 3, 9))
        assert len(world.dcs) == 100
        t_min, t_max = config.threshold_range
        assert all(t_min <= dc.migration_threshold <= t_max for dc in every_dc(world, config))
        assert world.tick == 0
        assert world.next_dc_id == 100

    def test_same_seed_same_thresholds(self):
        rng = random.Random(0)
        records = make_records(rng, 3, 9)
        config = SimConfig(seed=99)
        first = [dc.migration_threshold for dc in every_dc(init_world(config, records), config)]
        second = [dc.migration_threshold for dc in every_dc(init_world(config, records), config)]
        assert first == second

    def test_invalid_config_rejected(self):
        rng = random.Random(0)
        with pytest.raises(InvalidConfigError):
            init_world(SimConfig(population_size=0), make_records(rng, 3, 9))

    def test_pending_in_antigen_id_order(self):
        rng = random.Random(0)
        records = make_records(rng, 5, 2)
        world = init_world(small_config(), list(reversed(records)))
        assert [r.antigen_id for r in world.pending] == [0, 1, 2, 3, 4]


class TestLazyPopulation:
    """``world.dcs`` holds None at a slot until ``dc_at`` makes its DC, at its first pick."""

    # 10007 slots cross two chunk boundaries; 2 * _DRAW_CHUNK ends on one.
    @pytest.mark.parametrize("n", [1, 2, 7, 100, 10007, 2 * _DRAW_CHUNK])
    @pytest.mark.parametrize("seed", [0, 1, 5, 2**64 - 1])
    def test_thresholds_and_state_are_those_of_n_random_draws(self, seed, n):
        # getrandbits calls over consecutive chunks take the words of n
        # random() calls in the same order: a CPython detail, pinned here
        # on every version.
        config = SimConfig(population_size=n, dcs_per_antigen=1, seed=seed)
        world = init_world(config, make_records(random.Random(0), 3, 9))
        replay = random.Random(seed)
        t_min, t_max = config.threshold_range
        expected = [t_min + (t_max - t_min) * replay.random() for _ in range(n)]
        assert [dc.migration_threshold for dc in every_dc(world, config)] == expected
        assert world.rng.getstate() == replay.getstate()

    def test_a_slot_is_made_once_in_place_with_its_position_as_id(self):
        config = small_config(population_size=6)
        world = init_world(config, make_records(random.Random(0), 2, 2))
        assert world.dcs == [None] * 6
        state = world.rng.getstate()
        dc = dc_at(world, config, 4)
        assert (dc.dc_id, dc.sampled, dc.id_text) == (4, [], None)
        assert world.dcs[4] is dc and dc_at(world, config, 4) is dc
        assert world.dcs[:4] + world.dcs[5:] == [None] * 5
        assert world.rng.getstate() == state

    def test_a_dc_made_in_a_traced_world_holds_its_id_text(self):
        config = small_config(population_size=6)
        world = init_world(config, make_records(random.Random(0), 2, 2), TraceLog(io.StringIO()))
        assert dc_at(world, config, 4).id_text == "4"

    def test_init_world_peak_memory_is_close_to_what_it_keeps(self):
        # The words are drawn chunk by chunk into one buffer: no 8N-byte
        # int and bytes copy of it alive at once beside the kept words.
        config = SimConfig(population_size=10**6, dcs_per_antigen=1)
        records = make_records(random.Random(0), 3, 9)
        tracemalloc.start()
        try:
            world = init_world(config, records)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(world.threshold_words) == 8 * 10**6
        assert peak < 1.25 * kept

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
           st.integers(1, 20), st.integers(0, 2**64 - 1))
    @example(population_and_k=(1, 1), n_records=6, seed=0)
    @example(population_and_k=(5, 5), n_records=9, seed=2)
    @example(population_and_k=(8, 1), n_records=3, seed=1)
    def test_when_the_dcs_are_made_changes_no_output(self, population_and_k, n_records, seed):
        population, k = population_and_k
        config = small_config(population_size=population, dcs_per_antigen=k, seed=seed)
        records = make_records(random.Random(seed), n_records, 2)

        def traced_run(make_every_dc_at_tick):
            stream = io.StringIO(newline="")
            world = init_world(config, records, TraceLog(stream))
            for tick in range(n_records):
                if tick == make_every_dc_at_tick:
                    every_dc(world, config)
                step(world, config)
            flush(world, config)
            return world.results, stream.getvalue(), world.rng.getstate()

        lazy = traced_run(None)
        assert traced_run(0) == lazy  # every DC made before the first tick
        assert traced_run(n_records // 2) == lazy  # midway
        assert run(config, records).results == lazy[0]  # untraced, lazy


class TestStep:
    def test_quiescent_tick_only_increments(self):
        rng = random.Random(1)
        config = small_config()
        world = init_world(config, make_records(rng, 1, 2))
        step(world, config)
        snapshot = ([dc.dc_id for dc in every_dc(world, config)], len(world.results), world.contexts_delivered)
        tick_before = world.tick
        step(world, config)
        assert world.tick == tick_before + 1
        assert ([dc.dc_id for dc in every_dc(world, config)], len(world.results), world.contexts_delivered) == snapshot

    def test_population_constant_after_every_step(self):
        rng = random.Random(2)
        config = small_config(population_size=8, dcs_per_antigen=8)
        world = init_world(config, make_records(rng, 30, 2))
        for _ in range(40):
            step(world, config)
            assert len(world.dcs) == 8

    def test_spawn_delivers_exactly_k_picks(self):
        rng = random.Random(3)
        config = small_config(dcs_per_antigen=3)
        records = make_records(rng, 2, 2)
        buffer = io.StringIO()
        world = init_world(config, records, TraceLog(buffer))
        step(world, config)
        rows = list(csv.DictReader(io.StringIO(buffer.getvalue())))
        spawns = [r for r in rows if r["event_kind"] == "spawn"]
        picks = [r for r in rows if r["event_kind"] == "pick"]
        assert len(spawns) == 1
        assert spawns[0]["ids"] == "0"
        assert len(picks) == 3

    def test_replacements_get_fresh_ids_at_same_position(self):
        # All-max attributes force immediate migration on every pick.
        config = small_config(
            population_size=4,
            dcs_per_antigen=2,
            threshold_range=(100.0, 299.0),
            signal_mapping=SignalMapping((0,), (0,), (0,)),
        )
        records = [
            AntigenRecord(0, 0, (1.0,), Category.ANOMALOUS),
        ]
        world = init_world(config, records)
        objects = every_dc(world, config)
        ids_before = [dc.dc_id for dc in objects]
        step(world, config)
        ids_after = [dc.dc_id for dc in every_dc(world, config)]
        assert len(ids_after) == 4
        replaced = [new for new, old in zip(ids_after, ids_before) if new != old]
        assert len(replaced) == 2
        assert all(new >= 4 for new in replaced)
        # Each migrated DC object is reset in place as its replacement.
        assert all(now is before for now, before in zip(world.dcs, objects))
        for dc in world.dcs:
            if dc.dc_id >= 4:
                assert (dc.cum, dc.sampled) == (CumulativeSignals(), [])

    def test_a_dc_replaced_in_a_traced_world_holds_its_new_id_text(self):
        # As above: both picked DCs migrate at their pick.
        config = small_config(
            population_size=4,
            dcs_per_antigen=2,
            threshold_range=(100.0, 299.0),
            signal_mapping=SignalMapping((0,), (0,), (0,)),
        )
        world = init_world(config, [AntigenRecord(0, 0, (1.0,), Category.ANOMALOUS)], TraceLog(io.StringIO()))
        step(world, config)
        made = list(filter(None, world.dcs))
        assert sorted(dc.dc_id for dc in made) == [4, 5]
        assert [dc.id_text for dc in made] == [str(dc.dc_id) for dc in made]


    def test_tick_draws_every_pick_before_any_threshold(self):
        # All-max records give csm = 300 per pick, above every threshold in
        # [100, 299], so each of the k picks migrates its DC.
        config = SimConfig(population_size=4, dcs_per_antigen=3, threshold_range=(100.0, 299.0), seed=11)
        world = init_world(config, [AntigenRecord(0, 0, (1.0,) * 9, Category.ANOMALOUS)])
        step(world, config)

        replay = random.Random(config.seed)
        for _ in range(4):
            replay.random()
        pool = list(range(4))
        for i in range(3):
            j = i + replay.randrange(4 - i)
            pool[i], pool[j] = pool[j], pool[i]
        thresholds = [100.0 + (299.0 - 100.0) * replay.random() for _ in range(3)]
        assert [(world.dcs[p].dc_id, world.dcs[p].migration_threshold) for p in pool[:3]] == [
            (4 + i, t) for i, t in enumerate(thresholds)
        ]
        assert world.rng.getstate() == replay.getstate()


class TestInlineRules:
    """The engine's own copies of the decision rules, at their ties.

    ``agents.dc_should_migrate``, ``dc_decide_context`` and
    ``classify_antigen`` state the rules and acceptance criterion 5 tests
    them; the engine applies the same strict comparisons inline.
    """

    # Attribute 0 feeds every signal uncomplemented: at 1.0 each signal is
    # exactly 100, so a pick adds 100 times each column's sum, with no rounding.
    MAPPING = SignalMapping((0,), (0,), (0,), safe_is_complement=False)
    RECORDS = [AntigenRecord(i, i, (1.0,), Category.ANOMALOUS) for i in range(2)]

    def config(self, weights, **overrides):
        return SimConfig(population_size=1, dcs_per_antigen=1, signal_mapping=self.MAPPING,
                         weight_matrix=weights, **overrides)

    def test_csm_equal_to_the_threshold_does_not_migrate(self):
        csm_only = WeightMatrix(pamp=(1.0, 0.0, 0.0), danger=(1.0, 0.0, 0.0), safe=(1.0, 0.0, 0.0))
        config = self.config(csm_only, threshold_range=(300.0, 300.0))
        world = init_world(config, self.RECORDS)
        step(world, config)
        assert (world.dcs[0].dc_id, world.dcs[0].cum_csm) == (0, 300.0)
        step(world, config)
        assert world.dcs[0].dc_id == 1

    @pytest.mark.parametrize(
        ("semi", "mat", "bit"),
        [(2.0, 1.0, 0), (1.0, 1.0, 1), (1.0, 2.0, 1)],
        ids=["semi_greater", "tie", "mat_greater"],
    )
    def test_vote_is_semimature_only_when_semi_exceeds_mat(self, semi, mat, bit):
        weights = WeightMatrix(pamp=(1.0, semi, mat), danger=(0.0, 0.0, 0.0), safe=(0.0, 0.0, 0.0))
        report = run(self.config(weights), self.RECORDS)
        assert [r.mcav for r in report.results] == [float(bit)] * 2

    @pytest.mark.parametrize(
        ("semi", "anomalous_threshold", "predicted"),
        [(0.0, 1.0, Category.NORMAL), (2.0, 0.0, Category.NORMAL), (0.0, 0.5, Category.ANOMALOUS)],
        ids=["mcav_one_at_threshold_one", "mcav_zero_at_threshold_zero", "mcav_one_above_threshold"],
    )
    def test_anomalous_only_when_the_mcav_exceeds_the_threshold(self, semi, anomalous_threshold, predicted):
        weights = WeightMatrix(pamp=(1.0, semi, 1.0), danger=(0.0, 0.0, 0.0), safe=(0.0, 0.0, 0.0))
        report = run(self.config(weights, anomalous_threshold=anomalous_threshold), self.RECORDS)
        assert [r.predicted for r in report.results] == [predicted] * 2


def flush_world(sampled_lists, in_flight_ids, trace=None):
    """A hand-built world at tick 5: one DC per sampled list, k=1 antigens in flight.

    With a trace, every agent holds its id's text, as in a traced run.
    """
    def text(agent_id):
        return None if trace is None else str(agent_id)

    dcs = []
    for dc_id, sampled in enumerate(sampled_lists):
        dc = DCAgent(dc_id=dc_id, migration_threshold=1000.0, id_text=text(dc_id))
        dc.cum = CumulativeSignals(cum_csm=50.0, cum_semi=10.0, cum_mat=5.0)
        dc.sampled = list(sampled)
        dcs.append(dc)
    antigens = {
        aid: AntigenAgent(true_label=Category.NORMAL, expected_contexts=1, id_text=text(aid))
        for aid in in_flight_ids
    }
    return World(
        tick=5,
        pending=deque(),
        dcs=dcs,
        antigens_in_flight=antigens,
        results=[],
        rng=random.Random(0),
        next_dc_id=len(dcs),
        trace=trace,
    )


class TestFlush:
    def test_semimature_flush_returns_zero_contexts(self):
        buffer = io.StringIO()
        world = flush_world([[3, 7]], [3, 7], TraceLog(buffer))
        config = SimConfig(population_size=1, dcs_per_antigen=1)
        flush(world, config)
        rows = list(csv.DictReader(io.StringIO(buffer.getvalue())))
        assert [r["values"] for r in rows if r["event_kind"] == "flush_migrate"] == ["semimature;0"]
        assert {r.antigen_id: r.mcav for r in world.results} == {3: 0.0, 7: 0.0}
        assert all(r.predicted is Category.NORMAL for r in world.results)
        assert not world.antigens_in_flight

    def test_empty_sampled_discarded_silently(self):
        world = World(
            tick=0,
            pending=deque(),
            dcs=[DCAgent(dc_id=0, migration_threshold=10.0)],
            antigens_in_flight={},
            results=[],
            rng=random.Random(0),
            next_dc_id=1,
        )
        flush(world, SimConfig(population_size=1, dcs_per_antigen=1))
        assert world.dcs == []
        assert world.contexts_delivered == 0

    def test_antigen_no_dc_holds_is_left_in_flight_and_engine_fault(self):
        world = flush_world([[3]], [3, 9])
        with pytest.raises(EngineFaultError, match="^1 antigens still lack contexts after flush$"):
            flush(world, SimConfig(population_size=1, dcs_per_antigen=1))
        assert [r.antigen_id for r in world.results] == [3]

    def test_bit_for_an_antigen_not_in_flight_is_engine_fault(self):
        world = flush_world([[3, 8]], [3])
        with pytest.raises(EngineFaultError, match="antigen 8 which is not in flight"):
            flush(world, SimConfig(population_size=1, dcs_per_antigen=1))

    def test_second_bit_for_a_k1_antigen_is_engine_fault(self):
        # Two DCs both sampled antigen 3, which is owed one bit: the first
        # bit finalizes it, so the second finds it no longer in flight.
        world = flush_world([[3], [3]], [3])
        with pytest.raises(EngineFaultError, match="DC 1 voted for antigen 3 which is not in flight"):
            flush(world, SimConfig(population_size=2, dcs_per_antigen=1))
        assert [r.antigen_id for r in world.results] == [3]

    def test_flush_with_pending_is_engine_fault(self):
        rng = random.Random(4)
        config = small_config()
        world = init_world(config, make_records(rng, 2, 2))
        with pytest.raises(EngineFaultError):
            flush(world, config)

    def test_unreachable_thresholds_resolve_everything_at_flush(self):
        rng = random.Random(12)
        records = make_records(rng, 15, 2)
        config = small_config(threshold_range=(1e9, 1e9 + 1.0), seed=3)
        world = init_world(config, records)
        while world.pending:
            step(world, config)
        assert world.contexts_delivered == 0  # nobody migrated mid-run
        flush(world, config)
        assert world.contexts_delivered == 15 * config.dcs_per_antigen
        assert len(world.results) == 15
        assert not world.antigens_in_flight

    def test_flush_order_matches_reference_loop(self):
        rng = random.Random(13)
        records = make_records(rng, 15, 2)
        config = small_config(threshold_range=(1e9, 1e9 + 1.0), seed=3)
        report = run(config, records)
        expected = run_reference_dca(
            [(r.antigen_id, r.attributes) for r in records], **oracle_kwargs(config)
        )
        assert {r.antigen_id: r.mcav for r in report.results} == expected


class TestRun:
    def test_identical_inputs_identical_reports(self):
        rng = random.Random(5)
        config = small_config(seed=123)
        records = make_records(rng, 25, 2)
        assert run(config, records) == run(config, records)

    def test_every_record_classified_exactly_once(self):
        rng = random.Random(6)
        config = small_config()
        records = make_records(rng, 40, 2)
        report = run(config, records)
        assert len(report.results) == 40
        assert sorted(r.antigen_id for r in report.results) == list(range(40))

    def test_context_conservation_and_completeness(self):
        rng = random.Random(7)
        records = make_records(rng, 35, 3)
        config = SimConfig(
            population_size=6,
            dcs_per_antigen=4,
            signal_mapping=SignalMapping((0, 2), (1,), (0, 1, 2)),
            seed=11,
        )
        world = run_world(config, records)
        assert world.contexts_delivered == world.samples_retired
        assert world.contexts_delivered == len(records) * config.dcs_per_antigen
        assert not world.antigens_in_flight
        assert len(world.results) == len(records)

    def test_matches_reference_loop_on_twenty_records(self):
        rng = random.Random(8)
        records = make_records(rng, 20, 4)
        config = SimConfig(
            population_size=10,
            dcs_per_antigen=3,
            signal_mapping=SignalMapping((0, 1), (2, 3), (0, 3)),
            seed=4242,
        )
        report = run(config, records)
        expected = run_reference_dca(
            [(r.antigen_id, r.attributes) for r in records], **oracle_kwargs(config)
        )
        assert {r.antigen_id: r.mcav for r in report.results} == expected

    def test_all_max_records_all_vote_one(self):
        records = [
            AntigenRecord(i, i, (1.0,) * 9, Category.ANOMALOUS) for i in range(8)
        ]
        config = SimConfig(population_size=10, dcs_per_antigen=3, seed=1)
        report = run(config, records)
        assert all(r.mcav == 1.0 for r in report.results)
        assert all(r.predicted is Category.ANOMALOUS for r in report.results)
        assert report.metrics.accuracy == 1.0

    def test_mapping_index_beyond_attributes_rejected(self):
        rng = random.Random(9)
        records = make_records(rng, 5, 2)
        config = SimConfig(
            population_size=5,
            dcs_per_antigen=2,
            signal_mapping=SignalMapping((0,), (0, 5), (1,)),
        )
        with pytest.raises(InvalidConfigError):
            run(config, records)

    def test_histogram_counts_all_results(self):
        rng = random.Random(10)
        config = small_config()
        records = make_records(rng, 30, 2)
        report = run(config, records)
        assert sum(report.histogram.counts) == len(report.results)

    def test_replicated_antigen_mcav_is_exact_vote_fraction(self):
        # The same record replicated 40 times: each replica's MCAV must be an
        # exact ratio of 1-votes to k, and the replicas spread over [0, 1]
        # like the anomaly probability they estimate.
        attrs = (0.6, 0.4, 0.7)
        records = [AntigenRecord(i, i, attrs, Category.ANOMALOUS) for i in range(40)]
        config = SimConfig(
            population_size=12,
            dcs_per_antigen=6,
            threshold_range=(200.0, 900.0),
            signal_mapping=SignalMapping((0,), (1,), (2,)),
            seed=17,
        )
        report = run(config, records)
        k = config.dcs_per_antigen
        for result in report.results:
            ones = result.mcav * k
            assert ones == int(ones)
            assert result.mcav == int(ones) / k


class TestRecordsCheck:
    """``run`` checks its records once, before the first tick."""

    def test_empty_records_rejected(self):
        with pytest.raises(DatasetError, match="^cannot run on zero records$"):
            run(SimConfig(), [])

    def test_mapping_index_equal_to_the_attribute_count_rejected(self):
        records = make_records(random.Random(9), 5, 2)
        config = small_config(signal_mapping=SignalMapping((0,), (1, 2), (1,)))
        with pytest.raises(InvalidConfigError, match="attribute index 2 but a record has only 2 attributes"):
            run(config, records)

    @pytest.mark.parametrize("bad", [1.5, -0.5, math.nan, math.inf, -math.inf])
    def test_attribute_outside_unit_interval_rejected(self, bad):
        records = make_records(random.Random(3), 5, 2)
        records[1] = records[1]._replace(attributes=(0.0, 1.0))  # both ends: in range, not named
        records[3] = records[3]._replace(attributes=(0.5, bad))
        with pytest.raises(DatasetError, match=r"antigen 3 has an attribute outside \[0, 1\]"):
            run(small_config(), records)

    def test_unit_interval_ends_accepted(self):
        records = [
            AntigenRecord(0, 0, (0.0, 1.0), Category.NORMAL),
            AntigenRecord(1, 1, (1.0, 0.0), Category.ANOMALOUS),
        ]
        assert len(run(small_config(), records).results) == 2

    def test_repeated_id_that_is_not_the_first_is_named(self):
        records = [AntigenRecord(aid, i, (0.5,) * 9, Category.NORMAL) for i, aid in enumerate([0, 1, 1])]
        with pytest.raises(DatasetError, match="^antigen id 1 is repeated$"):
            run(SimConfig(), records)

    # Unchecked, (100, 300) ends in a vote for an id already finalized, and
    # (1, 1) gives two results with id 0.
    @pytest.mark.parametrize("threshold_range", [(100.0, 300.0), (1.0, 1.0)], ids=["votes_twice", "finalized_twice"])
    def test_repeated_antigen_id_rejected_before_the_first_tick(self, threshold_range):
        records = [
            AntigenRecord(0, 10, (0.0,) * 9, Category.NORMAL),
            AntigenRecord(0, 11, (1.0,) * 9, Category.ANOMALOUS),
            AntigenRecord(1, 12, (0.5,) * 9, Category.NORMAL),
        ]
        stream = io.StringIO(newline="")
        with pytest.raises(DatasetError, match="antigen id 0 is repeated"):
            run(SimConfig(threshold_range=threshold_range, seed=3), records, TraceLog(stream))
        assert stream.getvalue() == "tick,event_kind,ids,values\r\n"


class TestRandomizedOracleParity:
    def test_ten_random_setups(self):
        meta = random.Random(20240917)
        for _ in range(10):
            config, records = random_sim_setup(meta)
            report = run(config, records)
            expected = run_reference_dca(
                [(r.antigen_id, r.attributes) for r in records], **oracle_kwargs(config)
            )
            assert {r.antigen_id: r.mcav for r in report.results} == expected


def oracle_mcavs(config, records):
    return run_reference_dca(
        [(r.antigen_id, r.attributes) for r in records], **oracle_kwargs(config)
    )


class TestOracleParityCorners:
    """Bit-exact engine/oracle agreement where the subset draw degenerates or is sparse."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 30), st.integers(0, 2**64 - 1))
    def test_every_dc_picked(self, population, n_records, seed):
        records = make_records(random.Random(seed), n_records, 3)
        config = small_config(
            population_size=population,
            dcs_per_antigen=population,
            signal_mapping=SignalMapping((0,), (1, 2), (0, 2)),
            seed=seed,
        )
        report = run(config, records)
        assert {r.antigen_id: r.mcav for r in report.results} == oracle_mcavs(config, records)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 30), st.floats(1.0, 400.0), st.integers(0, 2**64 - 1))
    def test_single_dc(self, n_records, t_min, seed):
        records = make_records(random.Random(seed), n_records, 2)
        config = small_config(
            population_size=1,
            dcs_per_antigen=1,
            threshold_range=(t_min, 2 * t_min),
            seed=seed,
        )
        report = run(config, records)
        assert {r.antigen_id: r.mcav for r in report.results} == oracle_mcavs(config, records)

    @settings(max_examples=3, deadline=None)
    @given(st.integers(0, 2**64 - 1))
    def test_large_population_small_k(self, seed):
        records = make_records(random.Random(seed), 60, 9)
        config = SimConfig(population_size=5000, dcs_per_antigen=10,
                           threshold_range=(250.0, 450.0), seed=seed)
        world = run_world(config, records)
        assert {r.antigen_id: r.mcav for r in world.results} == oracle_mcavs(config, records)
        assert world.next_dc_id > 5000  # some DCs migrated mid-run

    @settings(max_examples=30, deadline=None)
    @given(st.data(), st.integers(1, 12), st.integers(1, 30), st.integers(0, 2**64 - 1),
           st.lists(st.floats(-10.0, 10.0), min_size=6, max_size=6))
    def test_zero_csm_column_leaves_every_vote_to_the_flush(self, data, population, n_records, seed, weights):
        # With no csm no DC ever migrates, so every bit comes from the flush.
        records = make_records(random.Random(seed), n_records, 3)
        config = small_config(
            population_size=population,
            dcs_per_antigen=data.draw(st.integers(1, population)),
            weight_matrix=WeightMatrix((0.0, *weights[0:2]), (0.0, *weights[2:4]), (0.0, *weights[4:6])),
            signal_mapping=SignalMapping((0,), (1, 2), (0, 2)),
            seed=seed,
        )
        world = init_world(config, records)
        while world.pending:
            step(world, config)
        assert (world.contexts_delivered, world.next_dc_id) == (0, population)
        flush(world, config)
        assert {r.antigen_id: r.mcav for r in world.results} == oracle_mcavs(config, records)


class TestDeskScaleShape:
    """Structure-matched synthetic stand-in for the reference dataset."""

    def test_wbc_shaped_counts_and_separation(self, tmp_path):
        path = tmp_path / "wbc-shaped.data"
        write_wbc_like_file(path)
        with open(path, "rb") as handle:
            records, summary = load_dataset(handle)
        assert summary.rows_read == 699
        assert summary.rows_skipped == 16
        assert summary.records_produced == 683

        report = run(SimConfig(seed=3), records)
        assert len(report.results) == 683
        assert report.metrics.mean_mcav_anomalous > report.metrics.mean_mcav_normal
