"""Deterministic tick-based scheduler for the antigen/DC protocol.

One antigen spawns per logical tick and immediately sends 'picked' to k
distinct DCs; each delivery is followed by a migration check, migrating
DCs vote at once to every antigen they sampled and are replaced in place,
and completed antigens are finalized the moment their last context lands.
When the record stream is exhausted, a flush forces every sample-holding
DC to vote on its current cumulative values so no antigen is left behind.

Picks, votes and migrations pass plain numbers and build no message or
agent objects. An antigen's signals are one (pamp, danger, safe) float
tuple, fused once into one (csm, semi, mat) tuple; ``sample_dcs(n, k,
rng)`` returns the k picked list positions; a pick adds the triple to
the DC's float sums in place; a vote hands the antigen a plain int bit;
and a migrated DC object is reset in place as its replacement, with a
fresh id and threshold and its ``sampled`` list cleared.

Of the package's own functions, the tick loop calls only those that
``benchmarks/layers.py`` wraps to time a run, each through its
module-level name and at a fixed grain: ``step`` once per tick,
``sample_dcs`` and the two signal functions once per antigen,
``dc_handle_picked`` once per pick, ``_migrate`` once per natural
migration, ``antigen_handle_context`` once per bit and ``TraceLog.emit``
once per trace row. The one exception is ``dc_at``, called at most once
per slot, at its first pick. The three decision rules are applied
inline, as the strict comparisons ``agents.dc_should_migrate``,
``dc_decide_context`` and ``classify_antigen`` state them.

A run is traced or not as a whole: ``init_world`` keeps the run's
``TraceLog``, or None, in ``world.trace``, and every tick and the flush
read it there. Trace rows are built only in a traced world, each in
``trace.csv``'s exact format and handed whole to ``TraceLog.emit``,
which writes it straight to the stream. A row is joined from text made
once: each agent's id text, made when the agent gets its id (an antigen
at its spawn, a DC when ``dc_at`` makes it or ``_migrate`` renews it)
and kept on the agent; the ``"<tick>,"`` head per tick; a vote's
``context`` row head and tail per vote; and each distinct MCAV's
``repr`` per ``TraceLog``. In an untraced world no agent holds id text.

``run`` checks its records once, before the first tick: the mapping
fits them, their attributes lie in [0, 1], their ids are distinct and
each label is ``"normal"`` or ``"anomalous"``.
``init_world``, ``step``, ``flush`` and signal derivation trust them.

The population is lazy: ``world.dcs`` holds ``None`` at a slot until
the slot's first pick, when ``dc_at`` makes its DC, with the slot's
position as id and its initial threshold decoded from words kept since
``init_world``. A DC that is never picked is never made, so a run costs
the DCs it picks, not N; its traced ``discard`` row names it by its
position.

Randomness comes from a single ``random.Random`` (Mersenne Twister)
stream seeded from the config, with a fixed draw order: the N initial
migration thresholds in DC-index order at world creation, then per tick
the k subset draws for the spawned antigen (one draw below the shrinking
pool size each, in ``agents.sample_dcs``) followed by one replacement
threshold per migration, in migration order. A threshold is ``t_min +
(t_max - t_min) * rng.random()``, today's ``uniform``: both draws use
only the generator output that Python keeps stable across versions. The
N initial thresholds' words come from ``getrandbits`` calls over fixed
chunks of slots, which take the same 2N 32-bit words as N ``random()``
calls, in the same order (a CPython detail that the engine tests pin),
and leave the generator in the same state; ``dc_at`` decodes a slot's
two words as ``random()`` does. Identical (config, records) therefore
give identical runs, including every rng-dependent field.
"""

from __future__ import annotations

import math
import random
import struct
import sys
from collections import Counter, deque
from itertools import chain
from operator import attrgetter
from typing import IO, NamedTuple, Sequence

from .agents import AntigenAgent, Category, DCAgent, antigen_handle_context, dc_handle_picked, sample_dcs
from .analysis import (
    ClassificationResult,
    ConfusionCounts,
    MCAVHistogram,
    Metrics,
    build_histogram,
    compute_metrics,
)
from .data_ingest import AntigenRecord, AttributePolicy, DatasetError
from .schema import Config, Field, InvalidConfigError, brief
from .signal_model import (
    DEFAULT_WEIGHT_MATRIX,
    SignalMapping,
    WeightMatrix,
    default_signal_mapping,
    derive_input_signals,
    process_signals,
)

MAX_SEED = 2**64 - 1
#: Largest population_size and histogram_bins: larger values are rejected
#: before anything is allocated.
MAX_SIZE = 10**6
#: By context bit, the tail of a vote's trace rows: the ``migrate`` or
#: ``flush_migrate`` row's values (the state the DC takes, then the bit)
#: and each ``context`` row's value.
_VOTE_TAIL = (",semimature;0\r\n", ",mature;1\r\n")
_CONTEXT_TAIL = (",0\r\n", ",1\r\n")
#: A slot's two initial-threshold words, first drawn first, as
#: ``getrandbits`` lays them out in ``int.to_bytes(..., "little")``.
_WORD_PAIR = struct.Struct("<2I")
#: Slots whose words ``init_world`` draws per ``getrandbits`` call: a
#: 32 KiB int and its bytes at a time, not 8N bytes twice.
_DRAW_CHUNK = 4096


class EngineFaultError(RuntimeError):
    """An agent contract was violated mid-run; the simulation aborts and the CLI exits 5."""


class SimConfig(Config):
    """Full run configuration; every field has a shipped default.

    Each field is its schema row, which the CLI's JSON reader and writer
    and ``gen-config`` read too. Thresholds must be > 0, so their lower
    bound is the smallest positive float. Construction validates: an
    instance that exists is a valid config.
    """

    population_size = Field(int, 1, MAX_SIZE, default=100, note="number of DC agents alive at any instant (constant)")
    dcs_per_antigen = Field(int, 1, MAX_SIZE, default=10, note="distinct DCs each antigen is presented to (its vote count)")
    threshold_range = Field(float, math.ulp(0.0), sys.float_info.max, length=2, default=(100.0, 300.0), note="[t_min, t_max] for the per-DC migration threshold, drawn uniformly")
    weight_matrix = Field(WeightMatrix, default=DEFAULT_WEIGHT_MATRIX, note="per input signal: weights onto (csm, semi, mat); shipped values are a documented default, not a fitted result; the csm column must be nonnegative")
    signal_mapping = Field(SignalMapping, default=default_signal_mapping(), note="attribute indices feeding each input signal; safe_is_complement inverts the safe source mean")
    anomalous_threshold = Field(float, 0.0, 1.0, default=0.5, note="MCAV cutoff; an antigen is anomalous iff its MCAV strictly exceeds it")
    histogram_bins = Field(int, 1, MAX_SIZE, default=10, note="equal-width MCAV histogram bins over [0, 1]")
    attribute_policy = Field(AttributePolicy, default=AttributePolicy(), note="missing_value_policy is skip_record or impute_median; lo/hi are the fixed min-max normalization bounds")
    seed = Field(int, 0, MAX_SEED, default=0, note="64-bit unsigned rng seed; identical seed + inputs reproduce a run exactly")

    def rules(self):
        """The two cross-field rules. A component row checks only the kind: components check themselves."""
        if self.dcs_per_antigen > self.population_size:
            raise InvalidConfigError(f"dcs_per_antigen must be in [1, population_size={self.population_size}], got {self.dcs_per_antigen}")
        t_min, t_max = self.threshold_range
        if t_min > t_max:
            raise InvalidConfigError(f"threshold_range must satisfy t_min <= t_max, got [{t_min}, {t_max}]")


class World:
    """Complete simulation state, as ``init_world`` fills it; confined to one thread of control at a time.

    ``dcs`` has one slot per DC, ``None`` until the slot's first pick
    (see ``dc_at``). ``threshold_words`` holds 8 bytes per slot: the two
    generator words of the slot's initial threshold. For conservation
    bookkeeping, ``contexts_delivered`` counts the context bits handed to
    antigens and ``samples_retired`` the samples DCs held when they
    migrated or were flushed. ``trace`` is the run's trace, or None for
    an untraced run. In a traced world every DC and antigen holds its
    id's text; in an untraced one none does.
    """

    __slots__ = ("tick", "pending", "dcs", "antigens_in_flight", "results", "rng", "next_dc_id",
                 "contexts_delivered", "samples_retired", "threshold_words", "trace")


class RunReport(NamedTuple):
    """What ``run`` computed; the caller keeps the config it passed."""

    results: list[ClassificationResult]
    confusion: ConfusionCounts
    metrics: Metrics
    histogram: MCAVHistogram


class TraceLog:
    """Optional CSV event trace: one ``tick,event_kind,ids,values`` row per event.

    The engine formats each row itself, as ``csv.writer`` would write it:
    ids and values joined by ``;``, floats as ``repr``, an empty values
    field after a trailing comma, and a ``\r\n`` line end. No field ever
    needs quoting. Open the stream with ``newline=""``.
    """

    def __init__(self, stream: IO[str]):
        self._stream = stream
        #: ``"<tick>,"``, the head of every row of the tick being traced;
        #: the engine sets it once per tick and once at the flush.
        self.head = ""
        #: Each distinct MCAV's ``repr``, made at its first ``finalize`` row.
        #: MCAVs are j / k, so there are at most k + 1 of them.
        self.mcav_texts: dict[float, str] = {}
        stream.write("tick,event_kind,ids,values\r\n")

    def emit(self, row: str) -> None:
        """Write one preformatted row, line end included."""
        self._stream.write(row)


def init_world(
    config: SimConfig, records: Sequence[AntigenRecord], trace: TraceLog | None = None
) -> World:
    """Draw the N initial thresholds' words and leave the N slots empty, at tick 0.

    The words come from ``getrandbits`` calls of ``_DRAW_CHUNK`` slots
    each, written in order into one preallocated buffer: together they
    take the words of N ``random()`` calls, in DC-index order, and leave
    the generator where those would. No DC is made here: ``dc_at`` makes
    each at its slot's first pick. ``trace`` is the run's trace, or None.
    """
    n = config.population_size
    rng = random.Random(config.seed)
    words = bytearray(8 * n)
    for start in range(0, n, _DRAW_CHUNK):
        size = 8 * min(_DRAW_CHUNK, n - start)
        words[8 * start : 8 * start + size] = rng.getrandbits(8 * size).to_bytes(size, "little")
    world = World()
    world.tick = world.contexts_delivered = world.samples_retired = 0
    world.pending = deque(sorted(records, key=attrgetter("antigen_id")))
    world.dcs = [None] * n
    world.antigens_in_flight = {}
    world.results = []
    world.rng = rng
    world.next_dc_id = n
    world.threshold_words = words
    world.trace = trace
    return world


def dc_at(world: World, config: SimConfig, position: int) -> DCAgent:
    """The DC at ``position``, made immature on the slot's first use.

    A made DC has the position as its id, that id's text in a traced
    world, and the threshold that the slot's two words give: ``random()``'s
    ``((a >> 5) * 2**26 + (b >> 6)) * 2**-53``, scaled into
    ``threshold_range``. Draws nothing from ``world.rng``, so making a DC
    early or late changes no output.
    """
    dc = world.dcs[position]
    if dc is None:
        a, b = _WORD_PAIR.unpack_from(world.threshold_words, 8 * position)
        t_min, t_max = config.threshold_range
        u = ((a >> 5) * 67108864.0 + (b >> 6)) * 2**-53
        dc = world.dcs[position] = DCAgent(position, t_min + (t_max - t_min) * u)
        if world.trace is not None:
            dc.id_text = str(position)
    return dc


def _vote(world: World, config: SimConfig, dc: DCAgent, event: str) -> None:
    """Decide the DC's context, trace it as ``event``, and send its bit to every sampled antigen.

    ``event`` is ``migrate`` or ``flush_migrate``. The bit is 0
    (semimature) iff cum_semi > cum_mat, ties going to mature (1). Bits
    go out in sample order, with multiplicity. An antigen whose last bit
    this is gets its result, anomalous iff its MCAV strictly exceeds
    ``anomalous_threshold``, and leaves ``antigens_in_flight`` on the spot.
    """
    bit = 0 if dc.cum_semi > dc.cum_mat else 1
    trace = world.trace
    if trace is not None:
        emit, head = trace.emit, trace.head
        emit(f"{head}{event},{dc.id_text}{_VOTE_TAIL[bit]}")
        context_head = f"{head}context,{dc.id_text};"
        context_tail = _CONTEXT_TAIL[bit]
    in_flight = world.antigens_in_flight
    for aid in dc.sampled:
        ag = in_flight.get(aid)
        if ag is None:  # never owed a bit, or already got its last one
            raise EngineFaultError(
                f"tick {world.tick}: DC {dc.dc_id} voted for antigen {aid} "
                "which is not in flight"
            )
        mcav = antigen_handle_context(ag, bit)
        world.contexts_delivered += 1
        if trace is not None:
            emit(f"{context_head}{ag.id_text}{context_tail}")
        if mcav is not None:  # that was its last bit
            predicted = Category.ANOMALOUS if mcav > config.anomalous_threshold else Category.NORMAL
            # tuple.__new__ builds the result in C, as ingest builds each AntigenRecord.
            world.results.append(tuple.__new__(ClassificationResult, (aid, mcav, predicted, ag.true_label)))
            del in_flight[aid]
            if trace is not None:
                mcav_text = trace.mcav_texts.get(mcav)
                if mcav_text is None:
                    mcav_text = trace.mcav_texts[mcav] = repr(mcav)
                emit(f"{head}finalize,{ag.id_text},{mcav_text};{predicted}\r\n")
    world.samples_retired += len(dc.sampled)


def _migrate(world: World, config: SimConfig, dc: DCAgent) -> None:
    """Decide and vote, then reset the DC in place as its replacement.

    The replacement gets the next DC id, a fresh threshold, zeroed sums
    and an emptied ``sampled`` list, and in a traced world the new id's
    text. The threshold is drawn after the votes, keeping the rng draw
    order spawn-picks-then-replacements within each tick.
    """
    _vote(world, config, dc, "migrate")
    t_min, t_max = config.threshold_range
    dc.dc_id = world.next_dc_id
    world.next_dc_id += 1
    dc.migration_threshold = t_min + (t_max - t_min) * world.rng.random()
    dc.cum_csm = dc.cum_semi = dc.cum_mat = 0.0
    dc.sampled.clear()
    trace = world.trace
    if trace is not None:
        old_text, dc.id_text = dc.id_text, str(dc.dc_id)
        trace.emit(f"{trace.head}replace,{old_text};{dc.id_text},{dc.migration_threshold!r}\r\n")


def step(world: World, config: SimConfig) -> None:
    """Execute one logical tick.

    Order within the tick: spawn the head record (if any), deliver its k
    picks in pick order with a migration check after each delivery,
    migrating DCs vote immediately and are replaced at the same list
    position, and any antigen reaching k contexts is finalized on the spot.
    A DC migrates iff its cum_csm strictly exceeds its threshold. The DC
    population size is invariant across the tick. The picks are list
    positions drawn without touching the other N - k DCs, and an empty
    slot's DC is made at its pick, so a tick costs O(k) plus the
    migrations it triggers. Rows go to ``world.trace`` when it is set.
    """
    if world.pending:
        record = world.pending.popleft()
        antigen_id = record.antigen_id
        k = config.dcs_per_antigen
        trace = world.trace
        if trace is None:
            world.antigens_in_flight[antigen_id] = AntigenAgent(record.true_label, k)
        else:
            head = trace.head = f"{world.tick},"
            antigen_text = str(antigen_id)
            world.antigens_in_flight[antigen_id] = AntigenAgent(record.true_label, k, antigen_text)
            emit = trace.emit
            emit(f"{head}spawn,{antigen_text},{record.true_label}\r\n")
            pick_head = f"{head}pick,{antigen_text};"

        # The output triple depends only on the record and the config, so
        # it is computed once and added to each of the k picked DCs.
        out = process_signals(
            derive_input_signals(record.attributes, config.signal_mapping),
            config.weight_matrix,
        )
        dcs = world.dcs
        for position in sample_dcs(len(dcs), k, world.rng):
            dc = dcs[position] or dc_at(world, config, position)
            dc_handle_picked(dc, antigen_id, out)
            if trace is not None:
                emit(f"{pick_head}{dc.id_text},\r\n")
            if dc.cum_csm > dc.migration_threshold:
                _migrate(world, config, dc)
    world.tick += 1


def flush(world: World, config: SimConfig) -> None:
    """Force every sample-holding DC to vote on its current cumulative values, in position order.

    Sample-free DCs are discarded silently; afterwards no antigen may
    remain in flight and population accounting ends. Empty slots hold no
    samples: an untraced flush skips them, and a traced one writes each
    one's ``discard`` row with the position as the id.
    """
    if world.pending:
        raise EngineFaultError("flush called with records still pending")
    trace = world.trace
    if trace is None:
        for dc in filter(None, world.dcs):
            if dc.sampled:
                _vote(world, config, dc, "flush_migrate")
    else:
        head = trace.head = f"{world.tick},"
        for position, dc in enumerate(world.dcs):
            if dc is None:
                trace.emit(f"{head}discard,{position},\r\n")
            elif dc.sampled:
                _vote(world, config, dc, "flush_migrate")
            else:
                trace.emit(f"{head}discard,{dc.id_text},\r\n")
    world.dcs.clear()
    if world.antigens_in_flight:
        raise EngineFaultError(
            f"{len(world.antigens_in_flight)} antigens still lack contexts after flush"
        )


def _check_records(config: SimConfig, records: Sequence[AntigenRecord]) -> None:
    """What every tick assumes of the records, proved once; ``run`` says what it rejects."""
    if not records:
        raise DatasetError("cannot run on zero records")
    mapping = config.signal_mapping
    max_index = max(mapping.pamp_sources + mapping.danger_sources + mapping.safe_sources)
    shortest = min(map(len, map(attrgetter("attributes"), records)))
    if max_index >= shortest:
        raise InvalidConfigError(
            f"signal mapping references attribute index {max_index} but a record "
            f"has only {shortest} attributes"
        )
    # Each distinct value is compared once; NaN fails both comparisons.
    if not all(0.0 <= v <= 1.0 for v in set(chain.from_iterable(map(attrgetter("attributes"), records)))):
        bad = next(r for r in records if not all(0.0 <= v <= 1.0 for v in r.attributes))
        raise DatasetError(f"antigen {bad.antigen_id} has an attribute outside [0, 1]: {bad.attributes}")
    ids = list(map(attrgetter("antigen_id"), records))
    if len(set(ids)) != len(ids):
        repeated = next(aid for aid, n in Counter(ids).items() if n > 1)
        raise DatasetError(f"antigen id {repeated} is repeated")
    labels = list(map(attrgetter("true_label"), records))  # counted, not hashed: a label may be any object
    if labels.count(Category.NORMAL) + labels.count(Category.ANOMALOUS) != len(labels):
        bad = next(r for r in records if r.true_label not in (Category.NORMAL, Category.ANOMALOUS))
        raise DatasetError(f"antigen {bad.antigen_id} has label {brief(bad.true_label)}, not normal or anomalous")


def run(
    config: SimConfig,
    records: Sequence[AntigenRecord],
    trace: TraceLog | None = None,
) -> RunReport:
    """Run the full simulation: check the records, init, one tick per record, flush, analyse.

    Rejects no records, an attribute outside [0, 1], a repeated antigen
    id or a label other than ``"normal"`` and ``"anomalous"``
    (``DatasetError``), and a signal mapping that names an attribute a
    record lacks (``InvalidConfigError``).
    A deterministic function of (config, records): identical inputs give
    identical reports, including every rng-dependent field.
    """
    _check_records(config, records)
    world = init_world(config, records, trace)
    while world.pending:
        step(world, config)
    flush(world, config)

    confusion, metrics = compute_metrics(world.results)
    histogram = build_histogram(map(attrgetter("mcav"), world.results), config.histogram_bins)
    return RunReport(world.results, confusion, metrics, histogram)
