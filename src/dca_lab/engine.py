"""Deterministic tick-based scheduler for the antigen/DC protocol.

One antigen spawns per logical tick and immediately sends 'picked' to k
distinct DCs; each delivery is followed by a migration check, migrating
DCs vote at once to every antigen they sampled and are replaced in place,
and completed antigens are finalized the moment their last context lands.
When the record stream is exhausted, a flush forces every sample-holding
DC to vote on its current cumulative values so no antigen is left behind.

Picks, votes and migrations build no message or agent objects: a pick
adds the antigen's three output signals to the DC's float sums in place,
a vote hands the antigen a plain int bit, and a migrated DC object is
reset in place as its replacement, with a fresh id and threshold (only
its ``sampled`` list is new). Trace rows are built only when a trace is
being written: each is one f-string in ``trace.csv``'s exact format,
handed to ``TraceLog.emit``, which writes it straight to the stream.
``run`` calls
``step``, ``_migrate`` and ``flush``, and the engine calls the agent and
signal functions, through their module-level names, once per tick,
migration, pick, bit or antigen; ``benchmarks/layers.py`` times the run
by wrapping those names.

Randomness comes from a single ``random.Random`` (Mersenne Twister)
stream seeded from the config, with a fixed draw order: the N initial
migration thresholds in DC-index order at world creation, then per tick
the k subset draws for the spawned antigen (one ``randrange`` each)
followed by one ``uniform`` replacement threshold per migration, in
migration order. Identical (config, records) therefore give identical
runs, including every rng-dependent field.
"""

from __future__ import annotations

import math
import random
import sys
from collections import deque
from dataclasses import dataclass, field
from types import EllipsisType
from typing import IO, NamedTuple, Sequence

from .agents import (
    AntigenAgent,
    DCAgent,
    antigen_handle_context,
    classify_antigen,
    dc_decide_context,
    dc_handle_picked,
    dc_should_migrate,
    sample_dcs,
)
from .analysis import (
    ClassificationResult,
    ConfusionCounts,
    MCAVHistogram,
    Metrics,
    build_histogram,
    compute_metrics,
)
from .data_ingest import AntigenRecord, AttributePolicy, EmptyDatasetError, MissingValuePolicy
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
#: Largest |weight|. A pick adds at most 300 * MAX_WEIGHT to a DC's sums,
#: so no run over a record count that fits in memory can reach the float
#: maximum (about 1.8e308) and turn a sum into inf or nan.
MAX_WEIGHT = 1e100
_FLOAT_MAX = sys.float_info.max


class InvalidConfigError(ValueError):
    """A SimConfig invariant is violated."""


class EngineFaultError(RuntimeError):
    """An agent contract was violated mid-run; the simulation aborts."""


class UnflushableError(EngineFaultError):
    """An antigen still lacks contexts after flush."""


class Field(NamedTuple):
    """One config field: its JSON kind, inclusive bounds and ``gen-config`` note.

    ``kind`` is int, float, bool, an Enum, or the component class that the
    sub-table ``fields`` builds. With ``length`` the field is an array of
    that many values (``...``: any number). Defaults come from the classes.
    """

    kind: type
    lo: float | None = None
    hi: float | None = None
    length: int | EllipsisType | None = None
    fields: dict[str, Field] | None = None
    note: str | None = None


_WEIGHTS = Field(float, -MAX_WEIGHT, MAX_WEIGHT, length=3)
_SOURCES = Field(int, length=...)
_FINITE = Field(float, -_FLOAT_MAX, _FLOAT_MAX)
_WEIGHT_FIELDS = {"pamp": _WEIGHTS, "danger": _WEIGHTS, "safe": _WEIGHTS}
_MAPPING_FIELDS = {"pamp_sources": _SOURCES, "danger_sources": _SOURCES, "safe_sources": _SOURCES, "safe_is_complement": Field(bool)}
_POLICY_FIELDS = {"missing_value_policy": Field(MissingValuePolicy), "lo": _FINITE, "hi": _FINITE}

#: The config schema: one row per field, in ``SimConfig`` field order.
#: ``SimConfig.validate`` checks each value's kind, array length and
#: bounds against it; the CLI's JSON reader and writer and ``gen-config``
#: walk it. Thresholds must be > 0, so their lower bound is the smallest
#: positive float.
CONFIG_FIELDS: dict[str, Field] = {
    "population_size": Field(int, 1, MAX_SIZE, note="number of DC agents alive at any instant (constant)"),
    "dcs_per_antigen": Field(int, 1, MAX_SIZE, note="distinct DCs each antigen is presented to (its vote count)"),
    "threshold_range": Field(float, math.ulp(0.0), _FLOAT_MAX, length=2, note="[t_min, t_max] for the per-DC migration threshold, drawn uniformly"),
    "weight_matrix": Field(WeightMatrix, fields=_WEIGHT_FIELDS, note="per input signal: weights onto (csm, semi, mat); shipped values are a documented default, not a fitted result; the csm column must be nonnegative"),
    "signal_mapping": Field(SignalMapping, fields=_MAPPING_FIELDS, note="attribute indices feeding each input signal; safe_is_complement inverts the safe source mean"),
    "anomalous_threshold": Field(float, 0.0, 1.0, note="MCAV cutoff; an antigen is anomalous iff its MCAV strictly exceeds it"),
    "histogram_bins": Field(int, 1, MAX_SIZE, note="equal-width MCAV histogram bins over [0, 1]"),
    "attribute_policy": Field(AttributePolicy, fields=_POLICY_FIELDS, note="missing_value_policy is skip_record or impute_median; lo/hi are the fixed min-max normalization bounds"),
    "seed": Field(int, 0, MAX_SEED, note="64-bit unsigned rng seed; identical seed + inputs reproduce a run exactly"),
}


_KIND_TEXT = {int: "an integer", float: "a number", bool: "true or false"}


def expected_text(f: Field) -> str:
    """What a field's value must be, in the words of its JSON document."""
    if f.fields is not None:
        return "an object"
    one = _KIND_TEXT.get(f.kind) or "one of " + ", ".join(repr(m.value) for m in f.kind)
    if f.length is None:
        return one
    count = "" if f.length is ... else f"{f.length} "
    return f"an array of {count}values, each {one}"


def _has_kind(value, kind: type) -> bool:
    """Whether a Python value fits a field's kind: a bool is only a flag, an int is also a number."""
    if isinstance(value, bool) or kind is bool:
        return type(value) is kind
    return isinstance(value, (int, float) if kind is float else kind)


def _check_bounds(obj, fields: dict[str, Field], prefix: str = "") -> None:
    """Check each value's kind, array length and bounds against its row."""
    for name, f in fields.items():
        value, path = getattr(obj, name), prefix + name
        items = (value,) if f.length is None else value
        shaped = f.length is None or isinstance(value, tuple) and f.length in (..., len(value))
        if not shaped or not all(_has_kind(v, f.kind) for v in items):
            expected = expected_text(f) if f.kind in _KIND_TEXT else f"a {f.kind.__name__}"
            raise InvalidConfigError(f"{path} must be {expected}, got {value!r}")
        if f.fields is not None:
            _check_bounds(value, f.fields, f"{path}.")
        elif f.lo is not None:
            for v in items:
                if not f.lo <= v <= f.hi:
                    raise InvalidConfigError(f"{path} must be in [{f.lo}, {f.hi}], got {v}")


@dataclass(frozen=True)
class SimConfig:
    """Full run configuration; every field has a shipped default.

    Construction validates: an instance that exists is a valid config.
    """

    population_size: int = 100
    dcs_per_antigen: int = 10
    threshold_range: tuple[float, float] = (100.0, 300.0)
    weight_matrix: WeightMatrix = DEFAULT_WEIGHT_MATRIX
    signal_mapping: SignalMapping = field(default_factory=default_signal_mapping)
    anomalous_threshold: float = 0.5
    histogram_bins: int = 10
    attribute_policy: AttributePolicy = field(default_factory=AttributePolicy)
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.threshold_range, list):
            object.__setattr__(self, "threshold_range", tuple(self.threshold_range))
        self.validate()

    def validate(self) -> None:
        """Check every bound in CONFIG_FIELDS, then the two cross-field rules."""
        _check_bounds(self, CONFIG_FIELDS)
        if self.dcs_per_antigen > self.population_size:
            raise InvalidConfigError(
                f"dcs_per_antigen must be in [1, population_size={self.population_size}], "
                f"got {self.dcs_per_antigen}"
            )
        t_min, t_max = self.threshold_range
        if t_min > t_max:
            raise InvalidConfigError(
                f"threshold_range must satisfy t_min <= t_max, got [{t_min}, {t_max}]"
            )


@dataclass
class World:
    """Complete simulation state; confined to one thread of control at a time."""

    tick: int
    pending: deque[AntigenRecord]
    dcs: list[DCAgent]
    antigens_in_flight: dict[int, AntigenAgent]
    results: list[ClassificationResult]
    rng: random.Random
    next_dc_id: int
    # Conservation bookkeeping: context bits handed to antigens, and samples
    # held by DCs at the moment they migrated or were flushed.
    contexts_delivered: int = 0
    samples_retired: int = 0


@dataclass(frozen=True)
class RunReport:
    results: list[ClassificationResult]
    confusion: ConfusionCounts
    metrics: Metrics
    histogram: MCAVHistogram
    config_echo: SimConfig
    seed: int


class TraceLog:
    """Optional CSV event trace: one ``tick,event_kind,ids,values`` row per event.

    The engine formats each row itself, as ``csv.writer`` would write it:
    ids and values joined by ``;``, floats as ``repr``, an empty values
    field after a trailing comma, and a ``\r\n`` line end. No field ever
    needs quoting. Open the stream with ``newline=""``.
    """

    def __init__(self, stream: IO[str]):
        self._stream = stream
        stream.write("tick,event_kind,ids,values\r\n")

    def emit(self, row: str) -> None:
        """Write one preformatted row, line end included."""
        self._stream.write(row)


def init_world(config: SimConfig, records: Sequence[AntigenRecord]) -> World:
    """Create N immature DCs (thresholds drawn in DC-index order) at tick 0."""
    if not records:
        raise EmptyDatasetError("cannot initialize a world with zero records")
    t_min, t_max = config.threshold_range
    rng = random.Random(config.seed)
    dcs = [
        DCAgent(dc_id=i, migration_threshold=rng.uniform(t_min, t_max))
        for i in range(config.population_size)
    ]
    return World(
        tick=0,
        pending=deque(sorted(records, key=lambda r: r.antigen_id)),
        dcs=dcs,
        antigens_in_flight={},
        results=[],
        rng=rng,
        next_dc_id=config.population_size,
    )


def _finalize_antigen(
    world: World, config: SimConfig, ag: AntigenAgent, trace: TraceLog | None
) -> None:
    predicted = classify_antigen(ag.mcav, config.anomalous_threshold)
    world.results.append(
        ClassificationResult(
            antigen_id=ag.antigen_id,
            mcav=ag.mcav,
            predicted=predicted,
            actual=ag.true_label,
        )
    )
    del world.antigens_in_flight[ag.antigen_id]
    if trace is not None:
        trace.emit(f"{world.tick},finalize,{ag.antigen_id},{ag.mcav!r};{predicted.value}\r\n")


def _deliver_contexts(
    world: World, config: SimConfig, dc: DCAgent, bit: int, trace: TraceLog | None
) -> None:
    """Send the DC's context bit to every sampled antigen, in order, with multiplicity."""
    in_flight = world.antigens_in_flight
    for antigen_id in dc.sampled:
        ag = in_flight.get(antigen_id)
        if ag is None:  # never owed a bit, or already got its last one
            raise EngineFaultError(
                f"tick {world.tick}: DC {dc.dc_id} voted for antigen {antigen_id} "
                "which is not in flight"
            )
        antigen_handle_context(ag, bit)
        world.contexts_delivered += 1
        if trace is not None:
            trace.emit(f"{world.tick},context,{dc.dc_id};{antigen_id},{bit}\r\n")
        if ag.mcav is not None:  # that was its last bit
            _finalize_antigen(world, config, ag, trace)
    world.samples_retired += len(dc.sampled)


def _migrate(
    world: World, config: SimConfig, position: int, trace: TraceLog | None
) -> None:
    """Decide and vote, then reset the DC in place as its replacement.

    The replacement gets the next DC id, a fresh threshold, zeroed sums
    and an empty ``sampled`` list. The threshold is drawn after the votes,
    keeping the rng draw order spawn-picks-then-replacements within each
    tick.
    """
    dc = world.dcs[position]
    name, bit = dc_decide_context(dc)
    if trace is not None:
        trace.emit(f"{world.tick},migrate,{dc.dc_id},{name};{bit}\r\n")
    _deliver_contexts(world, config, dc, bit, trace)
    old_id = dc.dc_id
    t_min, t_max = config.threshold_range
    dc.dc_id = world.next_dc_id
    dc.migration_threshold = world.rng.uniform(t_min, t_max)
    dc.cum_csm = dc.cum_semi = dc.cum_mat = 0.0
    dc.sampled = []
    world.next_dc_id += 1
    if trace is not None:
        trace.emit(f"{world.tick},replace,{old_id};{dc.dc_id},{dc.migration_threshold!r}\r\n")


def step(world: World, config: SimConfig, trace: TraceLog | None = None) -> World:
    """Execute one logical tick.

    Order within the tick: spawn the head record (if any), deliver its k
    picks in pick order with a migration check after each delivery,
    migrating DCs vote immediately and are replaced at the same list
    position, and any antigen reaching k contexts is finalized on the spot.
    The DC population size is invariant across the tick. The picks are
    list positions drawn without touching the other N - k DCs, so a tick
    costs O(k) plus the migrations it triggers.
    """
    if world.pending:
        record = world.pending.popleft()
        k = config.dcs_per_antigen
        ag = AntigenAgent(
            antigen_id=record.antigen_id,
            true_label=record.true_label,
            expected_contexts=k,
        )
        world.antigens_in_flight[ag.antigen_id] = ag
        if trace is not None:
            trace.emit(f"{world.tick},spawn,{ag.antigen_id},{ag.true_label.value}\r\n")

        # The output triple depends only on the record and the config, so
        # it is computed once and added to each of the k picked DCs.
        out = process_signals(
            derive_input_signals(record.attributes, config.signal_mapping),
            config.weight_matrix,
        )
        dcs = world.dcs
        for position in sample_dcs(range(len(dcs)), k, world.rng):
            dc = dcs[position]
            dc_handle_picked(dc, ag.antigen_id, out)
            if trace is not None:
                trace.emit(f"{world.tick},pick,{ag.antigen_id};{dc.dc_id},\r\n")
            if dc_should_migrate(dc):
                _migrate(world, config, position, trace)
    world.tick += 1
    return world


def flush(world: World, config: SimConfig, trace: TraceLog | None = None) -> World:
    """Force every sample-holding DC to vote on its current cumulative values.

    Sample-free DCs are discarded silently; afterwards no antigen may
    remain in flight and population accounting ends.
    """
    if world.pending:
        raise EngineFaultError("flush called with records still pending")
    for dc in world.dcs:
        if dc.sampled:
            name, bit = dc_decide_context(dc)
            if trace is not None:
                trace.emit(f"{world.tick},flush_migrate,{dc.dc_id},{name};{bit}\r\n")
            _deliver_contexts(world, config, dc, bit, trace)
        elif trace is not None:
            trace.emit(f"{world.tick},discard,{dc.dc_id},\r\n")
    world.dcs.clear()
    if world.antigens_in_flight:
        raise UnflushableError(
            f"{len(world.antigens_in_flight)} antigens still lack contexts after flush"
        )
    return world


def _check_mapping_fits(config: SimConfig, records: Sequence[AntigenRecord]) -> None:
    mapping = config.signal_mapping
    max_index = max(
        max(mapping.pamp_sources), max(mapping.danger_sources), max(mapping.safe_sources)
    )
    shortest = min(len(r.attributes) for r in records)
    if max_index >= shortest:
        raise InvalidConfigError(
            f"signal mapping references attribute index {max_index} but a record "
            f"has only {shortest} attributes"
        )


def run(
    config: SimConfig,
    records: Sequence[AntigenRecord],
    trace: TraceLog | None = None,
) -> RunReport:
    """Run the full simulation: init, one tick per record, flush, analyse.

    A deterministic function of (config, records): identical inputs give
    identical reports, including every rng-dependent field.
    """
    if not records:
        raise EmptyDatasetError("cannot run on zero records")
    _check_mapping_fits(config, records)
    world = init_world(config, records)
    while world.pending:
        step(world, config, trace)
    flush(world, config, trace)

    confusion, metrics = compute_metrics(world.results)
    histogram = build_histogram([r.mcav for r in world.results], config.histogram_bins)
    return RunReport(
        results=world.results,
        confusion=confusion,
        metrics=metrics,
        histogram=histogram,
        config_echo=config,
        seed=config.seed,
    )
