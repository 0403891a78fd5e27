"""trace.csv is plain CSV: every event kind, no quoting, CRLF line ends.

The engine formats every trace row itself, so nothing but this file checks
that the rows still read back as the CSV that ``csv.writer`` writes.
``tests/golden.json`` pins the bytes of this run's trace.csv (the corpus
``default`` scenario).

The engine keeps each antigen's and DC's id text between rows; the tests
at the end check that no row names a stale id or an untraced antigen's
missing text, and that tracing changes no result.
"""

import csv
import io
import random

import pytest
from hypothesis import example, given, strategies as st

from conftest import make_records, write_wbc_like_file
from dca_lab.cli import EXIT_OK, main
from dca_lab.engine import SimConfig, TraceLog, flush, init_world, run, step
from dca_lab.signal_model import SignalMapping

EVENT_KINDS = {
    "spawn",
    "pick",
    "migrate",
    "context",
    "replace",
    "finalize",
    "flush_migrate",
    "discard",
}


@pytest.fixture(scope="module")
def trace_bytes(tmp_path_factory) -> bytes:
    work = tmp_path_factory.mktemp("trace")
    data, out = work / "wbc.csv", work / "out"
    write_wbc_like_file(data, seed=7)
    assert main(["run", "--data", str(data), "--seed", "11", "--out", str(out), "--trace"]) == EXIT_OK
    return (out / "trace.csv").read_bytes()


def test_every_event_kind_is_written(trace_bytes):
    rows = trace_bytes.decode("utf-8").splitlines()
    assert rows[0] == "tick,event_kind,ids,values"
    assert {row.split(",")[1] for row in rows[1:]} == EVENT_KINDS


def test_default_csv_writer_rewrites_the_same_bytes(trace_bytes):
    # No field needs quoting, every row has four fields and ends in \r\n.
    rows = list(csv.reader(io.StringIO(trace_bytes.decode("utf-8"), newline="")))
    assert {len(row) for row in rows} == {4}
    rewritten = io.StringIO(newline="")
    csv.writer(rewritten).writerows(rows)
    assert rewritten.getvalue().encode("utf-8") == trace_bytes


def trace_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text, newline="")))[1:]


def test_rows_of_a_partly_traced_world_name_the_right_ids():
    # Five DCs and three picks a tick: DCs migrate in every block of six
    # ticks, so some take a new id untraced and are picked again traced,
    # and antigens spawned untraced get bits in a traced tick.
    config = SimConfig(population_size=5, dcs_per_antigen=3, threshold_range=(150.0, 400.0),
                       signal_mapping=SignalMapping((0, 1), (2,), (1, 2)), seed=3)
    records = make_records(random.Random(8), 60, 3)
    whole = io.StringIO(newline="")
    run(config, records, TraceLog(whole))

    partial = io.StringIO(newline="")
    trace = TraceLog(partial)
    world = init_world(config, records)
    traced_ticks = {tick for tick in range(len(records)) if tick // 6 % 2}
    for tick in range(len(records)):
        step(world, config, trace if tick in traced_ticks else None)
    flush(world, config, trace)

    all_rows = trace_rows(whole.getvalue())
    rows = trace_rows(partial.getvalue())
    assert rows == [row for row in all_rows if int(row[0]) in traced_ticks | {len(records)}]
    assert {"pick", "context", "replace", "finalize", "flush_migrate"} <= {row[1] for row in rows}
    # The cases a per-object text cache can get wrong all occur: an antigen
    # spawned untraced and finalized traced, and a DC named in a traced row
    # whose id then changed untraced and which is named again traced.
    spawned_traced = {row[2] for row in rows if row[1] == "spawn"}
    assert any(row[2] not in spawned_traced for row in rows if row[1] == "finalize")
    named_traced = {row[2].split(";")[1] for row in rows if row[1] in ("pick", "replace")}
    replaced_untraced = [row[2].split(";") for row in all_rows
                         if row[1] == "replace" and int(row[0]) not in traced_ticks]
    assert any(old in named_traced and new in named_traced for old, new in replaced_untraced)


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
       st.integers(1, 30), st.integers(0, 2**64 - 1))
@example(population_and_k=(1, 1), n_records=5, seed=0)
@example(population_and_k=(4, 4), n_records=9, seed=1)
def test_traced_run_matches_untraced_and_finalizes_each_antigen(population_and_k, n_records, seed):
    population, k = population_and_k
    config = SimConfig(population_size=population, dcs_per_antigen=k,
                       signal_mapping=SignalMapping((0,), (1,), (0, 1)), seed=seed)
    records = make_records(random.Random(seed), n_records, 2)
    stream = io.StringIO(newline="")
    traced = run(config, records, TraceLog(stream))
    assert traced.results == run(config, records).results
    finalized = sorted(row[2:] for row in trace_rows(stream.getvalue()) if row[1] == "finalize")
    assert finalized == sorted(
        [str(r.antigen_id), f"{r.mcav!r};{r.predicted.value}"] for r in traced.results
    )
