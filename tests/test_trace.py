"""trace.csv is plain CSV: every event kind, no quoting, CRLF line ends.

The engine formats every trace row itself, so nothing but this file checks
that the rows still read back as the CSV that ``csv.writer`` writes.
``tests/golden.json`` pins the bytes of this run's trace.csv (the corpus
``default`` scenario).

The engine keeps each antigen's and DC's id text between rows, made
when the agent gets its id; the test at the end checks that a traced run
gives the untraced run's results and one ``finalize`` row per antigen,
naming its id.
"""

import csv
import io
import random

import pytest
from hypothesis import example, given, strategies as st

from conftest import make_records, write_wbc_like_file
from dca_lab.cli import EXIT_OK, main
from dca_lab.engine import SimConfig, TraceLog, run
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
