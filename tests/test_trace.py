"""trace.csv is plain CSV: every event kind, no quoting, CRLF line ends.

The engine formats every trace row itself, so nothing but this file checks
that the rows still read back as the CSV that ``csv.writer`` writes.
``tests/golden.json`` pins the bytes of this run's trace.csv (the corpus
``default`` scenario).
"""

import csv
import io

import pytest

from conftest import write_wbc_like_file
from dca_lab.cli import EXIT_OK, main

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
