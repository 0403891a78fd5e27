"""Metamorphic relations at the CLI: how a run's files move when the dataset is rewritten.

Each test draws rows of the synthetic WBC-like file and a seed, runs
``dca-lab run --trace`` on the rows and on a rewrite of them, and checks
how the four output files relate. Neither side is checked against a
reference: the two runs check each other.

- Label flip: swapping class codes 2 and 4 changes nothing the engine
  computes. The ``mcav`` and ``predicted`` columns and ``histogram.csv``
  stay as they are; the ``actual`` column, the two label counts, tp with
  fp, tn with fn, the two rates and the two class means swap.
- Sample ids: no output names a row's sample id, so rewriting every one
  leaves all four files byte-identical.
"""

import contextlib
import io
import json
from itertools import zip_longest

import pytest
from hypothesis import given, settings, strategies as st

from conftest import write_wbc_like_file
from dca_lab.cli import main

OUTPUTS = ("results.csv", "report.json", "histogram.csv", "trace.csv")
SWAP_LABEL = {"normal": "anomalous", "anomalous": "normal"}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    # Module-scoped: hypothesis rejects a function-scoped tmp_path under @given.
    path = tmp_path_factory.mktemp("metamorphic")
    write_wbc_like_file(path / "wbc.data")
    return path


def rows_and_seed():
    """Up to 120 of the 699 WBC-like rows, in any order and with repeats, and a seed."""
    return st.tuples(st.lists(st.integers(0, 698), min_size=1, max_size=120), st.integers(0, 2**64 - 1))


def run_outputs(work, name, rows, seed):
    """The exit code and the four output files of a traced run on ``rows``."""
    data = work / f"{name}.data"
    data.write_text("".join(row + "\n" for row in rows))
    out = work / name
    with contextlib.redirect_stderr(io.StringIO()):
        code = main(["run", "--data", str(data), "--seed", str(seed), "--out", str(out), "--trace"])
    return code, {f: (out / f).read_bytes() if code == 0 else None for f in OUTPUTS}


def wbc_rows(work, picks):
    lines = (work / "wbc.data").read_text().splitlines()
    return [lines[i] for i in picks]


def first_difference(a: list, b: list) -> int | None:
    """The first index at which the lists differ, or None: a cheap failure message for long lists."""
    return next((i for i, (x, y) in enumerate(zip_longest(a, b)) if x != y), None)


def csv_rows(text: bytes, line_end: str = "\n") -> list[list[str]]:
    return [line.split(",") for line in text.decode().split(line_end)[1:-1]]


@settings(max_examples=100, deadline=None)
@given(rows_and_seed())
def test_label_flip_swaps_the_labels_and_nothing_the_engine_computes(work, case):
    picks, seed = case
    rows = wbc_rows(work, picks)
    flipped = [row[:-1] + {"2": "4", "4": "2"}[row[-1]] for row in rows]
    code, plain = run_outputs(work, "plain", rows, seed)
    flip_code, flip = run_outputs(work, "flip", flipped, seed)
    assert code == flip_code
    if code != 0:  # every drawn row misses a value and is skipped
        return

    assert flip["histogram.csv"] == plain["histogram.csv"]
    results, flip_results = csv_rows(plain["results.csv"]), csv_rows(flip["results.csv"])
    assert [r[:3] for r in flip_results] == [r[:3] for r in results]
    assert [r[3] for r in flip_results] == [SWAP_LABEL[r[3]] for r in results]

    report, flip_report = json.loads(plain["report.json"]), json.loads(flip["report.json"])
    assert flip_report["config"] == report["config"]
    summary = report["dataset_summary"]
    labels = summary["label_counts"]
    assert flip_report["dataset_summary"] == {
        **summary, "label_counts": {"normal": labels["anomalous"], "anomalous": labels["normal"]},
    }
    c = report["confusion"]
    assert flip_report["confusion"] == {"tp": c["fp"], "tn": c["fn"], "fp": c["tp"], "fn": c["tn"]}
    m, flip_m = report["metrics"], flip_report["metrics"]
    assert (flip_m["true_positive_rate"], flip_m["false_positive_rate"]) == (m["false_positive_rate"], m["true_positive_rate"])
    assert (flip_m["mean_mcav_normal"], flip_m["mean_mcav_anomalous"]) == (m["mean_mcav_anomalous"], m["mean_mcav_normal"])

    # The trace names a label only in each spawn row's values field.
    trace, flip_trace = csv_rows(plain["trace.csv"], "\r\n"), csv_rows(flip["trace.csv"], "\r\n")
    expected = [r[:3] + [SWAP_LABEL[r[3]]] if r[1] == "spawn" else r for r in trace]
    assert first_difference(flip_trace, expected) is None


@settings(max_examples=100, deadline=None)
@given(rows_and_seed(), st.data())
def test_sample_ids_leave_every_file_byte_identical(work, case, data):
    picks, seed = case
    rows = wbc_rows(work, picks)
    new_ids = data.draw(st.lists(st.text("0123456789", min_size=1, max_size=15), min_size=len(rows), max_size=len(rows)))
    renamed = [new_id + row[row.index(","):] for new_id, row in zip(new_ids, rows)]
    code, plain = run_outputs(work, "plain", rows, seed)
    renamed_code, renamed = run_outputs(work, "renamed", renamed, seed)
    # File names, not bytes: pytest would take minutes to diff two traces.
    assert (renamed_code, [f for f in OUTPUTS if renamed[f] != plain[f]]) == (code, [])
