"""The layer benchmark's hooks still see every layer of a run.

``benchmarks/layers.py`` times a run by wrapping module-level names of
``dca_lab`` and drops the metrics of any name the engine stops calling.
This runs ``dca_lab.cli.main`` in-process under ``layers.TracedRun`` the
way ``benchmarks/bench.py --trace 1`` does, and checks that every
per-layer metric of ``BENCHMARK.json`` is still produced, with the call
counts that one call per tick, pick, bit, antigen or trace row gives.
Nothing under ``benchmarks/`` is modified.
"""

import importlib
import json
import math
import sys

import pytest

from conftest import REPO_ROOT

BENCH_DIR = REPO_ROOT / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))

from bench import WORKLOADS, config_document, expected_results  # noqa: E402
from gen import wbc_lines  # noqa: E402
from layers import MODULES, TracedRun  # noqa: E402

ROWS = 300
SEED = 5


def per_layer_names() -> set[str]:
    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"] for m in declared["per_layer"]} - {"trace_overhead_frac"}


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    work = tmp_path_factory.mktemp("bench-hooks")
    lines = wbc_lines(ROWS, 0.02, SEED)
    document = config_document(WORKLOADS["steady-n100"], SEED)
    data, config = work / "data.csv", work / "config.json"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config.write_text(json.dumps(document), encoding="utf-8")
    return work, data, config, document, expected_results(lines, document)


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "trace"])
def test_traced_run_reports_every_layer(workload, trace, capsys):
    work, data, config, document, expected = workload
    package = {name: importlib.import_module(f"dca_lab.{name}") for name in MODULES}
    out = work / f"out-{trace}"
    argv = ["run", "--data", str(data), "--config", str(config), "--out", str(out)]
    with TracedRun(package) as run:
        code = package["cli"].main(argv + (["--trace"] if trace else []))

    assert code == 0
    assert capsys.readouterr().out == ""
    metrics = run.metrics(out)
    assert set(metrics) == per_layer_names()
    assert all(math.isfinite(value) for value, _ in metrics.values())
    assert run.mcavs == expected.mcavs

    # One call per record, per pick, per bit and per trace row.
    records = len(expected.mcavs)
    k = document["dcs_per_antigen"]
    spans = run.spans
    assert metrics["data_ingest.rows"][0] == ROWS
    assert spans["engine.step"]["calls"] == records
    assert metrics["signal_model.derive_calls"][0] == records
    assert metrics["agents.sample_dcs_calls"][0] == records
    assert spans["agents.dc_handle_picked"]["calls"] == k * records
    assert metrics["agents.contexts"][0] == k * records
    assert spans["engine.flush"]["calls"] == 1
    assert 0 < metrics["engine.migrations"][0] < k * records
    if trace:
        rows = (out / "trace.csv").read_text(encoding="utf-8").splitlines()[1:]
        kinds = [row.split(",", 2)[1] for row in rows]
        assert metrics["engine.trace_emit_calls"][0] == len(rows)
        assert metrics["engine.migrations"][0] == kinds.count("migrate") == kinds.count("replace")
        assert metrics["engine.flush_votes"][0] == kinds.count("context") - _natural_contexts(rows)
    else:
        assert metrics["engine.trace_emit_calls"][0] == 0
        assert metrics["cli.trace_bytes"][0] == 0


def _natural_contexts(rows: list[str]) -> int:
    """Context rows written before the first flush event."""
    count = 0
    for row in rows:
        kind = row.split(",", 2)[1]
        if kind in ("flush_migrate", "discard"):
            break
        count += kind == "context"
    return count
