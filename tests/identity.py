"""Byte identity: the output files of fixed runs against the sha256 hashes in ``tests/golden.json``.

Standard library only, so it runs under any Python the package supports,
with or without pytest:

    python tests/identity.py            # check; exits 1 on a mismatch
    python tests/identity.py --update   # rewrite tests/golden.json

Every run goes through ``dca_lab.cli.main`` in-process, with ``--trace``,
and ``results.csv``, ``report.json``, ``histogram.csv`` and ``trace.csv``
are hashed. Two sets of runs are checked:

* ``corpus``: the seven configs in ``SCENARIOS`` on
  ``write_wbc_like_file(seed=7)``, 28 files; ``tests/test_golden.py``
  checks the same files in tier-1;
* ``workloads``: the four ``benchmarks/bench.py`` workloads at seed 1, on
  the rows and the full config the benchmark generates, 16 files.

A change that moves output bytes on purpose runs ``--update`` and gives
the old and new hash of each moved file, and why, in CHANGES.md. Pytest
does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
MANIFEST = TESTS / "golden.json"
OUTPUTS = ("results.csv", "report.json", "histogram.csv", "trace.csv")

#: The corpus: config documents (defaults fill the rest) for runs on
#: ``write_wbc_like_file(seed=7)``. They cover the default regime under
#: each missing-value policy, a population much larger than the stream,
#: every DC picked each tick under imputation, a single DC, thresholds no
#: DC reaches (every vote comes from the flush) and a mapping whose three
#: lists differ.
SCENARIOS = {
    "default": {"seed": 11},
    "impute_median": {"attribute_policy": {"missing_value_policy": "impute_median"}, "seed": 11},
    "n1000": {"population_size": 1000, "seed": 11},
    "k_equals_n_impute": {
        "population_size": 7,
        "dcs_per_antigen": 7,
        "attribute_policy": {"missing_value_policy": "impute_median"},
        "seed": 11,
    },
    "n1": {"population_size": 1, "dcs_per_antigen": 1, "seed": 11},
    "unreachable_thresholds": {"threshold_range": [1e12, 2e12], "seed": 11},
    "custom_weights_mapping": {
        "weight_matrix": {"pamp": [1.5, 0.25, 2.5], "danger": [0.5, -1.0, 1.0], "safe": [3.0, 2.0, -1.5]},
        "signal_mapping": {
            "pamp_sources": [0, 2, 4],
            "danger_sources": [1, 3, 5, 7, 7],
            "safe_sources": [8, 6],
            "safe_is_complement": False,
        },
        "seed": 2**64 - 1,
    },
}


def run_hashes(data: Path, config: dict, work: Path) -> dict[str, str]:
    """sha256 of each output of a traced ``dca-lab run`` of ``config`` on ``data``."""
    from dca_lab.cli import EXIT_OK, main

    work.mkdir(parents=True)
    config_path, out = work / "config.json", work / "out"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    code = main(["run", "--data", str(data), "--config", str(config_path), "--out", str(out), "--trace"])
    if code != EXIT_OK:
        return {name: f"exit code {code}" for name in OUTPUTS}
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in OUTPUTS}


def corpus_hashes(work: Path) -> dict[str, dict[str, str]]:
    from wbc_like import write_wbc_like_file

    work.mkdir(parents=True, exist_ok=True)
    data = work / "wbc.csv"
    write_wbc_like_file(data, seed=7)
    return {name: run_hashes(data, config, work / name) for name, config in SCENARIOS.items()}


def workload_hashes(work: Path) -> dict[str, dict[str, str]]:
    from bench import WORKLOADS, config_document
    from gen import wbc_lines

    hashes = {}
    for name, w in WORKLOADS.items():
        data = work / f"{name}.csv"
        data.write_text("\n".join(wbc_lines(w.rows, w.missing_rate, 1)) + "\n", encoding="utf-8")
        hashes[name] = run_hashes(data, config_document(w, 1), work / name)
    return hashes


def mismatches(expected: dict, actual: dict) -> list[str]:
    """One line per file whose hash differs or that only one side has."""
    lines = []
    for group in sorted(expected.keys() | actual.keys()):
        want, got = expected.get(group, {}), actual.get(group, {})
        for run in sorted(want.keys() | got.keys()):
            for name in OUTPUTS:
                old, new = want.get(run, {}).get(name), got.get(run, {}).get(name)
                if old != new:
                    lines.append(f"{group}/{run}/{name}: expected {old}, got {new}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--update", action="store_true", help=f"rewrite {MANIFEST.name} from this run")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(TESTS), str(ROOT / "benchmarks")]
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="dca-identity-") as tmp:
        work = Path(tmp)
        actual = {"corpus": corpus_hashes(work / "corpus"), "workloads": workload_hashes(work)}
    where = f"Python {platform.python_version()}, {time.monotonic() - started:.1f} s"
    files = sum(len(run) for group in actual.values() for run in group.values())
    if args.update:
        MANIFEST.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {files} hashes to {MANIFEST} ({where})")
        return 0
    problems = mismatches(json.loads(MANIFEST.read_text(encoding="utf-8")), actual)
    for line in problems:
        print(f"MISMATCH {line}")
    print(f"{files - len(problems)} of {files} files identical ({where})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
