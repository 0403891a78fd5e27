"""Mutation gate: every listed mutant of the package must make its named tests fail.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py

Each entry in ``MUTANTS`` is (file under ``src/dca_lab``, exact snippet,
replacement, test ids). The script copies ``src/`` to a temporary
directory and first runs all named tests on the unmutated copy, which
must pass. Then, one mutant at a time, it replaces the snippet in the
copy, runs only that mutant's tests against it in one subprocess, with
hypothesis derandomized, and restores the file. It exits 1 if a snippet
does not occur exactly once in its file (so a refactor has to carry its
mutants forward), if a mutant survives, or if pytest ends in anything but
a pass or a test failure (a renamed test, a collection error). Pytest
does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = [
    Mutant("schema.py", "    if isinstance(value, bool) or kind is bool:\n", "    if kind is bool:\n",
           ("tests/test_engine.py::TestSimConfig::test_python_values_of_the_wrong_kind_are_rejected",)),
    Mutant("schema.py", "if not f.lo <= v <= f.hi:", "if not f.lo <= v < f.hi:",
           ("tests/test_cli.py::TestConfigCodec::test_each_bound_itself_is_accepted",)),
    Mutant("schema.py", "if not f.lo <= v <= f.hi:", "if not f.lo < v <= f.hi:",
           ("tests/test_engine.py::TestSimConfig::test_defaults_are_valid",)),
    Mutant("signal_model.py", "            if csm < 0.0:\n", "            if False:\n",
           ("tests/test_signal_model.py::TestWeightMatrix::test_negative_csm_column_rejected",)),
    Mutant("signal_model.py", "            if min(sources) < 0:\n", "            if False:\n",
           ("tests/test_signal_model.py::TestDeriveInputSignals::test_negative_index_rejected",)),
    Mutant("cli.py", "    if issubclass(f.kind, Enum) and value in [m.value for m in f.kind]:\n", "    if False:\n",
           ("tests/test_cli.py::TestConfigCodec::test_round_trip_defaults",)),
    Mutant("cli.py", "raise InvalidConfigError(prefix + str(exc)) from None", "raise",
           ("tests/test_schema.py::test_python_and_json_reject_with_one_message",)),
    Mutant("agents.py", "    bits = n.bit_length()\n", "    bits = (n - 1).bit_length()\n",
           ("tests/test_agents.py::TestOwnedDraws::test_below_matches_randrange",)),
    Mutant("engine.py", "t_min + (t_max - t_min) * world.rng.random()", "t_max - (t_max - t_min) * world.rng.random()",
           ("tests/test_engine.py::TestRun::test_matches_reference_loop_on_twenty_records",)),
]


def run_tests(src: Path, tests: tuple[str, ...]) -> int:
    """Pytest's exit code for ``tests`` run against the package in ``src``."""
    # CI selects the derandomized hypothesis profile; no bytecode, so no stale .pyc of a mutant.
    env = dict(os.environ, PYTHONPATH=str(src), CI="1", PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, timeout=600).returncode


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory(prefix="dca-mutants-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        every_test = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        if run_tests(src, every_test) != 0:
            print("the named tests do not pass on the unmutated code")
            return 1
        for i, m in enumerate(MUTANTS, start=1):
            path = src / "dca_lab" / m.file
            original = path.read_text(encoding="utf-8")
            label = f"mutant {i} ({m.file}: {m.snippet.strip()!r} -> {m.replacement.strip()!r})"
            if original.count(m.snippet) != 1:
                failures.append(f"{label}: the snippet does not occur exactly once")
                continue
            path.write_text(original.replace(m.snippet, m.replacement), encoding="utf-8")
            try:
                code = run_tests(src, m.tests)
            finally:
                path.write_text(original, encoding="utf-8")
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"pytest exit {code}")
            print(f"{label}: {verdict}", flush=True)
            if code != 1:
                failures.append(f"{label}: {verdict}")
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"{len(MUTANTS) - len(failures)} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
