"""dca-lab benchmark: `dca-lab run` end to end, and per-layer spans in a traced run.

Run from the repository root:

    python3 benchmarks/bench.py --workload steady-n100 --seed 1 --seconds 30 --trace 0
    python3 benchmarks/bench.py --workload all

Each workload is a WBC-format file generated from ``--seed`` plus a full
config JSON; the program receives only those two files. The expected MCAVs
come from the independent reference loop in ``tests/oracle.py``, computed
once before timing starts.

``--trace 0`` runs the real CLI (``python -m dca_lab.cli run``, with
``PYTHONPATH=src``) as a child process, one at a time, alternating with a
set-up probe, until ``--seconds`` have passed, and reports:

* ``records_per_s``: records classified per second of child CPU time
  (user + system, from ``os.wait4``), summed over the repetitions.
* ``setup_s``: median CPU time of a fresh interpreter that imports
  dca_lab, loads the config, runs ``load_dataset`` and ``init_world``, and
  exits.
* ``peak_rss_mb``: median of the child's ``ru_maxrss``, in MiB.

Times are CPU time, not wall time, because the program is single-threaded
and CPU-bound, so on an idle machine the two agree, while on a shared
virtual machine wall time also counts the time the hypervisor gives other
guests (the ``steal`` column of ``/proc/stat``, up to a quarter of a core
in measurement). Wall times are kept in the samples. Throughput sums
over the repetitions rather than taking the median one: the host's speed
switches between modes that last seconds, and a median jumps between them.

A run fails on a nonzero exit, a missing output file, a ``results.csv``
row that differs from the oracle's, or an output file whose hash differs
from the first repetition's. ``failed`` over ``attempted`` is the failed
fraction; it is printed, and it is 0 on a correct program.

``--trace 1`` runs ``dca_lab.cli.main`` in-process, alternating plain runs
with runs hooked by ``layers.TracedRun``, and reports the per-layer
metrics (medians over the traced runs) and ``trace_overhead_frac``, the
traced over the plain median CPU time, minus 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A JSON record with
the run environment, the samples and the last traced run's span table
(calls, total and self time per span name) goes to
``benchmarks/results/``; every program output goes to a temporary
directory under ``benchmarks/_work/`` that is removed at exit.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from gen import wbc_lines
from layers import DETERMINISTIC, MODULES, TracedRun

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
ORACLE = ROOT / "tests" / "oracle.py"
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / "_work"

MIN_REPS = 3
CHILD_TIMEOUT_S = 120
OUTPUTS = ("results.csv", "report.json", "histogram.csv")


@dataclass(frozen=True)
class Workload:
    why: str
    rows: int
    missing_rate: float
    population_size: int = 100
    dcs_per_antigen: int = 10
    missing_value_policy: str = "skip_record"
    trace: bool = False


# Population size, k and stream length decide how much work a tick does, so
# each workload loads a different layer; each is sized to a few seconds.
WORKLOADS = {
    "steady-n100": Workload(
        why="paper default N=100 k=10: signal derivation, picks, migration and delivery do the work",
        rows=10_000,
        missing_rate=0.02,
    ),
    "wide-n10k": Workload(
        why="N=10000 k=10: the per-tick O(N) id-list and position-dict rebuild dominates",
        rows=1_000,
        missing_rate=0.02,
        population_size=10_000,
    ),
    "trace-n100": Workload(
        why="default config with --trace: the per-event trace.csv write stream",
        rows=5_000,
        missing_rate=0.02,
        trace=True,
    ),
    "bulk-impute": Workload(
        why="many records, N=10 k=1, impute_median: ingest, analysis and results.csv weigh most",
        rows=25_000,
        missing_rate=0.05,
        population_size=10,
        dcs_per_antigen=1,
        missing_value_policy="impute_median",
    ),
}

SETUP_CODE = """
import sys
from pathlib import Path
from dca_lab.cli import load_config
from dca_lab.data_ingest import load_dataset
from dca_lab.engine import init_world
config = load_config(Path(sys.argv[1]))
with open(sys.argv[2], "rb") as handle:
    records, _ = load_dataset(handle, config.attribute_policy)
init_world(config, records)
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def config_document(w: Workload, seed: int) -> dict:
    """Every config field spelled out, so the program's defaults do not matter."""
    everything = list(range(9))
    return {
        "population_size": w.population_size,
        "dcs_per_antigen": w.dcs_per_antigen,
        "threshold_range": [100.0, 300.0],
        "weight_matrix": {
            "pamp": [2.0, 0.0, 2.0],
            "danger": [1.0, 0.0, 1.0],
            "safe": [2.0, 3.0, -3.0],
        },
        "signal_mapping": {
            "pamp_sources": everything,
            "danger_sources": everything,
            "safe_sources": everything,
            "safe_is_complement": True,
        },
        "anomalous_threshold": 0.5,
        "histogram_bins": 10,
        "attribute_policy": {
            "missing_value_policy": w.missing_value_policy,
            "lo": 1.0,
            "hi": 10.0,
        },
        "seed": seed,
    }


@dataclass
class Expected:
    rows: list[str]  # results.csv data rows, sorted
    mcavs: dict[int, float]


def load_oracle():
    spec = importlib.util.spec_from_file_location("dca_oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def expected_results(lines: list[str], config: dict) -> Expected:
    """Ingest ``lines`` independently of dca_lab and replay them through the oracle."""
    policy = config["attribute_policy"]
    fields = [line.split(",") for line in lines]
    table = [([None if t == "?" else int(t) for t in f[1:10]], int(f[10])) for f in fields]
    if policy["missing_value_policy"] == "impute_median":
        medians = [
            statistics.median_low([a[c] for a, _ in table if a[c] is not None])
            for c in range(9)
        ]
        kept = [([medians[c] if v is None else v for c, v in enumerate(a)], code) for a, code in table]
    else:
        kept = [(a, code) for a, code in table if None not in a]
    lo, hi = policy["lo"], policy["hi"]
    records = [(aid, tuple((v - lo) / (hi - lo) for v in a)) for aid, (a, _) in enumerate(kept)]
    wm, sm = config["weight_matrix"], config["signal_mapping"]
    mcavs = load_oracle().run_reference_dca(
        records,
        population_size=config["population_size"],
        dcs_per_antigen=config["dcs_per_antigen"],
        threshold_range=tuple(config["threshold_range"]),
        weight_matrix=(tuple(wm["pamp"]), tuple(wm["danger"]), tuple(wm["safe"])),
        signal_mapping=(
            tuple(sm["pamp_sources"]),
            tuple(sm["danger_sources"]),
            tuple(sm["safe_sources"]),
            sm["safe_is_complement"],
        ),
        seed=config["seed"],
    )
    rows = []
    for aid, (_, code) in enumerate(kept):
        mcav = mcavs[aid]
        predicted = "anomalous" if mcav > config["anomalous_threshold"] else "normal"
        actual = "anomalous" if code == 4 else "normal"
        rows.append(f"{aid},{mcav:.6f},{predicted},{actual}")
    return Expected(rows=sorted(rows), mcavs=mcavs)


class OutputCheck:
    """Checks each repetition's output directory against the oracle and the first one."""

    def __init__(self, expected: Expected, traced: bool) -> None:
        self._expected = expected
        self._files = OUTPUTS + (("trace.csv",) if traced else ())
        self._hashes: dict[str, str] | None = None

    def problem(self, out_dir: Path) -> str | None:
        """None if the outputs are right, else what is wrong."""
        missing = [name for name in self._files if not (out_dir / name).is_file()]
        if missing:
            return f"missing output files: {', '.join(missing)}"
        lines = (out_dir / "results.csv").read_text(encoding="utf-8").splitlines()
        if lines[:1] != ["antigen_id,mcav,predicted,actual"] or sorted(lines[1:]) != self._expected.rows:
            return "results.csv differs from the oracle"
        hashes = {name: _sha256(out_dir / name) for name in self._files}
        if self._hashes is None:
            self._hashes = hashes
        changed = [name for name in self._files if hashes[name] != self._hashes[name]]
        if changed:
            return f"outputs differ from the first repetition: {', '.join(changed)}"
        return None


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class ChildRun(NamedTuple):
    wall_s: float
    cpu_s: float  # user + system
    maxrss_kib: int
    code: int


def run_child(cmd: list[str], env: dict, stderr_path: Path) -> ChildRun:
    """Run ``cmd`` to completion and return its times, peak RSS and exit code."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(elapsed, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode)


def _stderr_tail(path: Path) -> str:
    text = path.read_text(encoding="utf-8", errors="replace").strip()
    return text.splitlines()[-1] if text else ""


def measure_cli(w: Workload, data: Path, config: Path, check: OutputCheck,
                records: int, seconds: float, work: Path) -> tuple[dict, dict]:
    """Time CLI runs and set-up probes, alternating, until ``seconds`` have passed."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    setup_cmd = [sys.executable, "-c", SETUP_CODE, str(config), str(data)]
    err = work / "stderr.txt"
    # Untimed: compiles the package's bytecode, which users pay for once, not per run.
    if run_child([sys.executable, "-c", "import dca_lab.cli"], env, err).code != 0:
        raise BenchError(f"cannot import dca_lab: {_stderr_tail(err)}")

    samples: dict[str, list[float]] = {
        "setup_cpu_s": [], "setup_wall_s": [], "run_cpu_s": [], "run_wall_s": [], "peak_rss_mb": []
    }
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    pair_s = 0.0
    while _keep_going(attempted, MIN_REPS, deadline, pair_s):
        pair_start = time.perf_counter()
        setup = run_child(setup_cmd, env, err)
        if setup.code != 0:
            raise BenchError(f"set-up probe failed: {_stderr_tail(err)}")
        samples["setup_cpu_s"].append(setup.cpu_s)
        samples["setup_wall_s"].append(setup.wall_s)

        out = work / f"out-{attempted}"
        cmd = [sys.executable, "-m", "dca_lab.cli", "run", "--data", str(data),
               "--config", str(config), "--out", str(out)] + (["--trace"] if w.trace else [])
        attempted += 1
        child = run_child(cmd, env, err)
        pair_s = time.perf_counter() - pair_start
        problem = f"exit code {child.code}: {_stderr_tail(err)}" if child.code else check.problem(out)
        shutil.rmtree(out, ignore_errors=True)
        if problem:
            failed += 1
            print(f"run {attempted} failed: {problem}", file=sys.stderr)
            continue
        samples["run_cpu_s"].append(child.cpu_s)
        samples["run_wall_s"].append(child.wall_s)
        samples["peak_rss_mb"].append(child.maxrss_kib / 1024)

    if not samples["run_cpu_s"]:
        return _result(attempted, failed, {}), samples
    metrics = {
        "records_per_s": (records * len(samples["run_cpu_s"]) / sum(samples["run_cpu_s"]), "1/s"),
        "setup_s": (statistics.median(samples["setup_cpu_s"]), "s"),
        "peak_rss_mb": (statistics.median(samples["peak_rss_mb"]), "MiB"),
    }
    return _result(attempted, failed, metrics), samples


def _keep_going(done: int, minimum: int, deadline: float, last_s: float) -> bool:
    """Run ``minimum`` repetitions, then only those that should end by ``deadline``."""
    return done < minimum or time.perf_counter() + last_s < deadline


def import_package() -> dict:
    sys.path.insert(0, str(SRC))
    try:
        return {name: importlib.import_module(f"dca_lab.{name}") for name in MODULES}
    except ImportError as exc:
        raise BenchError(f"cannot import dca_lab from {SRC}: {exc}") from exc


def measure_layers(w: Workload, data: Path, config: Path, check: OutputCheck,
                   expected: Expected, seconds: float, work: Path) -> tuple[dict, dict]:
    """Alternate plain and traced in-process runs until ``seconds`` have passed."""
    package = import_package()
    cli = package["cli"]
    cpu: dict[str, list[float]] = {"plain": [], "traced": []}
    layer_samples: list[dict[str, tuple[float, str]]] = []
    spans: dict = {}
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    rep_s = 0.0
    while _keep_going(attempted, 2 * MIN_REPS, deadline, rep_s):
        traced = attempted % 2 == 1
        out = work / f"out-{attempted}"
        argv = ["run", "--data", str(data), "--config", str(config), "--out", str(out)]
        argv += ["--trace"] if w.trace else []
        attempted += 1
        run = TracedRun(package) if traced else None
        rep_start = time.perf_counter()
        gc.collect()
        try:
            start = time.process_time()
            if run:
                with run:
                    code = cli.main(argv)
            else:
                code = cli.main(argv)
            elapsed = time.process_time() - start
            problem = f"exit code {code}" if code else check.problem(out)
            if not problem and run and run.mcavs != expected.mcavs:
                problem = "MCAVs differ from the oracle"
            if not problem and run:
                layer_samples.append(run.metrics(out))
                spans = run.spans
        except Exception as exc:  # a crashing program is a failed run, not a crashed benchmark
            problem = f"{type(exc).__name__}: {exc}"
        shutil.rmtree(out, ignore_errors=True)
        rep_s = time.perf_counter() - rep_start
        if problem:
            failed += 1
            print(f"run {attempted} failed: {problem}", file=sys.stderr)
            continue
        cpu["traced" if traced else "plain"].append(elapsed)

    if not layer_samples or not cpu["plain"]:
        return _result(attempted, failed, {}), {"cpu_s": cpu}
    metrics = {}
    for name, (_, unit) in layer_samples[0].items():
        values = [sample[name][0] for sample in layer_samples]
        if name in DETERMINISTIC and len(set(values)) != 1:
            print(f"{name} differs between repetitions: {values}", file=sys.stderr)
            failed += 1
        metrics[name] = (statistics.median(values), unit)
    overhead = statistics.median(cpu["traced"]) / statistics.median(cpu["plain"]) - 1
    metrics["trace_overhead_frac"] = (overhead, "frac")
    return _result(attempted, failed, metrics), {"cpu_s": cpu, "last_traced_spans": spans}


def _result(attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def environment(seed: int, names: list[str]) -> dict:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), "")
    except OSError:
        cpu = ""
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.machine(),
        "loadavg_start": os.getloadavg(),
        "commit": git_commit(),
        "seed": seed,
        "workloads": {name: dataclasses.asdict(WORKLOADS[name]) for name in names},
    }


def git_commit() -> str:
    """The checked-out commit, read from .git without running git; 'unknown' outside a clone."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict]:
    w = WORKLOADS[name]
    work.mkdir()
    lines = wbc_lines(w.rows, w.missing_rate, seed)
    data, config = work / "data.csv", work / "config.json"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    document = config_document(w, seed)
    config.write_text(json.dumps(document), encoding="utf-8")
    expected = expected_results(lines, document)
    check = OutputCheck(expected, w.trace)
    if trace:
        return measure_layers(w, data, config, check, expected, seconds, work)
    return measure_cli(w, data, config, check, len(expected.rows), seconds, work)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [str(p) for p in (SRC / "dca_lab" / "cli.py", ORACLE) if not p.is_file()]
    if missing:
        print(f"bench: not a dca-lab checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    record = {"environment": environment(args.seed, names), "workloads": {}}
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        for name in names:
            result, samples = run_workload(name, args.seed, args.seconds, bool(args.trace), work / name)
            record["workloads"][name] = {"result": result, "samples": samples}
            runs = f"{result['attempted']} runs, {result['failed']} failed"
            print(f"{name}: {runs}, failed_frac {result['failed'] / result['attempted']:.6g}")
            for metric, value in result["metrics"].items():
                print(f"  {metric:28s} {value['value']:14.6g} {value['unit']}")
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    RESULTS_DIR.mkdir(exist_ok=True)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS_DIR / f"{label}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    results = {name: entry["result"] for name, entry in record["workloads"].items()}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
