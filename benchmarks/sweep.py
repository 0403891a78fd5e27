"""Scaling sweep: per-tick cost against population size N, at k=10.

Run from the repository root:

    python3 benchmarks/sweep.py [--rows 1000] [--seed 1]

This is not one of the gated workloads. For each N in 100, 1000 and
10000 it runs ``dca_lab.cli.main`` in-process under ``layers.TracedRun``
on one generated file, checks the MCAVs against the oracle, and prints
``engine.tick_us_p50`` and ``engine.tick_us_p99`` per point, so the claim
that a tick's cost depends on k and not on N has a curve to check. The
points also go to ``benchmarks/results/sweep.json``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

from bench import (
    RESULTS_DIR,
    WORK_DIR,
    BenchError,
    Workload,
    config_document,
    environment,
    expected_results,
    import_package,
)
from gen import wbc_lines
from layers import TracedRun

POPULATIONS = (100, 1_000, 10_000)
MISSING_RATE = 0.02


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--rows", type=int, default=1_000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    try:
        package = import_package()
    except BenchError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 1
    cli = package["cli"]
    lines = wbc_lines(args.rows, MISSING_RATE, args.seed)
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_DIR))
    points = []
    try:
        data = work / "data.csv"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        for n in POPULATIONS:
            w = Workload(why="scaling sweep", rows=args.rows, missing_rate=MISSING_RATE, population_size=n)
            document = config_document(w, args.seed)
            config, out = work / f"config-{n}.json", work / f"out-{n}"
            config.write_text(json.dumps(document), encoding="utf-8")
            with TracedRun(package) as run:
                code = cli.main(["run", "--data", str(data), "--config", str(config), "--out", str(out)])
            if code or run.mcavs != expected_results(lines, document).mcavs:
                print(f"sweep: N={n}: exit code {code} or MCAVs differ from the oracle", file=sys.stderr)
                return 1
            m = run.metrics(out)
            point = {
                "population_size": n,
                "dcs_per_antigen": w.dcs_per_antigen,
                "ticks": len(run.recorder.durations("engine.step")),
                "tick_us_p50": m["engine.tick_us_p50"][0],
                "tick_us_p99": m["engine.tick_us_p99"][0],
            }
            points.append(point)
            print(f"N={n:>6} k={w.dcs_per_antigen} ticks={point['ticks']} "
                  f"tick_us_p50={point['tick_us_p50']:.1f} tick_us_p99={point['tick_us_p99']:.1f}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    RESULTS_DIR.mkdir(exist_ok=True)
    record = {"environment": environment(args.seed, []), "rows": args.rows, "points": points}
    (RESULTS_DIR / "sweep.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(points))
    return 0


if __name__ == "__main__":
    sys.exit(main())
