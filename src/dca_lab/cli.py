"""Command-line front end: run a simulation or generate a config file.

Subcommands:
    run        --data <path> [--config <path>] [--seed <u64>] [--out <dir>] [--trace]
    gen-config --out <path>

``run`` writes results.csv, report.json and histogram.csv (plus trace.csv
with --trace) into the output directory, which defaults to the DCA_LAB_OUT
environment variable and then to the current directory; flags win over the
environment. All files are written atomically (temp file then rename).

Exit codes: 0 success, 2 bad arguments, 3 dataset parse failure, 4 invalid
config, 5 engine fault, 6 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator

from .analysis import ClassificationResult, MCAVHistogram
from .data_ingest import DatasetError, DatasetSummary, load_dataset
from .engine import MAX_SEED, EngineFaultError, RunReport, SimConfig, TraceLog, run
from .schema import REQUIRED, Config, InvalidConfigError, brief, expected_text

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_CONFIG = 4
EXIT_ENGINE = 5
EXIT_IO = 6

OUT_DIR_ENV_VAR = "DCA_LAB_OUT"

def config_to_dict(config: Config) -> dict:
    """The JSON document of a SimConfig or of one of its components: a component as an object, an array as a list."""
    return {name: config_to_dict(value) if isinstance(value, Config) else list(value) if isinstance(value, tuple) else value
            for name, value in vars(config).items()}


def config_from_dict(data, cls: type[Config] = SimConfig, path: str = "") -> Config:
    """Build a SimConfig (or one component) from parsed JSON, by one walk over its rows.

    Values must have their JSON kind exactly: integers are never bools or
    floats, flags are true or false. Nothing is coerced. Keys starting
    with ``_`` are ignored at every depth; any other unknown key, and a
    missing key that has no default, is an error that names its dotted
    path. An object in a component's row is built as that component; the
    constructor of each class checks its values, and this adds the path.
    """
    if not isinstance(data, dict):
        raise InvalidConfigError(f"config must be an object, got {brief(data)}")
    prefix = f"{path}." if path else ""
    unknown = sorted(prefix + k for k in data if k not in cls.ROWS and not k.startswith("_"))
    if unknown:
        raise InvalidConfigError(f"unknown config keys: {', '.join(unknown)}")
    kwargs = {}
    for name, f in cls.ROWS.items():
        if name not in data:
            if f.default is REQUIRED:
                raise InvalidConfigError(f"{prefix}{name} is missing: expected {expected_text(f)}")
        elif issubclass(f.kind, Config) and isinstance(data[name], dict):
            kwargs[name] = config_from_dict(data[name], f.kind, prefix + name)
        else:
            kwargs[name] = data[name]
    try:
        return cls(**kwargs)
    except InvalidConfigError as exc:
        raise InvalidConfigError(prefix + str(exc)) from None


def load_config(path: Path) -> SimConfig:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: also an over-long integer
        raise InvalidConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


@contextmanager
def _atomic_stream(path: Path) -> Iterator[IO[str]]:
    """A text stream to a temp file, renamed onto ``path`` if the block ends without error, else deleted.

    The temp file is created as ``open`` creates a file, so ``path`` takes the umask's mode.
    """
    # Temp file in the target directory so the rename stays on one filesystem.
    tmp_name = path.parent / f".{path.name}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            yield handle
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _atomic_write_text(path: Path, text: str) -> None:
    with _atomic_stream(path) as handle:
        handle.write(text)


def write_default_config(path: Path) -> None:
    document = {"_notes": {name: f.note for name, f in SimConfig.ROWS.items()}}
    document.update(config_to_dict(SimConfig()))
    _atomic_write_text(path, json.dumps(document, indent=2) + "\n")


def results_csv_text(results: list[ClassificationResult]) -> str:
    """One row per result, each distinct ``,mcav,predicted,actual`` tail formatted once.

    A run's MCAVs take only the values j/k. The tail is looked up by value,
    so a -0.0 after a 0.0 with the same labels would print as 0.000000; a
    run never yields -0.0, since ones / received is +0.0 when no bit is 1.
    """
    lines = ["antigen_id,mcav,predicted,actual"]
    tails: dict[tuple, str] = {}
    for antigen_id, mcav, predicted, actual in results:
        tail = tails.get((mcav, predicted, actual))
        if tail is None:
            tail = tails[mcav, predicted, actual] = f",{mcav:.6f},{predicted},{actual}"
        lines.append(f"{antigen_id}{tail}")
    return "\n".join(lines) + "\n"


def histogram_csv_text(histogram: MCAVHistogram) -> str:
    lines = ["bin_lo,bin_hi,count"]
    for i, count in enumerate(histogram.counts):
        lines.append(f"{histogram.edges[i]},{histogram.edges[i + 1]},{count}")
    return "\n".join(lines) + "\n"


def report_json_text(report: RunReport, summary: DatasetSummary, config: SimConfig) -> str:
    """The text of ``report.json``: the run's config, the dataset summary and what ``run`` computed."""
    document = {
        "seed": config.seed,
        "config": config_to_dict(config),
        "dataset_summary": summary._asdict(),
        "confusion": report.confusion._asdict(),
        "metrics": report.metrics._asdict(),
        "histogram": report.histogram._asdict(),  # json writes its tuples as lists
    }
    return json.dumps(document, indent=2) + "\n"


def _parse_seed(text: str) -> int:
    """A seed as ASCII decimal digits only: no sign, space, underscore or other script's digits."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"seed must be decimal digits 0-9, got {text!r}")
    if len(text.lstrip("0")) > len(str(MAX_SEED)) or int(text) > MAX_SEED:  # no int() of 5000 digits
        raise argparse.ArgumentTypeError(f"seed must be in [0, 2^64), got {brief(text)}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dca-lab",
        description="Deterministic DCA simulator: classify labelled records as "
        "normal or anomalous via DC agent voting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="load a dataset, simulate, write result files")
    run_p.add_argument("--data", required=True, help="dataset file (UCI WBC format)")
    run_p.add_argument("--config", help="JSON config file; defaults apply if omitted")
    run_p.add_argument("--seed", type=_parse_seed, help="override the config seed")
    run_p.add_argument("--out", help=f"output directory (default: ${OUT_DIR_ENV_VAR} or .)")
    run_p.add_argument("--trace", action="store_true", help="also write trace.csv events")

    gen_p = sub.add_parser("gen-config", help="write the full default config as JSON")
    gen_p.add_argument("--out", required=True, help="path for the generated config file")
    return parser


def run_command(args: argparse.Namespace) -> int:
    try:
        config = load_config(Path(args.config)) if args.config else SimConfig()
        if args.seed is not None:
            config = config.replace(seed=args.seed)
    except InvalidConfigError as exc:
        print(f"dca-lab: invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    data_path = Path(args.data)
    try:
        with open(data_path, "rb") as handle:
            records, summary = load_dataset(handle, config.attribute_policy)
    except OSError as exc:
        print(f"dca-lab: cannot read dataset {data_path}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DatasetError as exc:
        print(f"dca-lab: dataset parse failure in {data_path}: {exc}", file=sys.stderr)
        return EXIT_DATA

    out_dir = Path(args.out or os.environ.get(OUT_DIR_ENV_VAR) or ".")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"dca-lab: cannot create output directory {out_dir}: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        if args.trace:
            with _atomic_stream(out_dir / "trace.csv") as trace_stream:
                report = run(config, records, trace=TraceLog(trace_stream))
        else:
            report = run(config, records)
    except InvalidConfigError as exc:
        print(f"dca-lab: invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DatasetError as exc:
        print(f"dca-lab: dataset fault in {data_path}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except EngineFaultError as exc:
        print(f"dca-lab: engine fault: {exc}", file=sys.stderr)
        return EXIT_ENGINE
    except OSError as exc:
        print(f"dca-lab: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        _atomic_write_text(out_dir / "results.csv", results_csv_text(report.results))
        _atomic_write_text(out_dir / "report.json", report_json_text(report, summary, config))
        _atomic_write_text(out_dir / "histogram.csv", histogram_csv_text(report.histogram))
    except OSError as exc:
        print(f"dca-lab: I/O failure writing outputs to {out_dir}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def gen_config_command(args: argparse.Namespace) -> int:
    path = Path(args.out)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        write_default_config(path)
    except OSError as exc:
        print(f"dca-lab: cannot write config to {path}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # bad arguments (2) or --help (0): return, never raise
        return exc.code
    if args.command == "run":
        return run_command(args)
    return gen_config_command(args)


if __name__ == "__main__":
    sys.exit(main())
