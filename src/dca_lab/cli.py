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
import dataclasses
import json
import math
import os
import sys
import tempfile
from pathlib import Path

from .analysis import ClassificationResult, MCAVHistogram
from .data_ingest import (
    AttributePolicy,
    DatasetError,
    DatasetSummary,
    MissingValuePolicy,
    load_dataset,
)
from .engine import (
    MAX_SEED,
    EngineFaultError,
    InvalidConfigError,
    RunReport,
    SimConfig,
    TraceLog,
    run,
)
from .signal_model import SignalMapping, WeightMatrix

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_CONFIG = 4
EXIT_ENGINE = 5
EXIT_IO = 6

OUT_DIR_ENV_VAR = "DCA_LAB_OUT"

CONFIG_NOTES = {
    "population_size": "number of DC agents alive at any instant (constant)",
    "dcs_per_antigen": "distinct DCs each antigen is presented to (its vote count)",
    "threshold_range": "[t_min, t_max] for the per-DC migration threshold, drawn uniformly",
    "weight_matrix": "per input signal: weights onto (csm, semi, mat); shipped values are a documented default, not a fitted result; the csm column must be nonnegative",
    "signal_mapping": "attribute indices feeding each input signal; safe_is_complement inverts the safe source mean",
    "anomalous_threshold": "MCAV cutoff; an antigen is anomalous iff its MCAV strictly exceeds it",
    "histogram_bins": "equal-width MCAV histogram bins over [0, 1]",
    "attribute_policy": "missing_value_policy is skip_record or impute_median; lo/hi are the fixed min-max normalization bounds",
    "seed": "64-bit unsigned rng seed; identical seed + inputs reproduce a run exactly",
}


def config_to_dict(config: SimConfig) -> dict:
    return {
        "population_size": config.population_size,
        "dcs_per_antigen": config.dcs_per_antigen,
        "threshold_range": list(config.threshold_range),
        "weight_matrix": {
            "pamp": list(config.weight_matrix.pamp),
            "danger": list(config.weight_matrix.danger),
            "safe": list(config.weight_matrix.safe),
        },
        "signal_mapping": {
            "pamp_sources": list(config.signal_mapping.pamp_sources),
            "danger_sources": list(config.signal_mapping.danger_sources),
            "safe_sources": list(config.signal_mapping.safe_sources),
            "safe_is_complement": config.signal_mapping.safe_is_complement,
        },
        "anomalous_threshold": config.anomalous_threshold,
        "histogram_bins": config.histogram_bins,
        "attribute_policy": {
            "missing_value_policy": config.attribute_policy.missing_value_policy.value,
            "lo": config.attribute_policy.lo,
            "hi": config.attribute_policy.hi,
        },
        "seed": config.seed,
    }


def _integer(value, what: str) -> int:
    # bool is an int subclass, but a JSON true is not a count.
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidConfigError(f"{what} must be an integer, got {value!r}")
    return value


def _real(value, what: str) -> float:
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise InvalidConfigError(f"{what} must be a finite number, got {value!r}")


def _flag(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise InvalidConfigError(f"{what} must be true or false, got {value!r}")
    return value


def _array(value, what: str, item) -> tuple:
    if not isinstance(value, list):
        raise InvalidConfigError(f"{what} must be an array, got {value!r}")
    return tuple(item(v, f"{what}[{i}]") for i, v in enumerate(value))


def config_from_dict(data: dict) -> SimConfig:
    """Build a SimConfig from parsed JSON; unknown keys (except _*) are errors.

    Values must have their JSON type exactly: integers are never bools or
    floats, numbers are finite, flags are true or false. Nothing is coerced.
    """
    if not isinstance(data, dict):
        raise InvalidConfigError("config file must hold a JSON object")
    known = set(config_to_dict(SimConfig()))
    payload = {k: v for k, v in data.items() if not k.startswith("_")}
    unknown = set(payload) - known
    if unknown:
        raise InvalidConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")

    for key in ("weight_matrix", "signal_mapping", "attribute_policy"):
        if key in payload and not isinstance(payload[key], dict):
            raise InvalidConfigError(f"{key} must be an object, got {payload[key]!r}")

    defaults = SimConfig()
    kwargs: dict = {}
    try:
        if "weight_matrix" in payload:
            wm = payload["weight_matrix"]
            kwargs["weight_matrix"] = WeightMatrix(
                **{row: _array(wm[row], f"weight_matrix.{row}", _real)
                   for row in ("pamp", "danger", "safe")}
            )
        if "signal_mapping" in payload:
            sm = payload["signal_mapping"]
            kwargs["signal_mapping"] = SignalMapping(
                **{name: _array(sm[name], f"signal_mapping.{name}", _integer)
                   for name in ("pamp_sources", "danger_sources", "safe_sources")},
                safe_is_complement=_flag(
                    sm.get("safe_is_complement", defaults.signal_mapping.safe_is_complement),
                    "signal_mapping.safe_is_complement",
                ),
            )
        if "attribute_policy" in payload:
            ap = payload["attribute_policy"]
            kwargs["attribute_policy"] = AttributePolicy(
                missing_value_policy=MissingValuePolicy(
                    ap.get(
                        "missing_value_policy",
                        defaults.attribute_policy.missing_value_policy.value,
                    )
                ),
                lo=_real(ap.get("lo", defaults.attribute_policy.lo), "attribute_policy.lo"),
                hi=_real(ap.get("hi", defaults.attribute_policy.hi), "attribute_policy.hi"),
            )
        for key in ("population_size", "dcs_per_antigen", "histogram_bins", "seed"):
            if key in payload:
                kwargs[key] = _integer(payload[key], key)
        if "threshold_range" in payload:
            lo, hi = _array(payload["threshold_range"], "threshold_range", _real)
            kwargs["threshold_range"] = (lo, hi)
        if "anomalous_threshold" in payload:
            kwargs["anomalous_threshold"] = _real(
                payload["anomalous_threshold"], "anomalous_threshold"
            )
    except InvalidConfigError:
        raise
    except (LookupError, TypeError, ValueError) as exc:
        raise InvalidConfigError(f"malformed config value: {exc}") from exc

    config = dataclasses.replace(defaults, **kwargs)
    config.validate()
    return config


def load_config(path: Path) -> SimConfig:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InvalidConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


def _atomic_write_text(path: Path, text: str) -> None:
    # Temp file in the target directory so the rename stays on one filesystem.
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def write_default_config(path: Path) -> None:
    document = {"_notes": CONFIG_NOTES}
    document.update(config_to_dict(SimConfig()))
    _atomic_write_text(path, json.dumps(document, indent=2) + "\n")


def results_csv_text(results: list[ClassificationResult]) -> str:
    lines = ["antigen_id,mcav,predicted,actual"]
    for r in results:
        lines.append(f"{r.antigen_id},{r.mcav:.6f},{r.predicted.value},{r.actual.value}")
    return "\n".join(lines) + "\n"


def histogram_csv_text(histogram: MCAVHistogram) -> str:
    lines = ["bin_lo,bin_hi,count"]
    for i, count in enumerate(histogram.counts):
        lines.append(f"{histogram.edges[i]},{histogram.edges[i + 1]},{count}")
    return "\n".join(lines) + "\n"


def report_json_text(report: RunReport, summary: DatasetSummary) -> str:
    document = {
        "seed": report.seed,
        "config": config_to_dict(report.config_echo),
        "dataset_summary": {
            "rows_read": summary.rows_read,
            "rows_skipped": summary.rows_skipped,
            "records_produced": summary.records_produced,
            "label_counts": {
                category.value: count for category, count in summary.label_counts.items()
            },
        },
        "confusion": {
            "tp": report.confusion.tp,
            "tn": report.confusion.tn,
            "fp": report.confusion.fp,
            "fn": report.confusion.fn,
        },
        "metrics": {
            "accuracy": report.metrics.accuracy,
            "true_positive_rate": report.metrics.true_positive_rate,
            "false_positive_rate": report.metrics.false_positive_rate,
            "mean_mcav_normal": report.metrics.mean_mcav_normal,
            "mean_mcav_anomalous": report.metrics.mean_mcav_anomalous,
        },
        "histogram": {
            "edges": list(report.histogram.edges),
            "counts": list(report.histogram.counts),
        },
    }
    return json.dumps(document, indent=2) + "\n"


def _parse_seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed {text!r} is not an integer") from None
    if not 0 <= seed <= MAX_SEED:
        raise argparse.ArgumentTypeError(f"seed must be in [0, 2^64), got {seed}")
    return seed


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
            config = dataclasses.replace(config, seed=args.seed)
        config.validate()
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

    trace_tmp = None
    try:
        if args.trace:
            fd, trace_tmp = tempfile.mkstemp(dir=out_dir, prefix=".trace.", suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as trace_stream:
                report = run(config, records, trace=TraceLog(trace_stream))
            os.replace(trace_tmp, out_dir / "trace.csv")
            trace_tmp = None
        else:
            report = run(config, records)
    except InvalidConfigError as exc:
        print(f"dca-lab: invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EngineFaultError as exc:
        print(f"dca-lab: engine fault: {exc}", file=sys.stderr)
        return EXIT_ENGINE
    except OSError as exc:
        print(f"dca-lab: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    finally:
        if trace_tmp is not None:
            try:
                os.unlink(trace_tmp)
            except OSError:
                pass

    try:
        _atomic_write_text(out_dir / "results.csv", results_csv_text(report.results))
        _atomic_write_text(out_dir / "report.json", report_json_text(report, summary))
        _atomic_write_text(out_dir / "histogram.csv", histogram_csv_text(report.histogram))
    except OSError as exc:
        print(f"dca-lab: I/O failure writing outputs to {out_dir}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def gen_config_command(args: argparse.Namespace) -> int:
    path = Path(args.out)
    try:
        if path.parent:
            path.parent.mkdir(parents=True, exist_ok=True)
        write_default_config(path)
    except OSError as exc:
        print(f"dca-lab: cannot write config to {path}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return run_command(args)
    return gen_config_command(args)


if __name__ == "__main__":
    sys.exit(main())
