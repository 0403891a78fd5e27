"""CLI surface: config round-trip, output files, exit codes, determinism."""

import contextlib
import copy
import functools
import hashlib
import importlib
import io
import json
import math
import operator
import os
import pkgutil
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import dca_lab

from dca_lab import cli
from dca_lab.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_ENGINE,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    config_from_dict,
    config_to_dict,
    main,
)
from dca_lab.engine import MAX_SIZE, EngineFaultError, InvalidConfigError, SimConfig
from dca_lab.signal_model import MAX_WEIGHT


def write_dataset(path, rows=12, seed=1):
    rng = random.Random(seed)
    lines = []
    for i in range(rows):
        attrs = ",".join(str(rng.randint(1, 10)) for _ in range(9))
        lines.append(f"{1000 + i},{attrs},{2 if rng.random() < 0.5 else 4}")
    path.write_text("\n".join(lines) + "\n")
    return path


class TestConfigCodec:
    def test_round_trip_defaults(self):
        assert config_from_dict(config_to_dict(SimConfig())) == SimConfig()

    def test_round_trip_custom(self):
        config = SimConfig(population_size=20, dcs_per_antigen=5, seed=987,
                           anomalous_threshold=0.25)
        assert config_from_dict(config_to_dict(config)) == config

    def test_unknown_key_rejected(self):
        data = config_to_dict(SimConfig())
        data["polulation_size"] = 3
        with pytest.raises(Exception):
            config_from_dict(data)

    def test_underscore_keys_ignored(self):
        data = config_to_dict(SimConfig())
        data["_notes"] = {"anything": "goes"}
        assert config_from_dict(data) == SimConfig()

    def test_underscore_keys_ignored_in_nested_sections(self):
        data = config_to_dict(SimConfig())
        for section in ("weight_matrix", "signal_mapping", "attribute_policy"):
            data[section]["_comment"] = [1, "anything"]
        assert config_from_dict(data) == SimConfig()

    def test_each_bound_itself_is_accepted(self):
        data = config_to_dict(SimConfig())
        data.update(population_size=MAX_SIZE, dcs_per_antigen=MAX_SIZE, histogram_bins=MAX_SIZE)
        data["weight_matrix"]["safe"] = [MAX_WEIGHT, MAX_WEIGHT, -MAX_WEIGHT]
        config = config_from_dict(data)  # builds the config only; nothing is allocated
        assert config.population_size == config.histogram_bins == MAX_SIZE
        assert config.weight_matrix.safe == (MAX_WEIGHT, MAX_WEIGHT, -MAX_WEIGHT)

    @settings(max_examples=300)
    @given(st.data())
    def test_mutated_document_is_accepted_or_rejected_cleanly(self, data):
        document = config_to_dict(SimConfig())
        for _ in range(data.draw(st.integers(1, 4))):
            document = data.draw(mutated(document))
        try:
            config = config_from_dict(document)
        except InvalidConfigError:
            return
        assert isinstance(config, SimConfig)


#: Values a mutation may insert: the extremes and wrong types a config file can hold,
#: then any JSON-shaped value.
EXTREMES = [0, -1, -0.0, 5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan,
            2**64, -(2**63), 10**400, -(10**400), True, False, None, "", [], {}]
json_values = st.sampled_from(EXTREMES) | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def node_paths(node, path=()):
    """The key path of ``node`` and of every value inside it, containers included."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from node_paths(child, path + (key,))


@st.composite
def mutated(draw, document):
    """``document`` with one node, drawn from all of them, retyped, nested, dropped or added to."""
    document = copy.deepcopy(document)
    path = draw(st.sampled_from(list(node_paths(document))))
    if not path:
        return draw(json_values | st.just([document]))
    parent = functools.reduce(operator.getitem, path[:-1], document)
    node = parent[path[-1]]
    action = draw(st.sampled_from(("replace", "nest", "drop", "add")))
    if action == "drop":
        del parent[path[-1]]
    elif action == "add" and isinstance(node, dict):
        node[draw(st.text(max_size=12))] = draw(json_values)
    elif action == "add" and isinstance(node, list):
        node.append(draw(json_values))
    elif action == "nest":
        parent[path[-1]] = draw(st.sampled_from(([node], {"value": node})))
    else:
        parent[path[-1]] = draw(json_values)
    return document


class TestGenConfig:
    def test_generates_parseable_defaults(self, tmp_path):
        out = tmp_path / "config.json"
        assert main(["gen-config", "--out", str(out)]) == EXIT_OK
        parsed = config_from_dict(json.loads(out.read_text()))
        assert parsed == SimConfig()

    def test_round_trip_behaviour_matches_builtin_defaults(self, tmp_path):
        data = write_dataset(tmp_path / "d.data")
        config_path = tmp_path / "config.json"
        assert main(["gen-config", "--out", str(config_path)]) == EXIT_OK

        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", "--data", str(data), "--out", str(out_a)]) == EXIT_OK
        assert main(["run", "--data", str(data), "--config", str(config_path),
                     "--out", str(out_b)]) == EXIT_OK
        for name in ("results.csv", "report.json", "histogram.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_output_bytes_are_pinned(self, tmp_path):
        out = tmp_path / "config.json"
        assert main(["gen-config", "--out", str(out)]) == EXIT_OK
        written = out.read_bytes()
        assert len(written) == 1796
        assert hashlib.sha256(written).hexdigest() == (
            "3b23b135d265d34f437a4ba57a06ff6dfe552da4ee6d71dcb4f7e276ee2a458b"
        )

    def test_unwritable_path_reports_io_error(self, tmp_path, capsys):
        target = tmp_path / "not-a-dir"
        target.write_text("file in the way")
        exit_code = main(["gen-config", "--out", str(target / "config.json")])
        assert exit_code == EXIT_IO
        assert str(target) in capsys.readouterr().err


class TestRunCommand:
    def test_writes_three_files(self, tmp_path):
        data = write_dataset(tmp_path / "d.data", rows=15)
        out = tmp_path / "out"
        assert main(["run", "--data", str(data), "--out", str(out), "--seed", "5"]) == EXIT_OK

        results = (out / "results.csv").read_text().splitlines()
        assert results[0] == "antigen_id,mcav,predicted,actual"
        assert len(results) == 16
        first = results[1].split(",")
        assert first[0] == "0"
        assert len(first[1].split(".")[1]) == 6  # mcav printed at 6 decimals
        assert first[2] in ("normal", "anomalous")

        histogram = (out / "histogram.csv").read_text().splitlines()
        assert histogram[0] == "bin_lo,bin_hi,count"
        assert len(histogram) == 11

        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 5
        assert report["config"]["seed"] == 5
        assert 0.0 <= report["metrics"]["accuracy"] <= 1.0
        assert report["dataset_summary"]["records_produced"] == 15
        assert sum(report["histogram"]["counts"]) == 15

    def test_byte_identical_reruns(self, tmp_path):
        data = write_dataset(tmp_path / "d.data")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["run", "--data", str(data), "--out", str(out), "--seed", "42"]) == EXIT_OK
        for name in ("results.csv", "report.json", "histogram.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_missing_data_file_names_path(self, tmp_path, capsys):
        missing = tmp_path / "absent.data"
        assert main(["run", "--data", str(missing), "--out", str(tmp_path)]) == EXIT_DATA
        assert str(missing) in capsys.readouterr().err

    def test_parse_failure_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.data"
        bad.write_text("1,1,1,1,1,1,1,1,1,1,2\nnot,a,row\n")
        assert main(["run", "--data", str(bad), "--out", str(tmp_path)]) == EXIT_DATA
        assert "line 2" in capsys.readouterr().err

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        data = write_dataset(tmp_path / "d.data")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"population_size": 0}))
        assert main(["run", "--data", str(data), "--config", str(config_path)]) == EXIT_CONFIG
        assert "population_size" in capsys.readouterr().err

    def test_malformed_config_json(self, tmp_path):
        data = write_dataset(tmp_path / "d.data")
        config_path = tmp_path / "config.json"
        config_path.write_text("{not json")
        assert main(["run", "--data", str(data), "--config", str(config_path)]) == EXIT_CONFIG

    def test_seed_flag_must_be_u64(self, capsys):
        # Only ASCII decimal digits: int() would also read 1_0, " 7", +7 and the Arabic-Indic 7.
        for seed in ["-1", str(2**64), "1_0", " 7", "7 ", "+7", "\u0667", "0x7", "", "1" * 5000]:
            assert main(["run", "--data", "x", "--seed", seed]) == EXIT_USAGE, seed
            assert len(capsys.readouterr().err.splitlines()[-1]) < 200  # a long seed is echoed short

    def test_env_var_sets_out_dir_and_flag_wins(self, tmp_path, monkeypatch):
        data = write_dataset(tmp_path / "d.data")
        env_dir = tmp_path / "env-out"
        flag_dir = tmp_path / "flag-out"
        monkeypatch.setenv("DCA_LAB_OUT", str(env_dir))
        assert main(["run", "--data", str(data)]) == EXIT_OK
        assert (env_dir / "results.csv").exists()
        assert main(["run", "--data", str(data), "--out", str(flag_dir)]) == EXIT_OK
        assert (flag_dir / "results.csv").exists()

    def test_trace_file_written(self, tmp_path):
        data = write_dataset(tmp_path / "d.data", rows=4)
        out = tmp_path / "out"
        assert main(["run", "--data", str(data), "--out", str(out), "--trace"]) == EXIT_OK
        trace_lines = (out / "trace.csv").read_text().splitlines()
        assert trace_lines[0] == "tick,event_kind,ids,values"
        kinds = {line.split(",")[1] for line in trace_lines[1:]}
        assert "spawn" in kinds and "pick" in kinds
        assert len(trace_lines) > 4

    def test_no_leftover_temp_files(self, tmp_path):
        data = write_dataset(tmp_path / "d.data")
        out = tmp_path / "out"
        assert main(["run", "--data", str(data), "--out", str(out), "--trace"]) == EXIT_OK
        leftovers = [p.name for p in out.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    @pytest.mark.parametrize("fault", ["config", "engine"])
    def test_failed_traced_run_leaves_no_trace_and_no_temp_file(self, tmp_path, monkeypatch, fault):
        data = write_dataset(tmp_path / "d.data")
        out = tmp_path / "out"
        argv = ["run", "--data", str(data), "--out", str(out), "--trace"]
        if fault == "config":  # attribute index 9 is past the record's nine attributes
            config_path = tmp_path / "config.json"
            config_path.write_text(json.dumps({"signal_mapping": {
                "pamp_sources": [9], "danger_sources": [0], "safe_sources": [0]}}))
            argv += ["--config", str(config_path)]
        else:
            def faulty_run(config, records, trace=None):
                trace.emit("0,spawn,0,normal\r\n")
                raise EngineFaultError("tick 0: DC 0 voted for antigen 1 which is not in flight")

            monkeypatch.setattr(cli, "run", faulty_run)
        assert main(argv) == {"config": EXIT_CONFIG, "engine": EXIT_ENGINE}[fault]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(("population", "code"), [("1000000", EXIT_OK), ("1000001", EXIT_CONFIG)], ids=["largest", "one_more"])
    def test_largest_population_runs_and_one_more_is_rejected(self, tmp_path, capsys, population, code):
        data = write_dataset(tmp_path / "d.data", rows=15)
        config_path = tmp_path / "config.json"
        config_path.write_text(f'{{"population_size": {population}}}')
        argv = ["run", "--data", str(data), "--config", str(config_path), "--out", str(tmp_path / "out")]
        assert main(argv) == code
        lines = capsys.readouterr().err.splitlines()
        if code == EXIT_OK:
            assert lines == []
            assert len((tmp_path / "out" / "results.csv").read_text().splitlines()) == 16
        else:
            assert len(lines) == 1 and "population_size" in lines[0]

    @pytest.mark.parametrize(("blocked", "message"), [
        ("out_dir", "dca-lab: cannot create output directory"),
        ("trace.csv", "dca-lab: I/O failure: "),
        ("results.csv", "dca-lab: I/O failure writing outputs to"),
    ])
    def test_unwritable_output_exits_6_with_one_line_and_no_temp_file(self, tmp_path, capsys, blocked, message):
        data = write_dataset(tmp_path / "d.data", rows=4)
        out = tmp_path / "out"
        if blocked == "out_dir":  # a file where the output directory goes
            out.write_text("")
        else:  # a directory where the output file goes
            (out / blocked).mkdir(parents=True)
        assert main(["run", "--data", str(data), "--out", str(out), "--trace"]) == EXIT_IO
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(message)
        if blocked != "out_dir":
            assert [p.name for p in out.iterdir() if p.suffix == ".tmp"] == []

    def test_unreadable_config_exits_4_with_one_line(self, tmp_path, capsys):
        data = write_dataset(tmp_path / "d.data", rows=4)
        assert main(["run", "--data", str(data), "--config", str(tmp_path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"dca-lab: invalid config: cannot read config file {tmp_path}")

    @pytest.mark.parametrize(("umask", "mode"), [(0o022, 0o644), (0o077, 0o600)], ids=["umask_022", "umask_077"])
    def test_output_files_take_the_umasks_mode(self, tmp_path, umask, mode):
        data = write_dataset(tmp_path / "d.data", rows=4)
        out = tmp_path / "out"
        previous = os.umask(umask)
        try:
            assert main(["run", "--data", str(data), "--out", str(out), "--trace"]) == EXIT_OK
            assert main(["gen-config", "--out", str(out / "config.json")]) == EXIT_OK
        finally:
            os.umask(previous)
        modes = {p.name: p.stat().st_mode & 0o777 for p in out.iterdir()}
        names = ["config.json", "histogram.csv", "report.json", "results.csv", "trace.csv"]
        assert modes == dict.fromkeys(names, mode)


def run_cli_process(*args):
    """Run the CLI in a fresh interpreter, as a user would, and capture stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(dca_lab.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "dca_lab.cli", *args],
        env=env, capture_output=True, text=True, timeout=60,
    )


def assert_one_line_diagnostic(proc, exit_code, *fragments):
    assert proc.returncode == exit_code, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("dca-lab: "), proc.stderr
    for fragment in fragments:
        assert fragment in lines[0]


class TestExitCodes:
    @pytest.mark.parametrize("argv", [["run"], ["run", "--data", "x", "--seed", "abc"]])
    def test_bad_arguments_return_2_in_process(self, argv):
        assert main(argv) == EXIT_USAGE

    def test_help_returns_0(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "usage: dca-lab" in capsys.readouterr().out

    def test_bad_arguments_exit_2_without_traceback(self):
        proc = run_cli_process("run")
        assert proc.returncode == EXIT_USAGE, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "--data" in proc.stderr

    def test_engine_fault_exits_5_with_one_line(self, tmp_path, capsys, monkeypatch):
        def faulty_run(*args, **kwargs):
            raise EngineFaultError("tick 3: DC 1 voted for antigen 2 which is not in flight")

        monkeypatch.setattr(cli, "run", faulty_run)
        data = write_dataset(tmp_path / "d.data")
        assert main(["run", "--data", str(data), "--out", str(tmp_path / "out")]) == EXIT_ENGINE
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["dca-lab: engine fault: tick 3: DC 1 voted for antigen 2 which is not in flight"]

    def test_one_error_class_per_exit_code(self):
        # Exits 3, 4 and 5 each catch one class; a helper's misuse raises ValueError.
        defined = {
            obj.__name__
            for module in pkgutil.iter_modules(dca_lab.__path__, "dca_lab.")
            for obj in vars(importlib.import_module(module.name)).values()
            if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == module.name
        }
        assert defined == {"DatasetError", "InvalidConfigError", "EngineFaultError"}


VALID_MAPPING = {"pamp_sources": [0], "danger_sources": [1], "safe_sources": [2]}

#: Config values that must be rejected, never coerced (each was once accepted or crashed).
REJECTED_CONFIGS = {
    "float_seed": ('{"seed": 1.7}', "seed"),
    "bool_population_size": ('{"population_size": true}', "population_size"),
    "float_population_size": ('{"population_size": 1e2}', "population_size"),
    "bool_dcs_per_antigen": ('{"dcs_per_antigen": false}', "dcs_per_antigen"),
    "overflowing_histogram_bins": ('{"histogram_bins": 1e400}', "histogram_bins"),
    "infinite_threshold": ('{"threshold_range": [100, Infinity]}', "threshold_range"),
    "nan_threshold": ('{"threshold_range": [NaN, 300]}', "threshold_range"),
    "huge_int_threshold": ('{"threshold_range": [100, %d]}' % 10**400, "threshold_range"),
    "string_safe_is_complement": (
        json.dumps({"signal_mapping": dict(VALID_MAPPING, safe_is_complement="false")}),
        "safe_is_complement",
    ),
    "float_source_index": (
        json.dumps({"signal_mapping": dict(VALID_MAPPING, pamp_sources=[1.5])}),
        "pamp_sources",
    ),
    "bool_source_index": (
        json.dumps({"signal_mapping": dict(VALID_MAPPING, danger_sources=[True])}),
        "danger_sources",
    ),
    "negative_source_index": (
        json.dumps({"signal_mapping": dict(VALID_MAPPING, safe_sources=[-1])}),
        "negative index",
    ),
    "bool_weight": (
        json.dumps({"weight_matrix": {"pamp": [True, 0, 2], "danger": [1, 0, 1],
                                      "safe": [2, 3, -3]}}),
        "weight_matrix.pamp",
    ),
    "string_anomalous_threshold": ('{"anomalous_threshold": "0.5"}', "anomalous_threshold"),
    "policy_not_an_object": ('{"attribute_policy": [1]}', "attribute_policy"),
    # An object is read as a component only where the field is one.
    "object_seed": ('{"seed": {}}', "seed must be an integer, got {}"),
    "overflowing_policy_span": ('{"attribute_policy": {"lo": -1e308, "hi": 1e308}}', "attribute_policy"),
    # Unknown keys are rejected at every depth, by dotted path.
    "misspelled_policy_key": (
        '{"attribute_policy": {"missing_value_polcy": "impute_median"}}',
        "attribute_policy.missing_value_polcy",
    ),
    "misspelled_mapping_key": (
        json.dumps({"signal_mapping": dict(VALID_MAPPING, safe_is_compliment=False)}),
        "signal_mapping.safe_is_compliment",
    ),
    "misspelled_weight_row": (
        json.dumps({"weight_matrix": {"pamq": [2, 0, 2], "danger": [1, 0, 1],
                                      "safe": [2, 3, -3]}}),
        "weight_matrix.pamq",
    ),
    # Each bound plus one (for the weight cap, the next float above it).
    "population_size_above_bound": ('{"population_size": %d}' % (MAX_SIZE + 1),
                                    "population_size"),
    "histogram_bins_above_bound": ('{"histogram_bins": %d}' % (MAX_SIZE + 1), "histogram_bins"),
    "weight_above_cap": (
        json.dumps({"weight_matrix": {"pamp": [2, 0, math.nextafter(MAX_WEIGHT, math.inf)],
                                      "danger": [1, 0, 1], "safe": [2, 3, -3]}}),
        "weight_matrix.pamp",
    ),
    "near_float_max_weights": (
        json.dumps({"weight_matrix": {row: [1e308] * 3 for row in ("pamp", "danger", "safe")}}),
        "weight_matrix.pamp",
    ),
    # Diagnostics name the field and what it expected.
    "missing_weight_row": ('{"weight_matrix": {"pamp": [2, 0, 2]}}', "weight_matrix.danger"),
    "three_thresholds": ('{"threshold_range": [1, 2, 3]}', "threshold_range"),
    # Files json.loads cannot turn into a value.
    "over_long_integer": ('{"seed": %s}' % ("1" * 5000), "invalid config"),
    "deeply_nested_json": ("[" * 100_000 + "]" * 100_000, "not valid JSON"),
}


class TestRejectedInputs:
    @pytest.mark.parametrize("case", sorted(REJECTED_CONFIGS))
    def test_config_value_rejected_with_exit_4(self, tmp_path, case):
        text, fragment = REJECTED_CONFIGS[case]
        data = write_dataset(tmp_path / "d.data")
        config_path = tmp_path / "config.json"
        config_path.write_text(text)
        proc = run_cli_process("run", "--data", str(data), "--config", str(config_path),
                               "--out", str(tmp_path / "out"))
        assert_one_line_diagnostic(proc, EXIT_CONFIG, "invalid config", fragment)
        assert not (tmp_path / "out" / "results.csv").exists()

    def test_non_utf8_config_exits_4(self, tmp_path):
        data = write_dataset(tmp_path / "d.data")
        config_path = tmp_path / "config.json"
        config_path.write_bytes(b'{"seed": 1, "_note": "\xff"}')
        proc = run_cli_process("run", "--data", str(data), "--config", str(config_path),
                               "--out", str(tmp_path / "out"))
        assert_one_line_diagnostic(proc, EXIT_CONFIG, str(config_path), "0xff")

    def test_non_utf8_dataset_exits_3(self, tmp_path):
        data = tmp_path / "latin1.data"
        data.write_bytes(b"1000,1,1,1,1,1,1,1,1,1,2\n1001,1,\xff,1,1,1,1,1,1,1,2\n")
        proc = run_cli_process("run", "--data", str(data), "--out", str(tmp_path / "out"))
        assert_one_line_diagnostic(proc, EXIT_DATA, str(data), "line 2", "UTF-8", "0xff")

    def test_exact_values_still_accepted(self, tmp_path):
        data = write_dataset(tmp_path / "d.data")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "seed": 3, "population_size": 20, "threshold_range": [50, 150.5],
            "signal_mapping": dict(VALID_MAPPING, safe_is_complement=False),
        }))
        out = tmp_path / "out"
        assert main(["run", "--data", str(data), "--config", str(config_path),
                     "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["threshold_range"] == [50.0, 150.5]
        assert report["config"]["signal_mapping"]["safe_is_complement"] is False


ROW = "1000025,5,1,1,1,2,1,3,1,1,2"

#: Datasets that once loaded (int() read the field, or splitlines() split the line)
#: and now exit 3, with a fragment of the diagnostic.
REJECTED_DATASETS = {
    "form_feed_between_rows": (f"{ROW}\x0c{ROW}\n", "line 1: expected 11 comma-separated fields, got 21"),
    "plus_sign": (f"{ROW}\n1000026,+3,1,1,1,1,1,1,1,1,2\n", "line 2: attribute 1 '+3'"),
    "underscore": (f"{ROW}\n1000026,1,1_0,1,1,1,1,1,1,1,2\n", "line 2: attribute 2 '1_0'"),
    "leading_space": (f"{ROW}\n1000026,1,1, 5,1,1,1,1,1,1,2\n", "line 2: attribute 3 ' 5'"),
    "arabic_indic_digit": (f"{ROW}\n1000026,1,1,1,\u0661,1,1,1,1,1,2\n", "line 2: attribute 4 '\u0661'"),
}


def run_in_process(data_path, out_dir):
    """``main(["run", ...])`` on a dataset: its exit code and its stderr lines."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", "--data", str(data_path), "--out", str(out_dir)])
    return code, err.getvalue().splitlines()


class TestDatasetGrammar:
    @pytest.mark.parametrize("case", sorted(REJECTED_DATASETS))
    def test_dataset_spelling_rejected_with_exit_3(self, tmp_path, case):
        text, fragment = REJECTED_DATASETS[case]
        data = tmp_path / "d.data"
        data.write_bytes(text.encode())
        code, lines = run_in_process(data, tmp_path / "out")
        assert code == EXIT_DATA
        assert len(lines) == 1 and lines[0].startswith("dca-lab: ") and fragment in lines[0], lines
        assert not (tmp_path / "out" / "results.csv").exists()

    @pytest.mark.parametrize("field, fragment", [("9" * 4000, "line 2: value 999"), ("x" * 5000, "line 2: attribute 1 'xxx")],
                             ids=["4000_digit_attribute", "5000_character_field"])
    def test_long_field_is_echoed_cut_short(self, tmp_path, monkeypatch, field, fragment):
        monkeypatch.chdir(tmp_path)  # a short path, so the line's length is the message's
        Path("d.data").write_bytes(f"{ROW}\n1000026,{field},1,1,1,1,1,1,1,1,2\n".encode())
        code, lines = run_in_process("d.data", "out")
        assert code == EXIT_DATA
        assert len(lines) == 1 and lines[0].startswith("dca-lab: ") and fragment in lines[0], lines
        assert len(lines[0]) < 200, lines


#: What a mutation may insert into a WBC file: separators and line breaks,
#: digits int() reads but the grammar does not, NULs, huge integers, lone CRs.
INSERTIONS = [",", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", " ", "\t", "\ufeff",
              "\u0661", "\u0665", "\uff15", "\u00b2", "+", "-", "_", "?", ".", "\x00",
              "9" * 5000, str(2**64), "0" * 30 + "4"]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    # Module-scoped: hypothesis rejects a function-scoped tmp_path under @given.
    return tmp_path_factory.mktemp("dataset-fuzz")


ROW_VALUES = [str(v) for v in range(1, 11)] + ["?"]


@st.composite
def mutated_dataset(draw):
    """A few WBC rows, then one to four edits, as UTF-8: a piece inserted, one
    character deleted, or the text up to the next comma replaced by a piece."""
    rows = []
    for i in range(draw(st.integers(1, 4))):
        attributes = draw(st.lists(st.sampled_from(ROW_VALUES), min_size=9, max_size=9))
        rows.append(f"{1000 + i},{','.join(attributes)},{draw(st.sampled_from('24'))}")
    text = "\n".join(rows) + "\n"
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        piece = "" if edit == "delete" else draw(st.sampled_from(INSERTIONS) | st.text(max_size=3))
        end = {"insert": at, "delete": at + 1, "replace": max(text.find(",", at), at)}[edit]
        text = text[:at] + piece + text[end:]
    # A lone surrogate from st.text() becomes bytes that are not UTF-8.
    return text.encode("utf-8", "surrogatepass")


class TestDatasetFuzz:
    def check(self, fuzz_dir, payload):
        data = fuzz_dir / "d.data"
        data.write_bytes(payload)
        code, lines = run_in_process(data, fuzz_dir / "out")
        assert code in (EXIT_OK, EXIT_DATA), lines
        if code == EXIT_DATA:
            assert len(lines) == 1 and lines[0].startswith("dca-lab: dataset parse failure"), lines
        else:
            assert lines == []

    @settings(max_examples=150, deadline=None)
    @given(payload=mutated_dataset())
    def test_mutated_rows_load_or_exit_3_with_one_line(self, fuzz_dir, payload):
        self.check(fuzz_dir, payload)

    @settings(max_examples=150, deadline=None)
    @given(payload=st.binary(max_size=200) | st.text(max_size=80).map(lambda t: t.encode("utf-8", "surrogatepass")))
    def test_arbitrary_bytes_load_or_exit_3_with_one_line(self, fuzz_dir, payload):
        self.check(fuzz_dir, payload)
