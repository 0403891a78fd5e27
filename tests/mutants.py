"""Mutation gate: each of the 66 listed mutants of the package must make its named tests fail.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py

All 66 take about 134 s on a 2-vCPU VM (Python 3.11).

Each entry in ``MUTANTS`` is (file under ``src/dca_lab``, exact snippet,
replacement, test ids). The script copies ``src/`` to a temporary
directory and first runs all named tests on the unmutated copy, which
must pass. Then, one mutant at a time, it replaces the snippet in the
copy, runs only that mutant's tests against it in one subprocess, with
hypothesis derandomized, and restores the file. It prints each mutant's
verdict and seconds, then the total. It exits 1 if a snippet does not
occur exactly once in its file (so a refactor has to carry its mutants
forward), if a mutant survives, or if pytest ends in anything but a pass
or a test failure (a renamed test, a collection error, a run past
``TIMEOUT_S``). Pytest does not collect this file: its name does not
start with ``test_``.

One mutant found by a survey of comparison, arithmetic and literal
changes is equivalent, so it is not listed:
``signal_model.MAX_WEIGHT = 1e100`` -> ``1e100 + 1``: the sum rounds
back to the same float, 1e100.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
#: A pytest run that takes longer is reported as that mutant's error (a mutant may loop forever).
TIMEOUT_S = 180


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
    # Any JSON object is read as a component: {"seed": {}} crashes with TypeError.
    Mutant("cli.py", "    if dataclasses.is_dataclass(f.kind) and isinstance(value, dict):\n", "    if isinstance(value, dict):\n",
           ("tests/test_cli.py::TestRejectedInputs::test_config_value_rejected_with_exit_4[object_seed]",)),
    Mutant("agents.py", "        bits = size.bit_length()\n", "        bits = (size - 1).bit_length()\n",
           ("tests/test_agents.py::TestSampleDcs::test_single_pick_matches_randrange",)),
    Mutant("engine.py", "t_min + (t_max - t_min) * world.rng.random()", "t_max - (t_max - t_min) * world.rng.random()",
           ("tests/test_engine.py::TestRun::test_matches_reference_loop_on_twenty_records",)),
    # The sampler's swap forgets the slot it moves out of position i.
    Mutant("agents.py", "swapped[j] = swapped.pop(i, i)", "swapped[j] = i",
           ("tests/test_agents.py::TestSampleDcs::test_matches_dense_shuffle_and_rng_state",)),
    Mutant("engine.py", "{pick_head}{dc.id_text},", "{pick_head}{dc.id_text}",
           ("tests/test_golden.py::test_corpus_bytes_are_pinned[default]",)),
    Mutant("cli.py", "{mcav:.6f}", "{mcav:.6g}",
           ("tests/test_golden.py::test_corpus_bytes_are_pinned[default]",)),
    # Every row of results.csv reuses the tail of the first result seen.
    Mutant("cli.py", "tail = tails.get((mcav, predicted, actual))", "tail = next(iter(tails.values()), None)",
           ("tests/test_golden.py::test_corpus_bytes_are_pinned[impute_median]",)),
    Mutant("analysis.py", "counts[min(bisect_right(edges, v) - 1, bins - 1)]", "counts[min(int(v * bins), bins - 1)]",
           ("tests/test_analysis.py::TestBuildHistogram::test_every_mcav_lands_between_its_bin_edges",)),
    # median_high in place of median_low.
    Mutant("data_ingest.py", "bisect_right(ends, (ends[-1] - 1) // 2)", "bisect_right(ends, ends[-1] // 2)",
           ("tests/test_data_ingest.py::TestLoadDataset::test_impute_median_lower_of_two",)),
    Mutant("data_ingest.py", "_LABELS = {", "_LABELS = {3: Category.NORMAL, ",
           ("tests/test_data_ingest.py::test_matches_reference_ingest",)),
    # The column reader checks only the total field count: 10 fields then 12 read as two rows.
    Mutant("data_ingest.py", '    if set(map(str.count, rows, repeat(","))) != {FIELD_COUNT - 1}:\n', "    if False:\n",
           ("tests/test_data_ingest.py::TestColumnReader::test_fields_spread_unevenly_over_rows_are_found_per_line",)),
    # The column reader reads class 3 as normal; only the parse-error walk would reject it.
    Mutant("data_ingest.py", '_LABELS[_ascii_int(t, "class code")]', '_LABELS.get(_ascii_int(t, "class code"), Category.NORMAL)',
           ("tests/test_data_ingest.py::test_matches_reference_ingest",)),
    # The column reader takes any Unicode digit in a sample id, as int() does.
    Mutant("data_ingest.py", "if not (id_digits.isdigit() and id_digits.isascii()):", "if not id_digits.isdigit():",
           ("tests/test_data_ingest.py::test_matches_reference_ingest",)),
    # The column reader keeps each line's \r, so a \r\n file fails the comma check and reaches the parse-error walk.
    Mutant("data_ingest.py", 'map(str.removesuffix, lines, repeat("\\r"))', "lines",
           ("tests/test_data_ingest.py::TestColumnReader::test_every_accepted_spelling_is_read_by_columns[skip_record]",)),
    # An out-of-range value in a kept row is read as None, with no fault.
    Mutant("data_ingest.py", "    if bad:\n", "    if False:\n",
           ("tests/test_data_ingest.py::TestLoadDataset::test_out_of_range_carries_line_number",)),
    # The out-of-range fault counts lines from 0.
    Mutant("data_ingest.py", "enumerate(lines, start=1) if line", "enumerate(lines) if line",
           ("tests/test_data_ingest.py::TestLoadDataset::test_out_of_range_carries_line_number",)),
    # Columns with nothing to impute from are checked in set order: 9 before 6.
    Mutant("data_ingest.py", "sorted({p % ATTRIBUTE_COUNT for p in missing})", "{p % ATTRIBUTE_COUNT for p in missing}",
           ("tests/test_data_ingest.py::TestLoadDataset::test_lowest_column_with_nothing_to_impute_from_is_named",)),
    Mutant("agents.py", "    if dc.cum_semi > dc.cum_mat:\n", "    if dc.cum_mat > dc.cum_semi:\n",
           ("tests/test_agents.py::TestMigrationAndContext::test_semi_greater_goes_semimature",)),
    # The engine's inline copies of the three decision rules, each at its tie or swapped.
    Mutant("engine.py", "if dc.cum_csm > dc.migration_threshold:", "if dc.cum_csm >= dc.migration_threshold:",
           ("tests/test_engine.py::TestInlineRules::test_csm_equal_to_the_threshold_does_not_migrate",)),
    Mutant("engine.py", "0 if dc.cum_semi > dc.cum_mat else 1", "0 if dc.cum_semi >= dc.cum_mat else 1",
           ("tests/test_engine.py::TestInlineRules::test_vote_is_semimature_only_when_semi_exceeds_mat[tie]",)),
    Mutant("engine.py", "0 if dc.cum_semi > dc.cum_mat else 1", "0 if dc.cum_mat > dc.cum_semi else 1",
           ("tests/test_engine.py::TestInlineRules::test_vote_is_semimature_only_when_semi_exceeds_mat[semi_greater]",)),
    Mutant("engine.py", "if mcav > config.anomalous_threshold else", "if mcav >= config.anomalous_threshold else",
           ("tests/test_engine.py::TestInlineRules::test_anomalous_only_when_the_mcav_exceeds_the_threshold[mcav_one_at_threshold_one]",)),
    # A DC made in a traced world is named by the next slot's id.
    Mutant("engine.py", "dc.id_text = str(position)", "dc.id_text = str(position + 1)",
           ("tests/test_engine.py::TestLazyPopulation::test_a_dc_made_in_a_traced_world_holds_its_id_text",)),
    # A DC replaced in a traced world keeps its old id's text.
    Mutant("engine.py", "old_text, dc.id_text = dc.id_text, str(dc.dc_id)", "old_text = dc.id_text",
           ("tests/test_engine.py::TestStep::test_a_dc_replaced_in_a_traced_world_holds_its_new_id_text",)),
    Mutant("engine.py", "        if ag is None:  # never owed a bit, or already got its last one\n", "        if False:\n",
           ("tests/test_engine.py::TestFlush::test_bit_for_an_antigen_not_in_flight_is_engine_fault",)),
    # The range check lets NaN through: NaN fails every comparison.
    Mutant("engine.py", "if not all(0.0 <= v <= 1.0 for v in set(", "if any(v < 0.0 or v > 1.0 for v in set(",
           ("tests/test_engine.py::TestRecordsCheck::test_attribute_outside_unit_interval_rejected[nan]",)),
    Mutant("engine.py", "    if max_index >= shortest:\n", "    if max_index > shortest:\n",
           ("tests/test_engine.py::TestRecordsCheck::test_mapping_index_equal_to_the_attribute_count_rejected",)),
    Mutant("engine.py", "    if len(set(ids)) != len(ids):\n", "    if False:\n",
           ("tests/test_engine.py::TestRecordsCheck::test_repeated_antigen_id_rejected_before_the_first_tick[finalized_twice]",)),
    Mutant("data_ingest.py", "    return (value - lo) / (hi - lo)\n", "    return (value - lo) * (1 / (hi - lo))\n",
           ("tests/test_data_ingest.py::TestNormalizeAttribute::test_is_the_literal_quotient_bit_for_bit",)),
    # danger always reuses pamp's mean.
    Mutant("signal_model.py", "    if danger_sources == pamp_sources:\n", "    if True:\n",
           ("tests/test_signal_model.py::TestDeriveInputSignals::test_each_signal_takes_its_own_lists_mean[pamp_equals_safe]",)),
    # safe reuses danger's mean when its own list differs.
    Mutant("signal_model.py", "    elif safe_sources == danger_sources:\n", "    elif True:\n",
           ("tests/test_signal_model.py::TestDeriveInputSignals::test_each_signal_takes_its_own_lists_mean[all_distinct]",)),
    # safe reuses pamp's mean when it shares danger's list instead.
    Mutant("signal_model.py", "    if safe_sources == pamp_sources:\n", "    if safe_sources == danger_sources:\n",
           ("tests/test_signal_model.py::TestDeriveInputSignals::test_each_signal_takes_its_own_lists_mean[danger_equals_safe]",)),
    # The safe row's semi and mat weights swapped.
    Mutant("signal_model.py", "weights.safe[1] * safe", "weights.safe[2] * safe",
           ("tests/test_signal_model.py::TestProcessSignals::test_unit_safe",)),
    Mutant("data_ingest.py", "        if not 0.0 < self.hi - self.lo < math.inf:\n", "        if not self.lo < self.hi:\n",
           ("tests/test_schema.py::test_python_built_component_is_checked_against_its_rows[overflowing_span]",)),
    # Lines split on every break splitlines() knows, a form feed included.
    Mutant("data_ingest.py", '.removeprefix("\\ufeff").split("\\n")', '.removeprefix("\\ufeff").splitlines()',
           ("tests/test_cli.py::TestDatasetGrammar::test_dataset_spelling_rejected_with_exit_3[form_feed_between_rows]",)),
    # The digit check lets through what int() also reads: 1_0 as 10.
    Mutant("data_ingest.py", "if text.isdigit() and text.isascii():", 'if text.replace("_", "").isdigit() and text.isascii():',
           ("tests/test_cli.py::TestDatasetGrammar::test_dataset_spelling_rejected_with_exit_3[underscore]",)),
    # results.csv rounds each MCAV to a tenth: right when k = 10, as in every
    # older pinned output, wrong for the corpus run with k = 7.
    Mutant("cli.py", 'f",{mcav:.6f},', 'f",{round(mcav, 1):.6f},',
           ("tests/test_golden.py::test_corpus_bytes_are_pinned[k_equals_n_impute]",)),
    # A failed write leaves its temp file behind.
    Mutant("cli.py", "            os.unlink(tmp_name)\n", "            pass\n",
           ("tests/test_cli.py::TestRunCommand::test_failed_traced_run_leaves_no_trace_and_no_temp_file",)),
    # The one check for zero records gone: run reaches min() of nothing.
    Mutant("engine.py", "    if not records:\n", "    if False:\n",
           ("tests/test_engine.py::TestRecordsCheck::test_empty_records_rejected",)),
    # A dataset fault exits as a config fault.
    Mutant("cli.py", 'parse failure in {data_path}: {exc}", file=sys.stderr)\n        return EXIT_DATA\n',
           'parse failure in {data_path}: {exc}", file=sys.stderr)\n        return EXIT_CONFIG\n',
           ("tests/test_cli.py::TestRunCommand::test_parse_failure_reports_line",)),
    # A bad field echoed whole: 5000 characters make a 5000-character line.
    Mutant("data_ingest.py", "{what} {brief(text)} is not ASCII digits", "{what} {text!r} is not ASCII digits",
           ("tests/test_cli.py::TestDatasetGrammar::test_long_field_is_echoed_cut_short[5000_character_field]",)),
    # A finished antigen stays in flight: the flush's check finds it left over.
    Mutant("engine.py", "            del in_flight[aid]\n", "            pass\n",
           ("tests/test_engine.py::TestFlush::test_unreachable_thresholds_resolve_everything_at_flush",
            "tests/test_engine.py::TestRun::test_every_record_classified_exactly_once")),
    # Output files are owner-only whatever the umask.
    Mutant("cli.py", "os.O_EXCL, 0o666)", "os.O_EXCL, 0o600)",
           ("tests/test_cli.py::TestRunCommand::test_output_files_take_the_umasks_mode[umask_022]",)),
    # The largest population and histogram size raised: 10^6 + 1 DCs would run.
    Mutant("engine.py", "MAX_SIZE = 10**6", "MAX_SIZE = 10**7",
           ("tests/test_cli.py::TestRunCommand::test_largest_population_runs_and_one_more_is_rejected[one_more]",)),
    Mutant("engine.py", "MAX_SIZE = 10**6", "MAX_SIZE = 11**6",
           ("tests/test_cli.py::TestRunCommand::test_largest_population_runs_and_one_more_is_rejected[one_more]",)),
    # A lazily made DC's threshold decoded from its two words in the wrong order.
    Mutant("engine.py", "u = ((a >> 5) * 67108864.0 + (b >> 6))", "u = ((b >> 5) * 67108864.0 + (a >> 6))",
           ("tests/test_engine.py::TestLazyPopulation::test_thresholds_and_state_are_those_of_n_random_draws[5-100]",)),
    # The second word keeps 27 bits, not random()'s 26.
    Mutant("engine.py", "* 67108864.0 + (b >> 6)", "* 67108864.0 + (b >> 5)",
           ("tests/test_engine.py::TestLazyPopulation::test_thresholds_and_state_are_those_of_n_random_draws[5-100]",)),
    Mutant("engine.py", "DCAgent(position, ", "DCAgent(position + 1, ",
           ("tests/test_engine.py::TestLazyPopulation::test_a_slot_is_made_once_in_place_with_its_position_as_id",)),
    # A never-picked slot's traced discard row names the next slot.
    Mutant("engine.py", "discard,{position},", "discard,{position + 1},",
           ("tests/test_engine.py::TestLazyPopulation::test_when_the_dcs_are_made_changes_no_output",)),
    # Config bounds at their edge: one histogram bin, the smallest positive
    # threshold and a normalization span of exactly 1 are each valid.
    Mutant("engine.py", 'Field(int, 1, MAX_SIZE, note="equal-width', 'Field(int, 2, MAX_SIZE, note="equal-width',
           ("tests/test_engine.py::TestSimConfig::test_one_histogram_bin_runs",)),
    Mutant("engine.py", "Field(float, math.ulp(0.0), sys.float_info.max", "Field(float, math.ulp(1.0), sys.float_info.max",
           ("tests/test_engine.py::TestSimConfig::test_smallest_positive_threshold_is_accepted",)),
    Mutant("data_ingest.py", "if not 0.0 < self.hi - self.lo", "if not 1.0 < self.hi - self.lo",
           ("tests/test_data_ingest.py::TestLoadDataset::test_span_of_one_is_accepted",)),
    # Diagnostics that name the wrong item: the first id seen, not the first repeated.
    Mutant("engine.py", "for aid, n in Counter(ids).items() if n > 1)", "for aid, n in Counter(ids).items() if n >= 1)",
           ("tests/test_engine.py::TestRecordsCheck::test_repeated_id_that_is_not_the_first_is_named",)),
    # An earlier record holding an exact 0.0 or 1.0 named as out of range.
    Mutant("engine.py", "if not all(0.0 <= v <= 1.0 for v in r.attributes)", "if not all(0.0 < v <= 1.0 for v in r.attributes)",
           ("tests/test_engine.py::TestRecordsCheck::test_attribute_outside_unit_interval_rejected[1.5]",)),
    Mutant("engine.py", "if not all(0.0 <= v <= 1.0 for v in r.attributes)", "if not all(0.0 <= v < 1.0 for v in r.attributes)",
           ("tests/test_engine.py::TestRecordsCheck::test_attribute_outside_unit_interval_rejected[1.5]",)),
    # The median's index one lower: an odd count of distinct values takes the one below the middle.
    Mutant("data_ingest.py", "bisect_right(ends, (ends[-1] - 1) // 2)", "bisect_right(ends, (ends[-1] - 2) // 2)",
           ("tests/test_data_ingest.py::TestLoadDataset::test_impute_median_middle_of_three",)),
    # A file of blank lines reaches the parse-error walk, which finds no fault and asserts.
    Mutant("data_ingest.py", "    if not rows:\n", "    if False:\n",
           ("tests/test_data_ingest.py::TestLoadDataset::test_empty_stream",)),
    # An antigen at or below the MCAV cutoff is predicted as its true label.
    Mutant("engine.py", "anomalous_threshold else Category.NORMAL", "anomalous_threshold else ag.true_label",
           ("tests/test_metamorphic.py::test_label_flip_swaps_the_labels_and_nothing_the_engine_computes",)),
    # Each record's antigen id is its row's sample id.
    Mutant("data_ingest.py", "zip(count(), *columns)", "zip(sample_ids, *columns)",
           ("tests/test_metamorphic.py::test_sample_ids_leave_every_file_byte_identical",)),
]


def run_tests(src: Path, tests: tuple[str, ...]) -> int | None:
    """Pytest's exit code for ``tests`` run against the package in ``src``; None past ``TIMEOUT_S``."""
    # CI selects the derandomized hypothesis profile; no bytecode, so no stale .pyc of a mutant.
    env = dict(os.environ, PYTHONPATH=str(src), CI="1", PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


def main() -> int:
    started = time.monotonic()
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
            mutant_started = time.monotonic()
            try:
                code = run_tests(src, m.tests)
            finally:
                path.write_text(original, encoding="utf-8")
            verdict = {0: "SURVIVED", 1: "killed", None: f"timed out after {TIMEOUT_S} s"}.get(code, f"pytest exit {code}")
            print(f"{label}: {verdict} ({time.monotonic() - mutant_started:.1f} s)", flush=True)
            if code != 1:
                failures.append(f"{label}: {verdict}")
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"{len(MUTANTS) - len(failures)} of {len(MUTANTS)} mutants killed in {time.monotonic() - started:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
