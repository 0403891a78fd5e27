"""Per-layer metrics of an in-process dca-lab run, from spans around each module.

The layers are the modules of ``dca_lab``. A hook wraps a module-level
name that another module calls (or, for the trace writer, a method), so
the run itself is the unmodified ``dca_lab.cli.main``. Hooks on ``agents``
and ``signal_model`` names are optional: their metrics are reported only
while those names are still called, so an engine that stops calling them
drops those metrics instead of failing the benchmark.
"""

from __future__ import annotations

import statistics
from pathlib import Path

from spans import Patches, SpanRecorder

MODULES = ("agents", "analysis", "cli", "data_ingest", "engine", "signal_model")

#: (span name, module, attribute path within the module)
SPANS = (
    ("data_ingest.load_dataset", "data_ingest", "load_dataset"),
    ("signal_model.derive_input_signals", "signal_model", "derive_input_signals"),
    ("signal_model.process_signals", "signal_model", "process_signals"),
    ("agents.sample_dcs", "agents", "sample_dcs"),
    ("agents.dc_handle_picked", "agents", "dc_handle_picked"),
    ("engine.run", "engine", "run"),
    ("engine.init_world", "engine", "init_world"),
    ("engine.step", "engine", "step"),
    ("engine.migrate", "engine", "_migrate"),
    ("engine.flush", "engine", "flush"),
    ("engine.trace_emit", "engine", "TraceLog.emit"),
    ("analysis.compute_metrics", "analysis", "compute_metrics"),
    ("analysis.build_histogram", "analysis", "build_histogram"),
    ("cli.results_csv_text", "cli", "results_csv_text"),
    ("cli.report_json_text", "cli", "report_json_text"),
    ("cli.histogram_csv_text", "cli", "histogram_csv_text"),
    ("cli.atomic_write", "cli", "_atomic_write_text"),
)
#: Hooks that only count calls: one per context bit, too many to time cheaply.
COUNTS = (("agents.antigen_handle_context", "agents", "antigen_handle_context"),)
CLI_WRITES = (
    "cli.results_csv_text",
    "cli.report_json_text",
    "cli.histogram_csv_text",
    "cli.atomic_write",
)
#: Metrics that are a pure function of the inputs and must repeat exactly.
DETERMINISTIC = (
    "data_ingest.rows",
    "signal_model.derive_calls",
    "agents.sample_dcs_calls",
    "agents.contexts",
    "engine.migrations",
    "engine.flush_votes",
    "engine.natural_vote_frac",
    "engine.trace_emit_calls",
    "cli.output_bytes",
    "cli.trace_bytes",
)


class TracedRun:
    """Context manager that hooks the package for one run, then unhooks it.

    After the run, ``metrics`` gives the per-layer metrics, ``spans`` the
    per-span-name table, and ``mcavs`` the run's {antigen_id: mcav}.
    """

    def __init__(self, package: dict) -> None:
        self._package = package
        self.recorder = SpanRecorder()
        self.installed: set[str] = set()
        self._probes: dict = {}

    def __enter__(self) -> "TracedRun":
        self._patches = Patches(self._package.values())
        probes = {
            "data_ingest.load_dataset": self._probe_load,
            "engine.run": self._probe_run,
            "engine.flush": self._probe_flush,
        }
        for name, module, path in SPANS:
            probe = probes.get(name, lambda fn: fn)
            self._hook(name, module, path, lambda fn, n=name, p=probe: self.recorder.span(n, p(fn)))
        for name, module, path in COUNTS:
            self._hook(name, module, path, lambda fn, n=name: self.recorder.count(n, fn))
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()

    def _hook(self, name: str, module: str, path: str, make) -> None:
        owner = self._package[module]
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent, None)
        if owner is not None and self._patches.wrap(owner, attr, make):
            self.installed.add(name)

    def _probe_load(self, fn):
        def load_dataset(*args, **kwargs):
            records, summary = fn(*args, **kwargs)
            self._probes["rows"] = summary.rows_read
            return records, summary

        return load_dataset

    def _probe_run(self, fn):
        def run(*args, **kwargs):
            report = fn(*args, **kwargs)
            self._probes["report"] = report
            return report

        return run

    def _probe_flush(self, fn):
        # Votes delivered before the flush came from natural migrations.
        def flush(world, *args, **kwargs):
            natural = world.contexts_delivered
            result = fn(world, *args, **kwargs)
            self._probes["votes"] = (natural, world.contexts_delivered - natural)
            return result

        return flush

    @property
    def mcavs(self) -> dict[int, float]:
        return {r.antigen_id: r.mcav for r in self._probes["report"].results}

    @property
    def spans(self) -> dict[str, dict]:
        return {
            name: {"calls": calls, "total_s": total, "self_s": own}
            for name, (calls, total, own) in self.recorder.summary().items()
        }

    def metrics(self, out_dir: Path) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}."""
        summary = self.recorder.summary()

        def calls(name):
            return summary.get(name, (0, 0.0, 0.0))[0]

        def total(*names):
            return sum(summary.get(n, (0, 0.0, 0.0))[1] for n in names)

        def have(*names):
            return all(n in self.installed for n in names)

        def called(name):
            return have(name) and (calls(name) or self.recorder.counts.get(name))

        m: dict[str, tuple[float, str]] = {}
        if have("data_ingest.load_dataset"):
            m["data_ingest.load_s"] = (total("data_ingest.load_dataset"), "s")
            m["data_ingest.rows"] = (self._probes["rows"], "count")
        derive = "signal_model.derive_input_signals"
        if called(derive):
            m["signal_model.derive_calls"] = (calls(derive), "count")
            m["signal_model.derive_s"] = (total(derive, "signal_model.process_signals"), "s")
        if called("agents.sample_dcs"):
            m["agents.sample_dcs_calls"] = (calls("agents.sample_dcs"), "count")
            m["agents.sample_dcs_s"] = (total("agents.sample_dcs"), "s")
        if called("agents.dc_handle_picked"):
            m["agents.dc_handle_picked_s"] = (total("agents.dc_handle_picked"), "s")
        if called("agents.antigen_handle_context"):
            m["agents.contexts"] = (self.recorder.counts["agents.antigen_handle_context"], "count")
        if have("engine.init_world"):
            m["engine.init_world_s"] = (total("engine.init_world"), "s")
        if have("engine.step"):
            ticks = [d * 1e6 for d in self.recorder.durations("engine.step")]
            m["engine.step_s"] = (total("engine.step"), "s")
            m["engine.step_self_s"] = (summary["engine.step"][2], "s")
            m["engine.tick_us_p50"] = (statistics.median(ticks), "us")
            p99 = statistics.quantiles(ticks, n=100)[98] if len(ticks) > 1 else ticks[0]
            m["engine.tick_us_p99"] = (p99, "us")
        if have("engine.migrate"):
            m["engine.migrations"] = (calls("engine.migrate"), "count")
        if have("engine.flush"):
            natural, forced = self._probes["votes"]
            m["engine.flush_s"] = (total("engine.flush"), "s")
            m["engine.flush_votes"] = (forced, "count")
            m["engine.natural_vote_frac"] = (natural / (natural + forced), "frac")
        if have("engine.trace_emit"):
            m["engine.trace_emit_calls"] = (calls("engine.trace_emit"), "count")
            m["engine.trace_emit_s"] = (total("engine.trace_emit"), "s")
        if have("analysis.compute_metrics"):
            m["analysis.compute_metrics_s"] = (total("analysis.compute_metrics"), "s")
        if have("analysis.build_histogram"):
            m["analysis.build_histogram_s"] = (total("analysis.build_histogram"), "s")
        if have(*CLI_WRITES):
            m["cli.write_s"] = (total(*CLI_WRITES), "s")
        trace_file = out_dir / "trace.csv"
        m["cli.output_bytes"] = (
            sum(p.stat().st_size for p in out_dir.iterdir() if p != trace_file),
            "B",
        )
        m["cli.trace_bytes"] = (trace_file.stat().st_size if trace_file.exists() else 0, "B")
        return m
