"""Which entry points the traced run times, and the per-layer metrics.

A layer is a module of the simulator. Each entry point below is wrapped
at the name its caller looks it up by, so a call through any other path
is not timed. Calls that happen on behalf of an enclosing layer (a
``Kernel.tick`` during aging, a page-table lookup inside compaction)
stay in that layer's self time: the OS-side leaves only record when
they are called directly from the capture run loop.
"""

from __future__ import annotations

from typing import Dict

from spans import EntryPoint, SpanStats

ROOT = "bench.workload"
EXPERIMENT = "experiments.run"
RUN_LOOP = "sim.scenario.run_loop"

#: Per-layer time metrics: (metric, span name, "incl" | "self", name of
#: the call-count metric or None when another row already reports it).
TIME_METRICS = (
    ("osmem.boot_s", "osmem.boot", "incl", "osmem.boot.calls"),
    ("osmem.age_s", "osmem.age", "incl", "osmem.age.calls"),
    ("osmem.tick_s", "osmem.tick", "incl", "osmem.tick.calls"),
    ("osmem.churn_s", "osmem.churn", "incl", "osmem.churn.calls"),
    ("osmem.page_table.lookup_s", "osmem.page_table.lookup", "incl",
     "osmem.page_table.lookup.calls"),
    ("osmem.page_table.walk_path_s", "osmem.page_table.walk_path", "incl",
     "osmem.page_table.walk_path.calls"),
    ("osmem.page_table.pte_line_s", "osmem.page_table.pte_line", "incl",
     "osmem.page_table.pte_line.calls"),
    ("workloads.trace_s", "workloads.trace", "incl", "workloads.trace.calls"),
    ("sim.scenario.layout_s", "sim.scenario.prepare", "self",
     "sim.scenario.layout.calls"),
    ("sim.scenario.run_loop_s", RUN_LOOP, "self", "sim.scenario.run_loop.calls"),
    ("sim.scenario.finish_s", "sim.scenario.capture", "self", None),
    ("sim.scenario.capture_s", "sim.scenario.capture", "incl",
     "sim.scenario.capture.calls"),
    ("contiguity.scan_s", "contiguity.scan", "incl", "contiguity.scan.calls"),
    ("sim.engine.replay_s", "sim.engine.replay", "incl",
     "sim.engine.replay.calls"),
    ("sim.store.save_s", "sim.store.save", "incl", "sim.store.save.calls"),
    ("sim.runner.self_s", "sim.runner.run_batch", "self",
     "sim.runner.run_batch.calls"),
    ("experiments.self_s", EXPERIMENT, "self", "experiments.calls"),
)


def entry_points():
    """The simulator's layer boundaries, as wrap targets."""
    import repro.sim.runner as runner_module
    import repro.sim.scenario as scenario_module
    from repro.contiguity.scanner import ContiguityReport
    from repro.osmem.kernel import Kernel
    from repro.osmem.memhog import Memhog
    from repro.osmem.page_table import PageTable
    from repro.sim.runner import ExperimentRunner
    from repro.sim.scenario import ScenarioEngine
    from repro.sim.store import ResultStore

    return (
        EntryPoint(ExperimentRunner, "run_batch", "sim.runner.run_batch"),
        EntryPoint(runner_module, "capture_scenario", "sim.scenario.capture"),
        EntryPoint(
            runner_module, "replay_with_engine", "sim.engine.replay", leaf=True
        ),
        EntryPoint(ScenarioEngine, "prepare", "sim.scenario.prepare"),
        EntryPoint(ScenarioEngine, "run_loop", RUN_LOOP),
        EntryPoint(scenario_module, "Kernel", "osmem.boot"),
        EntryPoint(scenario_module, "age_system", "osmem.age"),
        EntryPoint(Memhog, "start", "osmem.age"),
        EntryPoint(scenario_module, "generate_trace", "workloads.trace"),
        EntryPoint(
            Kernel, "tick", "osmem.tick", leaf=True, only_under=RUN_LOOP
        ),
        EntryPoint(
            Kernel, "malloc", "osmem.churn", leaf=True, only_under=RUN_LOOP
        ),
        EntryPoint(
            Kernel, "free_vma", "osmem.churn", leaf=True, only_under=RUN_LOOP
        ),
        EntryPoint(
            PageTable, "lookup", "osmem.page_table.lookup",
            leaf=True, only_under=RUN_LOOP,
        ),
        EntryPoint(
            PageTable, "walk_path_addresses", "osmem.page_table.walk_path",
            leaf=True, only_under=RUN_LOOP,
        ),
        EntryPoint(
            PageTable, "pte_cache_line", "osmem.page_table.pte_line",
            leaf=True, only_under=RUN_LOOP,
        ),
        EntryPoint(
            ContiguityReport, "from_process", "contiguity.scan", leaf=True
        ),
        EntryPoint(ResultStore, "save", "sim.store.save", leaf=True),
    )


def layer_metrics(stats: Dict[str, SpanStats]) -> Dict[str, float]:
    """Seconds and call counts per layer from the span summary."""
    empty = SpanStats(0, 0, 0)
    metrics: Dict[str, float] = {}
    for metric, span_name, kind, calls_metric in TIME_METRICS:
        entry = stats.get(span_name, empty)
        ns = entry.incl_ns if kind == "incl" else entry.self_ns
        metrics[metric] = ns / 1e9
        if calls_metric is not None:
            metrics[calls_metric] = entry.calls
    return metrics
