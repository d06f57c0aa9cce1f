"""One pass of a workload, run in a fresh interpreter.

The parent (``run.py``) starts one process per pass so every pass pays
the same cold costs a command-line run pays, and so its peak RSS is its
own. A pass runs each experiment of the workload through the public API
exactly as ``python -m repro.experiments`` does by default::

    get_experiment(id).run(scale, ExperimentRunner(jobs, store=ResultStore(dir)))

with the QUICK scale and the benchmark's seed, the replay engine left
at the program default, and a fresh, empty store directory.

A traced pass additionally wraps the layers' entry points (see
``layers.py``) and returns the span summary and the exact simulated
event counts. No simulator code is changed to do so.
"""

from __future__ import annotations

import resource
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Sequence

import numpy

import repro.sim.runner as runner_module
from repro.experiments.registry import get_experiment
from repro.experiments.scale import QUICK
from repro.sim.engine import resolve_engine
from repro.sim.runner import ExperimentRunner
from repro.sim.scenario import scenario_config
from repro.sim.store import ResultStore

from check import PassOutputs, config_digest, config_invariant_errors, digest
from layers import EXPERIMENT, ROOT, entry_points
from spans import SpanRecorder, install, self_times_ns, summarize, uninstall

#: Kernel counters that each record one compaction run.
COMPACTION_COUNTERS = (
    "fault_compactions",
    "background_compactions",
    "oom_compactions",
    "pressure_compactions",
)


def build(seed: int, jobs: int, store_dir: str):
    """The set-up a command-line run performs before its first experiment."""
    scale = QUICK.with_updates(seed=seed)
    runner = ExperimentRunner(jobs=jobs, store=ResultStore(store_dir))
    return scale, runner


def environment() -> Dict[str, str]:
    return {"engine": resolve_engine(None), "numpy": numpy.__version__}


def _peak_rss_mb() -> float:
    """Largest peak RSS of this process or any of its pool workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def run_pass(
    experiment_ids: Sequence[str],
    seed: int,
    jobs: int,
    store_dir: str,
    traced: bool = False,
) -> dict:
    recorder = SpanRecorder() if traced else None
    captures: List[dict] = []
    saved = []
    if traced:
        capture = runner_module.capture_scenario

        def keep_capture(config):
            scenario = capture(config)
            captures.append(
                {
                    "accesses": scenario.accesses,
                    "unique_rows": int(scenario.records.shape[0]),
                    "shootdowns": int(scenario.inval_before.size),
                    "compactions": sum(
                        scenario.kernel_counters[name]
                        for name in COMPACTION_COUNTERS
                    ),
                }
            )
            return scenario

        saved.append((runner_module, "capture_scenario", capture))
        runner_module.capture_scenario = keep_capture
        saved.extend(install(recorder, entry_points()))

    scale, runner = build(seed, jobs, store_dir)
    simulated: Dict = {}
    run_batch = runner.run_batch

    def keep_results(configs):
        results = run_batch(configs)
        simulated.update(results)
        return results

    runner.run_batch = keep_results

    span = recorder.span if traced else (lambda name: nullcontext())
    outputs = PassOutputs()
    started = time.perf_counter_ns()
    try:
        with span(ROOT):
            for exp_id in experiment_ids:
                with span(EXPERIMENT):
                    try:
                        result = get_experiment(exp_id).run(scale, runner)
                        outputs.tables[exp_id] = digest(result.format_table())
                    except Exception as exc:  # counted as failed; go on
                        outputs.errors.append(
                            f"{exp_id}: {type(exc).__name__}: {exc}"
                        )
        wall_ns = time.perf_counter_ns() - started
    finally:
        uninstall(saved)

    for result in simulated.values():
        outputs.configs.append(config_digest(result))
        outputs.errors.extend(config_invariant_errors(result))
    scenarios = {scenario_config(config) for config in simulated}
    replayed = sum(config.accesses for config in simulated)
    record = {
        "wall_s": wall_ns / 1e9,
        "accesses": replayed + sum(config.accesses for config in scenarios),
        "configs": len(simulated),
        "captures": len(scenarios),
        "peak_rss_mb": _peak_rss_mb(),
        "outputs": outputs.as_json(),
    }
    if traced:
        record["wall_ns"] = wall_ns
        record["spans"] = {
            name: [stats.calls, stats.incl_ns, stats.self_ns]
            for name, stats in summarize(recorder.nodes).items()
        }
        record["min_self_ns"] = min(self_times_ns(recorder.nodes).values())
        record["counts"] = _event_counts(simulated.values(), captures, replayed)
        record["store_bytes"] = sum(
            path.stat().st_size for path in Path(store_dir).glob("*.pkl")
        )
    return record


def _event_counts(results, captures: List[dict], replayed: int) -> dict:
    """Exact simulated-event totals of one pass (repeat bit for bit)."""
    results = list(results)
    captured = sum(capture["accesses"] for capture in captures)
    unique_rows = sum(capture["unique_rows"] for capture in captures)
    return {
        "tlb.l1_misses": sum(result.l1_misses for result in results),
        "tlb.l2_misses": sum(result.l2_misses for result in results),
        "walker.walks": sum(r.mmu_counters["walks"] for r in results),
        "tlb.coalesced_fills": sum(
            r.mmu_counters["coalesced_fills"] for r in results
        ),
        "osmem.compactions": sum(c["compactions"] for c in captures),
        "sim.scenario.shootdowns": sum(c["shootdowns"] for c in captures),
        "sim.scenario.unique_rows": unique_rows,
        "sim.scenario.captured_accesses": captured,
        "sim.scenario.unique_row_ratio": (
            unique_rows / captured if captured else 0.0
        ),
        "sim.engine.replayed_accesses": replayed,
    }
