"""Command-line entry point: ``python -m repro.experiments <id> [...]``.

Runs one or more experiments (or ``all``) at the scale selected by
``REPRO_SCALE`` (quick / default / full) and prints each one's table.

Simulations fan out across ``--jobs`` worker processes (default: all
CPUs) -- one OS capture per scenario, one TLB replay per design -- and
results persist in an on-disk store (``--cache-dir``, else
``$COLT_RESULT_CACHE``, else ``.colt-cache/``; see ``repro.sim.store``)
so repeated invocations only pay for configurations they have not seen.

Observability (``repro.obs``) is wired here:

* ``--trace [FILE]`` records a Chrome/Perfetto trace of the run
  (spans for boot/capture/replay/store, sampled TLB events) plus a
  ``<FILE stem>.metrics.json`` snapshot;
* ``--profile`` collects the metrics snapshot without event tracing;
* ``--report [FILE]`` prints (or writes) the human run report; it
  switches the tracer on (the phase table needs spans) without writing
  a trace file;
* ``-q`` / ``-v`` control the library log level.

Resilience (``repro.sim.resilience``) is configurable per run with
``--retries`` / ``--task-timeout``. A ``COLT_FAULTS`` plan (see
``repro.sim.faults``), read here once and handed to the runner and the
store, injects deterministic worker crashes, task exceptions, delays
and store corruption for chaos testing. When the resilience layer
absorbed anything, a summary line reports it.

Interrupt and rerun: the result store is the checkpoint. Every
simulation result lands in it as soon as it completes, so rerunning the
same command on the same ``--cache-dir`` resumes an interrupted run
without redoing finished work. SIGINT/SIGTERM are handled two-stage:
the first signal winds the run down gracefully (pending work cancelled,
obs artifacts and the history record flushed) and exits with status
75; a second signal hard-aborts. A task that fails permanently fails
only its experiment: the run goes on to the next one and exits 1.
``--stall-timeout`` / ``--mem-budget`` arm the stall/memory watchdog
(``repro.sim.watchdog``); its stack dumps, like the per-task deadline
dumps, land in ``<store root>/dumps``.

The elapsed-time stamps printed here are display-only terminal feedback
(monotonic ``perf_counter``); they are never serialized into experiment
results, which stay a pure function of configuration and seed. This
file is on the lint's wall-clock allow-list for exactly that scope.
"""

from __future__ import annotations

import argparse
import os
import time
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

from repro.common.errors import (
    MemoryBudgetError,
    ShutdownRequested,
    TaskExecutionError,
)
from repro.obs.export import write_chrome_trace, write_metrics_json
from repro.obs.history import build_record, append_record, history_path
from repro.obs.live import get_progress
from repro.obs.logging import configure_logging
from repro.obs.registry import get_registry
from repro.obs.report import RunReport
from repro.obs.serve import TelemetryServer
from repro.obs.trace import PROFILE_ENV, TRACE_ENV, reset_tracing, span
from repro.sim.engine import resolve_engine
from repro.sim.faults import FaultPlan
from repro.sim.resilience import (
    SHUTDOWN_EXIT_CODE,
    RetryPolicy,
    ShutdownCoordinator,
)
from repro.sim.runner import ExperimentRunner
from repro.sim.store import ResultStore, run_fingerprint
from repro.sim.watchdog import Watchdog, dump_dir_for
from repro.experiments.registry import EXPERIMENTS, resolve_experiments
from repro.experiments.scale import scale_from_env


def _port(text: str) -> int:
    """argparse ``type`` for ``--telemetry-port``: an int in 0..65535."""
    try:
        port = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer port, got {text!r}"
        )
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(
            f"must be in [0, 65535], got {port}"
        )
    return port


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
        epilog="Scale: set REPRO_SCALE=quick|default|full",
    )
    parser.add_argument(
        "ids", nargs="*", metavar="experiment-id",
        help="experiment ids to run, or 'all'",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for capture/replay fan-out "
             "(default: os.cpu_count())",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="do not read or write the on-disk result store",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-store directory; stack dumps go to DIR/dumps "
             "(default: $COLT_RESULT_CACHE or .colt-cache)",
    )
    parser.add_argument(
        "--clear-cache", action="store_true",
        help="clear the result store before running",
    )
    parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="max resubmissions per failed capture/replay task "
             "(default: 2)",
    )
    parser.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-task deadline for pooled execution; 0 disables "
             "(default: none)",
    )
    parser.add_argument(
        "--stall-timeout", type=float, default=None, metavar="SECONDS",
        help="watchdog: seconds without any task completion before "
             "all-thread stacks are dumped and the stuck task is "
             "requeued (default: off)",
    )
    parser.add_argument(
        "--mem-budget", type=float, default=None, metavar="MIB",
        help="watchdog: RSS budget in MiB for this process tree; over "
             "budget the runner degrades (shrink pool -> no prefetch "
             "-> clean abort) (default: off)",
    )
    parser.add_argument(
        "--telemetry-port", type=_port, default=None, metavar="PORT",
        help="serve live telemetry over HTTP on 127.0.0.1:PORT while "
             "the run is in flight (/metrics Prometheus text, "
             "/progress JSON, /healthz); 0 picks an ephemeral port; "
             "implies --profile (default: off)",
    )
    parser.add_argument(
        "--trace", nargs="?", const="colt-trace.json", default=None,
        metavar="FILE",
        help="record a Chrome/Perfetto trace to FILE (default "
             "colt-trace.json) plus a FILE-stem .metrics.json snapshot",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="collect the metrics snapshot without event tracing",
    )
    parser.add_argument(
        "--report", nargs="?", const="-", default=None, metavar="FILE",
        help="print the run report ('-' or no value: stdout; else "
             "write to FILE); records trace events for its phase "
             "table, but writes no trace file",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress summary lines; library logs at ERROR only",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="library log level: -v INFO, -vv DEBUG",
    )
    return parser


def _list_experiments() -> None:
    print("usage: python -m repro.experiments <experiment-id>... | all")
    print("\nAvailable experiments:")
    for experiment in EXPERIMENTS.values():
        print(f"  {experiment.id:10s} {experiment.title}")
    print("\nScale: set REPRO_SCALE=quick|default|full")


def _enable_obs(args) -> bool:
    """Export the obs env vars (workers inherit them); True when active.

    The variables must be set before the runner -- and therefore before
    its store and any pool worker -- is created, because components
    resolve the tracer once at construction.
    """
    active = False
    if args.trace is not None or args.report is not None:
        # The report's phase table is built from spans.
        os.environ[TRACE_ENV] = "1"
        active = True
    if args.profile or args.telemetry_port is not None:
        # Telemetry implies profiling: /metrics and the history record
        # need populated counters, and profiling is the CI-proven
        # bit-identity-safe mode.
        os.environ[PROFILE_ENV] = "1"
        active = True
    if active:
        reset_tracing()
    return active


def _emit_obs(args, runner: ExperimentRunner) -> None:
    """Write/print the requested trace, metrics and report artifacts."""
    events = runner.trace_events()
    snapshot = get_registry().snapshot()
    if args.trace is not None:
        trace_path = Path(args.trace)
        write_chrome_trace(
            trace_path, events,
            metadata={"tool": "repro.experiments", "ids": list(args.ids)},
        )
        metrics_path = trace_path.with_suffix(".metrics.json")
        write_metrics_json(metrics_path, snapshot)
        if not args.quiet:
            print(
                f"trace: {len(events)} events -> {trace_path} "
                f"(metrics: {metrics_path})"
            )
    if args.report is not None:
        report = RunReport.build(
            events, snapshot, dropped_events=runner.dropped_events()
        )
        if args.report == "-":
            print()
            print(report.render(), end="")
        else:
            Path(args.report).write_text(report.render(), encoding="utf-8")
            if not args.quiet:
                print(f"report -> {args.report}")


def _print_summaries(args, runner: ExperimentRunner) -> None:
    summary = runner.store_summary()
    if summary is not None and not args.quiet:
        print(
            f"\nstore: {summary['hits']:.0f} hits, "
            f"{summary['misses']:.0f} misses, "
            f"{summary['evictions']:.0f} evictions, "
            f"{summary['saves']:.0f} saves "
            f"({summary['hit_ratio']:.0%} hit ratio)"
        )
    resilience = runner.resilience_summary()
    if resilience is not None and not args.quiet:
        parts = [
            f"{value} {name}" for name, value in resilience.items() if value
        ]
        print("resilience: " + ", ".join(parts))


def _run_experiments(args, experiments, scale, runner: ExperimentRunner,
                     shutdown: ShutdownCoordinator,
                     faults: Optional[FaultPlan], phase_wall) -> int:
    """Run each experiment in order and print its table.

    A permanent task failure fails only its experiment; the loop goes on
    to the next one and the run exits 1. A shutdown request is honoured
    before every experiment, because a store-warm one never reaches the
    executor's poll. Progress is published as the ``experiments``
    section of ``/progress``.
    """
    progress = get_progress()
    counts = {"done": 0, "failed": 0}

    def publish(current=None) -> None:
        progress.update_section(
            "experiments", current=current, total=len(experiments),
            **counts,
        )

    progress.update(phase="running")
    publish()
    for index, experiment in enumerate(experiments):
        if faults is not None:
            faults.fire("experiment", index)
        shutdown.check()
        publish(experiment.id)
        started = time.perf_counter()
        try:
            with span("experiment", cat="experiment", id=experiment.id):
                result = experiment.run(scale, runner)
        except TaskExecutionError as exc:
            counts["failed"] += 1
            print(f"\n{experiment.id} failed: {exc}")
        else:
            elapsed = time.perf_counter() - started
            phase_wall[experiment.id] = elapsed
            counts["done"] += 1
            if not args.quiet:
                print(f"\n=== {experiment.title} ({elapsed:.1f}s) ===")
                print(result.format_table())
        publish()
    if counts["failed"]:
        print(f"\n{counts['failed']} of {len(experiments)} experiment(s) "
              "failed")
        return 1
    return 0


def _append_history(args, experiments, runner, store, scale, scale_name,
                    engine, jobs, code, phase_wall, total_wall) -> None:
    """Append the run's ``colt-history-v1`` record (best-effort).

    Every store-backed run leaves one record -- including interrupted
    (exit 75) and failed ones, so the trend tables show crashes too.
    """
    if store is None:
        return
    ids = [experiment.id for experiment in experiments]
    if code == 0:
        status = "ok"
    elif code == SHUTDOWN_EXIT_CODE:
        status = "interrupted"
    else:
        status = "failed"
    snapshot = get_registry().snapshot()
    counters = {
        name: snapshot.counter_total(name)
        for name, entry in snapshot.instruments.items()
        if entry["kind"] == "counter"
    }
    wall = dict(phase_wall)
    wall["total"] = total_wall
    record = build_record(
        ts=time.time(),
        status=status,
        figure="+".join(ids),
        scale=scale_name,
        engine=engine,
        fingerprint=run_fingerprint(scale, ids),
        wall=wall,
        counters=counters,
        store=runner.store_summary(),
        telemetry=args.telemetry_port is not None,
        jobs=jobs,
    )
    try:
        path = append_record(history_path(store.root), record)
    except OSError as exc:
        print(f"history: could not append run record: {exc}")
        return
    if not args.quiet:
        print(f"history: {status} record appended to {path}")


def build_watchdog(args, dump_dir) -> Optional[Watchdog]:
    """The watchdog ``--stall-timeout`` / ``--mem-budget`` ask for.

    ``None`` when neither is set (or both are 0): a watchdog with
    nothing to watch would only burn a thread.
    """
    if not args.stall_timeout and not args.mem_budget:
        return None
    return Watchdog(
        stall_timeout_s=args.stall_timeout or None,
        mem_budget_bytes=(
            int(args.mem_budget * 1024 * 1024) if args.mem_budget else None
        ),
        dump_dir=dump_dir,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if not args.ids:
        _list_experiments()
        return 0
    configure_logging(-1 if args.quiet else args.verbose)
    engine = resolve_engine()
    obs_enabled = _enable_obs(args)

    experiments = resolve_experiments(args.ids)
    scale = scale_from_env()
    scale_name = os.environ.get("REPRO_SCALE", "").lower() or "default"
    faults = FaultPlan.from_env()
    store = None
    if not args.no_cache:
        if args.cache_dir is not None:
            store = ResultStore(args.cache_dir, faults=faults)
        else:
            store = ResultStore.from_env(faults=faults)
    if args.clear_cache and store is not None:
        removed = store.clear()
        print(f"cleared {removed} cached results from {store.root}")

    jobs = args.jobs if args.jobs is not None else os.cpu_count() or 1
    policy = RetryPolicy()
    if args.retries is not None:
        policy = replace(policy, max_retries=max(0, args.retries))
    if args.task_timeout is not None and args.task_timeout > 0:
        policy = replace(policy, timeout_s=args.task_timeout)
    shutdown = ShutdownCoordinator().install()
    watchdog = build_watchdog(args, dump_dir_for(store))
    if watchdog is not None:
        watchdog.start()
    runner = ExperimentRunner(
        jobs=jobs, store=store, policy=policy, faults=faults,
        shutdown=shutdown, watchdog=watchdog,
    )

    get_progress().update(
        phase="starting",
        ids=[experiment.id for experiment in experiments],
        engine=engine,
        scale=scale_name,
        jobs=jobs,
    )
    telemetry = None
    if args.telemetry_port is not None:
        telemetry = TelemetryServer(args.telemetry_port)
        bound_port = telemetry.start()
        # Always printed (not gated on --quiet): with port 0 this line
        # is the only way callers learn the ephemeral port.
        print(
            f"telemetry: http://127.0.0.1:{bound_port}/ "
            "(/metrics /progress /healthz)"
        )

    code = 1
    phase_wall = {}
    run_started = time.perf_counter()
    try:
        try:
            code = _run_experiments(
                args, experiments, scale, runner, shutdown, faults,
                phase_wall,
            )
        except ShutdownRequested as exc:
            # First signal: completed results are already checkpointed
            # in the store; finish artifacts and exit resumable.
            where = (
                f"checkpointed in {store.root}" if store is not None
                else "not kept (--no-cache)"
            )
            print(
                f"interrupted by {exc.signal_name}; rerun the same command "
                f"to resume; completed results are {where}"
            )
            code = SHUTDOWN_EXIT_CODE
        except MemoryBudgetError as exc:
            print(f"memory budget exhausted: {exc}")
            code = 1
        finally:
            if watchdog is not None:
                watchdog.stop()
            shutdown.restore()

        get_progress().update(phase="finished", exit_code=code)
        _print_summaries(args, runner)
        if obs_enabled:
            _emit_obs(args, runner)
        _append_history(
            args, experiments, runner, store, scale, scale_name, engine,
            jobs, code, phase_wall, time.perf_counter() - run_started,
        )
    finally:
        if telemetry is not None:
            telemetry.stop()
    return code


if __name__ == "__main__":
    raise SystemExit(main())
