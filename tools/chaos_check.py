"""Chaos invariant check: faulted runs must be bit-identical to clean.

Every mode drives the fig18 QUICK pipeline through some injected
failure and proves the recovery machinery converges on the clean
results. ``--list-modes`` enumerates them:

``store`` (default)
    Three in-process runs: **clean** (cold store A), **chaos** (cold
    store B under a ``COLT_FAULTS`` plan that crashes a capture worker,
    raises in a replay task, and tears/flips two store writes), and
    **resume** (a fault-free runner over the corrupted store B, which
    must quarantine exactly the corrupt entries and recompute them).

``interrupt`` (``--interrupt``)
    End-to-end interrupt-and-rerun invariant via
    ``python -m repro.experiments`` subprocesses: a clean run; a served
    run (``--telemetry-port 0``) probed live on /healthz, /progress and
    /metrics, then SIGTERMed between experiments (exit 75, port
    released, a non-ok history record); a rerun of the same command
    that must print byte-identical tables from store hits and append
    an ok record; and a stall-watchdog run that must dump stacks yet
    converge.

Exit status is non-zero on any divergence. Because injected faults only
kill/delay/corrupt -- they never feed a number into a simulation -- any
mismatch here is a real determinism or recovery bug.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import urllib.error
import urllib.request
from pathlib import Path

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.obs.history import history_path, load_history  # noqa: E402
from repro.sim.faults import FaultPlan  # noqa: E402
from repro.sim.resilience import SHUTDOWN_EXIT_CODE, RetryPolicy  # noqa: E402
from repro.sim.runner import ExperimentRunner  # noqa: E402
from repro.sim.store import QUARANTINE_DIR, ResultStore  # noqa: E402
from repro.experiments.registry import get_experiment  # noqa: E402
from repro.experiments.scale import QUICK  # noqa: E402

#: One worker crash, one task exception, one torn and one bit-flipped
#: store write -- every fault kind the plan grammar knows.
DEFAULT_PLAN = (
    "crash@capture:0;raise@replay:1;torn@store.write:0;corrupt@store.write:2"
)

#: Store-write indices DEFAULT_PLAN corrupts (drives the expected
#: quarantine count of the resume phase).
CORRUPTED_WRITES = 2

FIGURE = "fig18"

#: Experiments for the interrupt check. fig19 replays fig18's scenario
#: groups, so the second experiment is cheap but still a separate step
#: of the loop.
INTERRUPT_IDS = ("fig18", "fig19")

#: Parent-process hold before experiment 1 (``delay@experiment:1``): a
#: window in which the SIGTERM deterministically lands after fig18's
#: table and before fig19 starts, so the signal always interrupts a
#: running run rather than racing its completion.
HOLD_SECONDS = 10.0

#: Stall-watchdog phase: the first capture sleeps DELAY, the watchdog
#: trips at STALL (well above a healthy QUICK capture's ~2s) and
#: requeues it; the retried attempt escapes the x1 fault.
STALL_DELAY_SECONDS = 12.0
STALL_TIMEOUT_SECONDS = 4.0


def _run_pipeline(runner: ExperimentRunner) -> str:
    """Run the figure under ``runner``; return its formatted table."""
    return get_experiment(FIGURE).run(QUICK, runner).format_table()


def _compare(name: str, clean: ExperimentRunner, other: ExperimentRunner,
             clean_table: str, other_table: str) -> int:
    failures = 0
    if other_table != clean_table:
        print(f"FAIL: {name} table differs from clean run", file=sys.stderr)
        failures += 1
    if other._cache != clean._cache:
        differing = [
            config
            for config, result in clean._cache.items()
            if other._cache.get(config) != result
        ]
        print(
            f"FAIL: {name} results differ from clean run for "
            f"{len(differing)} config(s): "
            + "; ".join(
                f"{c.benchmark}/{c.design.value}" for c in differing[:4]
            ),
            file=sys.stderr,
        )
        failures += 1
    if not failures:
        print(f"ok: {name} results bit-identical to clean run")
    return failures


# ----------------------------------------------------------------------
# Shared CLI-subprocess helpers.
# ----------------------------------------------------------------------

#: The always-printed line that announces the bound telemetry port
#: (the only way to learn it when ``--telemetry-port 0`` is used).
TELEMETRY_LINE = re.compile(r"telemetry: http://127\.0\.0\.1:(\d+)/")

#: A table header, ``=== <title> (<elapsed>s) ===``.
HEADER_LINE = re.compile(r"^=== (.*?)(?: \(\d+\.\ds\))? ===$")


def _run_env(faults: str = "") -> dict:
    """Subprocess environment: QUICK scale, src on path, chosen faults."""
    env = dict(os.environ)
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_SCALE"] = "quick"
    # Table headers must reach a watching reader as they are printed.
    env["PYTHONUNBUFFERED"] = "1"
    if faults:
        env["COLT_FAULTS"] = faults
    else:
        env.pop("COLT_FAULTS", None)
    return env


def _run_cmd(cache_dir: str, jobs: int, ids=INTERRUPT_IDS, extra=()):
    return [
        sys.executable, "-m", "repro.experiments", *ids,
        "--jobs", str(jobs), "--cache-dir", cache_dir, *extra,
    ]


def _printed_tables(out: str) -> dict:
    """Experiment title -> printed table text, elapsed stamps dropped."""
    tables: dict = {}
    title = None
    for line in out.splitlines():
        header = HEADER_LINE.match(line)
        if header:
            title = header.group(1)
            tables[title] = ""
        elif title is not None and line.startswith("store: "):
            title = None
        elif title is not None:
            tables[title] += line + "\n"
    return {name: text.strip("\n") for name, text in tables.items()}


def _checked_run(label: str, cache_dir: str, jobs: int, faults: str = "",
                 ids=INTERRUPT_IDS, extra=()):
    """Run one CLI subprocess; None (after a FAIL line) on rc != 0."""
    result = subprocess.run(
        _run_cmd(cache_dir, jobs, ids=ids, extra=extra),
        env=_run_env(faults), capture_output=True, text=True,
    )
    if result.returncode != 0:
        print(f"FAIL: {label} exited {result.returncode}\n"
              f"{result.stdout}{result.stderr}", file=sys.stderr)
        return None
    return result


def _same_tables(label: str, tables: dict, clean: dict) -> int:
    """Printed tables must be byte-identical to the clean run's."""
    if tables != clean:
        differing = sorted(
            name for name in set(tables) | set(clean)
            if tables.get(name) != clean.get(name)
        )
        print(f"FAIL: {label} tables differ from clean run: {differing}",
              file=sys.stderr)
        return 1
    print(f"  {label}: {len(tables)} table(s) byte-identical to clean run")
    return 0


class _WatchedRun:
    """A CLI subprocess whose merged output a reader thread collects.

    ``port_seen`` is set on the telemetry announcement and
    ``table_seen`` on the first table header; both are also set at EOF,
    so a waiter never hangs on a child that died early.
    """

    def __init__(self, cmd, env) -> None:
        self.proc = subprocess.Popen(
            cmd, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        self.lines: list = []
        self.port = None
        self.port_seen = threading.Event()
        self.table_seen = threading.Event()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line)
            match = TELEMETRY_LINE.search(line)
            if match and self.port is None:
                self.port = int(match.group(1))
                self.port_seen.set()
            if HEADER_LINE.match(line.rstrip("\n")):
                self.table_seen.set()
        self.port_seen.set()
        self.table_seen.set()

    def finish(self, timeout: float) -> str:
        """Wait for exit (killing it after ``timeout``); all output."""
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=10.0)
        return "".join(self.lines)


def _get(port: int, route: str, timeout: float = 5.0) -> bytes:
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{route}", timeout=timeout
    ) as response:
        return response.read()


# ----------------------------------------------------------------------
# Modes.
# ----------------------------------------------------------------------

def _store_check(args) -> int:
    policy = RetryPolicy(max_retries=3, backoff_s=0.05, timeout_s=600.0)
    failures = 0

    with tempfile.TemporaryDirectory(prefix="colt-chaos-") as tmp:
        clean_dir = os.path.join(tmp, "clean")
        chaos_dir = os.path.join(tmp, "chaos")

        print(f"clean run (jobs={args.jobs})")
        clean = ExperimentRunner(
            jobs=args.jobs, store=ResultStore(clean_dir), policy=policy
        )
        clean_table = _run_pipeline(clean)

        plan = FaultPlan.parse(args.faults)
        print(f"chaos run (faults: {plan.render()})")
        chaos = ExperimentRunner(
            jobs=args.jobs,
            store=ResultStore(chaos_dir, faults=plan),
            policy=policy,
            faults=plan,
        )
        chaos_table = _run_pipeline(chaos)
        failures += _compare("chaos", clean, chaos, clean_table, chaos_table)
        resilience = chaos.resilience_summary()
        if resilience is None:
            print("FAIL: chaos run reported no resilience activity "
                  "(did the plan fire?)", file=sys.stderr)
            failures += 1
        else:
            print("  resilience: " + ", ".join(
                f"{v} {k}" for k, v in resilience.items() if v))

        print("resume run (fault-free, over the corrupted chaos store)")
        resume_store = ResultStore(chaos_dir)
        resume = ExperimentRunner(
            jobs=args.jobs, store=resume_store, policy=policy
        )
        resume_table = _run_pipeline(resume)
        failures += _compare(
            "resume", clean, resume, clean_table, resume_table
        )
        counts = resume_store.counters.as_dict()
        if counts["quarantines"] != CORRUPTED_WRITES:
            print(
                f"FAIL: expected {CORRUPTED_WRITES} quarantined entries, "
                f"got {counts['quarantines']:.0f}",
                file=sys.stderr,
            )
            failures += 1
        else:
            print(f"  quarantined {counts['quarantines']:.0f} corrupted "
                  f"entries, {counts['hits']:.0f} warm hits")
        quarantined = len(
            list((resume_store.root / QUARANTINE_DIR).glob("*.pkl"))
        )
        if quarantined != CORRUPTED_WRITES:
            print(
                f"FAIL: quarantine dir holds {quarantined} entries, "
                f"expected {CORRUPTED_WRITES}",
                file=sys.stderr,
            )
            failures += 1
        # Zero leakage: after the resume repaired the store, every live
        # entry must decode -- a second warm pass sees only hits.
        verify_store = ResultStore(chaos_dir)
        for config in clean._cache:
            if verify_store.load(config) is None:
                print(
                    "FAIL: repaired store still missing/corrupt for "
                    f"{config.benchmark}/{config.design.value}",
                    file=sys.stderr,
                )
                failures += 1
        verify_counts = verify_store.counters.as_dict()
        if verify_counts["quarantines"] or verify_counts["misses"]:
            print(
                "FAIL: repaired store not fully warm "
                f"({verify_counts['misses']:.0f} misses, "
                f"{verify_counts['quarantines']:.0f} quarantines)",
                file=sys.stderr,
            )
            failures += 1
        else:
            print(
                f"  repaired store fully warm: {verify_counts['hits']:.0f} "
                "hits, no residual corruption"
            )

    if failures:
        print(f"chaos check FAILED ({failures} divergence(s))",
              file=sys.stderr)
        return 1
    print("chaos check passed: all faulted runs bit-identical to clean")
    return 0


def _interrupt_check(args) -> int:
    failures = 0
    fig18_title = get_experiment(FIGURE).title
    with tempfile.TemporaryDirectory(prefix="colt-interrupt-") as tmp:
        clean_dir = os.path.join(tmp, "clean")
        cache_dir = os.path.join(tmp, "served")
        stall_dir = os.path.join(tmp, "stall")
        dump_dir = os.path.join(stall_dir, "dumps")

        print(f"clean run {' '.join(INTERRUPT_IDS)} (jobs={args.jobs})")
        clean = _checked_run("clean run", clean_dir, args.jobs)
        if clean is None:
            return 1
        clean_tables = _printed_tables(clean.stdout)
        if len(clean_tables) != len(INTERRUPT_IDS):
            print(f"FAIL: clean run printed {sorted(clean_tables)}",
                  file=sys.stderr)
            return 1

        # Served phase: hold experiment 1 open, probe all three
        # endpoints live once fig18's table is out, then SIGTERM. The
        # server must come down with the process (exit 75, port
        # released) and the run must still leave a non-ok record.
        print("served run (SIGTERM between experiments, "
              "--telemetry-port 0)")
        run = _WatchedRun(
            _run_cmd(cache_dir, args.jobs, extra=("--telemetry-port", "0")),
            _run_env(f"delay@experiment:1/{HOLD_SECONDS:g}"),
        )
        run.port_seen.wait(60.0)
        run.table_seen.wait(300.0)
        if run.port is None or run.proc.poll() is not None:
            out = run.finish(60.0)
            print(f"FAIL: served run ended (rc={run.proc.returncode}) or "
                  f"never announced its port before it could be "
                  f"probed\n{out}", file=sys.stderr)
            return 1
        port = run.port
        try:
            if _get(port, "/healthz").strip() != b"ok":
                print("FAIL: /healthz did not answer ok", file=sys.stderr)
                failures += 1
            progress = json.loads(_get(port, "/progress"))
            if "phase" not in progress or "experiments" not in progress:
                print(f"FAIL: /progress incomplete while running: "
                      f"{sorted(progress)}", file=sys.stderr)
                failures += 1
            metrics = _get(port, "/metrics").decode("utf-8")
            if "colt_store_misses" not in metrics:
                print("FAIL: live /metrics lacks store counters",
                      file=sys.stderr)
                failures += 1
        except (urllib.error.URLError, OSError) as exc:
            print(f"FAIL: live telemetry probe failed: {exc}",
                  file=sys.stderr)
            failures += 1
        if not failures:
            print(f"  live probes ok on port {port} "
                  f"(experiments={progress['experiments']})")

        run.proc.send_signal(signal.SIGTERM)
        out = run.finish(120.0)
        if run.proc.returncode != SHUTDOWN_EXIT_CODE:
            print(f"FAIL: served run exited {run.proc.returncode}, "
                  f"expected {SHUTDOWN_EXIT_CODE}\n{out}", file=sys.stderr)
            failures += 1
        try:
            _get(port, "/healthz", timeout=2.0)
            print(f"FAIL: port {port} still answering after exit "
                  "(telemetry thread leaked)", file=sys.stderr)
            failures += 1
        except (urllib.error.URLError, OSError):
            pass  # refused/reset: the server came down with the process
        records = load_history(history_path(cache_dir))
        if not records or records[-1].get("status") == "ok" or \
                not records[-1].get("telemetry"):
            print(f"FAIL: interrupted run's newest history record is "
                  f"{records[-1] if records else None!r}; expected a "
                  "non-ok telemetry record", file=sys.stderr)
            failures += 1
        else:
            print(f"  exit {SHUTDOWN_EXIT_CODE}, port released, history "
                  f"recorded status={records[-1]['status']!r}")

        # Rerun phase: the same command over the same store is the
        # resume. Everything the interrupted run finished (all of
        # fig18) must come back as store hits.
        checkpointed = len(list(Path(cache_dir).glob("*.pkl")))
        print(f"rerun (same command, {checkpointed} checkpointed results)")
        rerun = _checked_run("rerun", cache_dir, args.jobs)
        if rerun is None:
            return 1
        failures += _same_tables(
            "rerun", _printed_tables(rerun.stdout), clean_tables
        )
        history = load_history(history_path(cache_dir))
        newest = history[-1] if history else {}
        hits = newest.get("store", {}).get("hits")
        if len(history) != len(records) + 1 or newest.get("status") != "ok":
            print(f"FAIL: rerun did not append an ok record "
                  f"({len(records)} -> {len(history)} records, newest "
                  f"{newest.get('status')!r})", file=sys.stderr)
            failures += 1
        elif not checkpointed or hits != checkpointed:
            print(f"FAIL: rerun reused {hits} of {checkpointed} "
                  "checkpointed results", file=sys.stderr)
            failures += 1
        else:
            print(f"  all {checkpointed} fig18 results were store hits; "
                  "newest history status='ok'")

        print(f"stalled run (capture sleeps {STALL_DELAY_SECONDS:g}s, "
              f"watchdog at {STALL_TIMEOUT_SECONDS:g}s)")
        stalled = _checked_run(
            "stalled run", stall_dir, args.jobs,
            faults=f"delay@capture:0/{STALL_DELAY_SECONDS:g}",
            ids=(FIGURE,),
            extra=("--stall-timeout", f"{STALL_TIMEOUT_SECONDS:g}"),
        )
        if stalled is None:
            return 1
        dumps = sorted(Path(dump_dir).glob("stall-*.txt"))
        if not dumps:
            print("FAIL: stall watchdog left no stack-dump artifact "
                  f"under {dump_dir}", file=sys.stderr)
            failures += 1
        failures += _same_tables(
            "stalled run", _printed_tables(stalled.stdout),
            {fig18_title: clean_tables.get(fig18_title)},
        )
        if dumps:
            print(f"  {len(dumps)} stall dump(s), e.g. {dumps[0].name}")

    if failures:
        print(f"interrupt check FAILED ({failures} divergence(s))",
              file=sys.stderr)
        return 1
    print("interrupt check passed: SIGTERM exits resumable, the rerun "
          "and the stalled run converge on the clean tables")
    return 0

#: Mode registry: name -> (check function, one-line description).
MODES = {
    "store": (
        _store_check,
        "in-process fault plan vs clean run, plus corrupted-store "
        "resume (default)",
    ),
    "interrupt": (
        _interrupt_check,
        "served run SIGTERMed between experiments, rerun to identical "
        "tables, stall-watchdog dump",
    ),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Verify fault-injected runs recover bit-identical "
                    "results (fig18, QUICK scale)."
    )
    parser.add_argument(
        "--jobs", type=int, default=2, metavar="N",
        help="worker processes for every run (default: 2)",
    )
    parser.add_argument(
        "--faults", default=DEFAULT_PLAN, metavar="PLAN",
        help=f"fault plan for the store-mode chaos run "
             f"(default: {DEFAULT_PLAN!r})",
    )
    parser.add_argument(
        "--list-modes", action="store_true",
        help="list the check modes and exit",
    )
    for mode, (_check, description) in MODES.items():
        if mode == "store":
            continue  # the default mode needs no flag
        parser.add_argument(
            f"--{mode}", action="store_true", help=f"check: {description}",
        )
    args = parser.parse_args(argv)
    if args.list_modes:
        for mode, (_check, description) in MODES.items():
            print(f"{mode:12s} {description}")
        return 0
    selected = [
        mode for mode in MODES
        if mode != "store" and getattr(args, mode)
    ]
    if len(selected) > 1:
        parser.error(f"pick one mode, not {selected}")
    check, _description = MODES[selected[0] if selected else "store"]
    return check(args)


if __name__ == "__main__":
    raise SystemExit(main())
