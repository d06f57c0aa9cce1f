"""Host-time benchmark of the CoLT simulator.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload tlb-figs --seed 42 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics: seven fresh interpreters
time the set-up, then untraced passes of the workload run back to back,
each in a fresh interpreter, as many as fit in ``--seconds`` (at least
one). Medians over the passes are reported.

``--trace 1`` is the traced run: one untraced pass at ``jobs = nproc``,
one untraced pass at ``jobs = 1`` and one traced pass at ``jobs = 1``
(so every call stays in one process). It reports self and inclusive
time per layer, call counts, exact simulated-event counts, the tracing
overhead and the pool's parallel efficiency. ``--seconds`` does not
apply.

Every pass's outputs are checked against ``reference.json`` (see
``check.py``). The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--update-reference`` records the run's digests as the reference for
its seed and workload instead of checking them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

from check import (
    PassOutputs,
    REFERENCE_PATH,
    check_pass,
    load_reference,
    reference_entry,
    reference_for,
)
from layers import TIME_METRICS, layer_metrics
from spans import SpanStats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Workload name -> experiment ids, run in this order in one pass.
WORKLOADS: Dict[str, tuple] = {
    "tlb-figs": ("fig18", "fig21"),
    # Run by hand only; not in BENCHMARK.json. Its 15-19 s passes fit
    # once or twice in a run, too few for a steady median on a noisy
    # host. abl_futurework is left out: at some seeds (4 at QUICK
    # scale) its replay raises "LRU tracker full", and a workload must
    # not fail. See README.md.
    "design-sweep": (
        "fig19", "fig20", "abl_l2fill", "abl_window", "abl_fasize",
    ),
    "contiguity": ("fig7_9",),
}

#: End-to-end metrics (untraced run) and their units.
END_TO_END = {
    "wall_s": "s",
    "sim_accesses_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Per-layer metrics (traced run) and their units.
PER_LAYER: Dict[str, str] = {}
for _metric, _span, _kind, _calls in TIME_METRICS:
    PER_LAYER[_metric] = "s"
    if _calls is not None:
        PER_LAYER[_calls] = "count"
PER_LAYER.update(
    {
        "sim.engine.ns_per_access": "ns",
        "sim.store.bytes": "bytes",
        "sim.runner.parallel_efficiency": "ratio",
        "obs.trace_overhead": "ratio",
        "trace.wall_s": "s",
        "trace.accounted_share": "ratio",
        "tlb.l1_misses": "count",
        "tlb.l2_misses": "count",
        "walker.walks": "count",
        "tlb.coalesced_fills": "count",
        "osmem.compactions": "count",
        "sim.scenario.shootdowns": "count",
        "sim.scenario.unique_rows": "count",
        "sim.scenario.captured_accesses": "count",
        "sim.scenario.unique_row_ratio": "ratio",
        "sim.engine.replayed_accesses": "count",
    }
)

#: Fresh interpreters timed per run for ``setup_s``.
SETUP_SAMPLES = 7
#: Every process of one run ends within this many seconds.
RUN_BUDGET_S = 170.0
#: Environment variables that steer the simulator; removed before a run
#: so a leaked setting cannot change what is measured.
SCRUB_PREFIXES = ("COLT_",)
SCRUB_NAMES = ("REPRO_SCALE",)
#: Marks the result line a pass process prints.
RESULT_MARK = "perfbench-result "


class PassFailed(RuntimeError):
    """A pass process exited abnormally or ran out of time."""


def scrub_env(environ: Mapping[str, str]) -> Tuple[Dict[str, str], List[str]]:
    """``environ`` without the simulator's knobs, and the names removed."""
    removed = sorted(
        name for name in environ
        if name.startswith(SCRUB_PREFIXES) or name in SCRUB_NAMES
    )
    clean = {k: v for k, v in environ.items() if k not in removed}
    return clean, removed


def calibration_s() -> float:
    """Median time of a fixed pure-Python loop, for comparing hosts."""
    samples = []
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i % 7
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` (``unknown`` if absent)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class PassLauncher:
    """Starts pass processes inside one work directory of the checkout."""

    def __init__(self, workload: str, seed: int, env: Dict[str, str],
                 workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.env = env
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self._stores = 0
        #: Resolved engine and numpy version, as the last pass saw them.
        self.environment: Dict[str, str] = {}

    def child(self, mode: str, jobs: int = 1, traced: bool = False) -> dict:
        self._stores += 1
        store = self.workdir / f"store-{self._stores}"
        argv = [
            sys.executable, str(HERE / "run.py"), "--child", mode,
            "--workload", self.workload, "--seed", str(self.seed),
            "--jobs", str(jobs), "--store", str(store),
        ]
        if traced:
            argv.append("--traced")
        spawned_ns = time.monotonic_ns()
        proc = subprocess.Popen(
            argv, cwd=self.workdir, env=self.env, stdout=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            out, _ = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic())
            )
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise PassFailed(f"{mode} pass exceeded the run's time budget")
        finally:
            shutil.rmtree(store, ignore_errors=True)
        lines = [line for line in out.splitlines() if line.startswith(RESULT_MARK)]
        if proc.returncode != 0 or not lines:
            raise PassFailed(f"{mode} pass exited with status {proc.returncode}")
        record = json.loads(lines[-1][len(RESULT_MARK):])
        record["spawned_ns"] = spawned_ns
        self.environment = record.pop("environment")
        return record


def child_main(args) -> int:
    """Body of a pass process: set up, run, print one result line."""
    sys.path.insert(0, str(ROOT / "src"))
    import passes

    if args.child == "setup":
        passes.build(args.seed, args.jobs, args.store)
        record = {"ready_ns": time.monotonic_ns()}
    else:
        record = passes.run_pass(
            WORKLOADS[args.workload], args.seed, args.jobs, args.store,
            traced=args.traced,
        )
    record["environment"] = passes.environment()
    print(RESULT_MARK + json.dumps(record), flush=True)
    return 0


class Checker:
    """Checks every pass of one run and tallies the failure share."""

    def __init__(self, workload: str, seed: int, update: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.update = update
        self.reference = load_reference()
        self.expected = reference_for(self.reference, seed, workload)
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []
        self.status = "updated" if update else (
            "checked" if self.expected is not None else "unchecked"
        )
        self._first: Optional[PassOutputs] = None

    def add(self, record: dict) -> None:
        outputs = PassOutputs.from_json(record["outputs"])
        result = check_pass(outputs, None if self.update else self.expected)
        failed = result.failed
        if self._first is None:
            self._first = outputs
        elif outputs.fingerprint() != self._first.fingerprint():
            failed = max(failed, 1)
            self.messages.append("a pass's outputs differ from the first pass")
        self.attempted += result.attempted
        self.failed += failed
        self.messages.extend(result.messages)

    def write_reference(self) -> None:
        seeds = self.reference.setdefault("seeds", {})
        seeds.setdefault(str(self.seed), {})[self.workload] = reference_entry(
            self._first
        )
        self.reference["scale"] = "QUICK"
        REFERENCE_PATH.write_text(
            json.dumps(self.reference, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )


def timed_run(launcher: PassLauncher, checker: Checker, seconds: float, meta: dict):
    setups = []
    for _ in range(SETUP_SAMPLES):
        record = launcher.child("setup")
        setups.append((record["ready_ns"] - record["spawned_ns"]) / 1e9)
    records = []
    started = time.monotonic()
    while True:
        record = launcher.child("pass", jobs=meta["jobs"])
        checker.add(record)
        records.append(record)
        # Start another pass only if it should end within ``seconds``.
        elapsed = time.monotonic() - started
        if elapsed * (len(records) + 1) / len(records) > seconds:
            break
    walls = [record["wall_s"] for record in records]
    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "sim_accesses_per_s": records[0]["accesses"] / wall,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        "setup_s": statistics.median(setups),
    }
    notes = [
        f"passes: {len(records)}; wall_s per pass: "
        + ", ".join(f"{w:.3f}" for w in walls),
        "setup_s samples: " + ", ".join(f"{s:.3f}" for s in setups),
        f"configs per pass: {records[0]['configs']} "
        f"({records[0]['captures']} captures), simulated accesses per "
        f"pass: {records[0]['accesses']}",
    ]
    return metrics, END_TO_END, notes


def traced_run(launcher: PassLauncher, checker: Checker, meta: dict):
    jobs = meta["jobs"]
    parallel = launcher.child("pass", jobs=jobs)
    serial = launcher.child("pass", jobs=1)
    traced = launcher.child("pass", jobs=1, traced=True)
    for record in (parallel, serial, traced):
        checker.add(record)
    if traced["min_self_ns"] < 0:
        checker.failed += 1
        checker.messages.append("a span has negative self time")

    stats = {name: SpanStats(*v) for name, v in traced["spans"].items()}
    metrics = layer_metrics(stats)
    counts = traced["counts"]
    metrics.update(counts)
    replayed = counts["sim.engine.replayed_accesses"]
    metrics["sim.engine.ns_per_access"] = (
        metrics["sim.engine.replay_s"] * 1e9 / replayed if replayed else 0.0
    )
    metrics["sim.store.bytes"] = traced["store_bytes"]
    metrics["obs.trace_overhead"] = traced["wall_s"] / serial["wall_s"]
    # Serial work (the untraced jobs=1 wall) over the pool's capacity.
    metrics["sim.runner.parallel_efficiency"] = serial["wall_s"] / (
        jobs * parallel["wall_s"]
    )
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.accounted_share"] = (
        sum(s.self_ns for s in stats.values()) / traced["wall_ns"]
    )
    notes = [
        f"untraced wall_s: jobs={jobs} {parallel['wall_s']:.3f}, "
        f"jobs=1 {serial['wall_s']:.3f}; traced jobs=1 {traced['wall_s']:.3f}",
        "span                                calls      incl_s      self_s",
    ]
    for name, entry in sorted(stats.items(), key=lambda kv: -kv[1].incl_ns):
        notes.append(
            f"{name:34s} {entry.calls:7d} {entry.incl_ns / 1e9:11.4f} "
            f"{entry.self_ns / 1e9:11.4f}"
        )
    return metrics, PER_LAYER, notes


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--update-reference", action="store_true",
        help="record this run's output digests as the reference for its "
             "seed and workload",
    )
    parser.add_argument("--child", choices=("setup", "pass"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--jobs", type=int, default=1, help=argparse.SUPPRESS)
    parser.add_argument("--store", help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if args.child:
        return child_main(args)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no simulator source under {ROOT / 'src'}; run "
            "from the root of a checkout of the repository",
            file=sys.stderr,
        )
        return 2

    env, scrubbed = scrub_env(os.environ)
    nproc = os.cpu_count() or 1
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "jobs": nproc,
        "nproc": nproc,
        "python": sys.version.split()[0],
        "commit": git_commit(ROOT),
        "calibration_s": round(calibration_s(), 4),
        "scrubbed_env": scrubbed,
    }
    workdir = ROOT / ".perfbench-work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    launcher = PassLauncher(args.workload, args.seed, env, workdir)
    checker = Checker(args.workload, args.seed, args.update_reference)
    try:
        if args.trace:
            metrics, units, notes = traced_run(launcher, checker, meta)
        else:
            metrics, units, notes = timed_run(
                launcher, checker, args.seconds, meta
            )
    except PassFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    if args.update_reference:
        checker.write_reference()
    meta.update(launcher.environment)
    print("meta: " + json.dumps(meta, sort_keys=True))
    for note in notes:
        print(note)
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(
        f"output check: {checker.status} against {REFERENCE_PATH.name}; "
        f"{checker.failed} of {checker.attempted} configs failed"
    )
    for message in checker.messages:
        print(f"  {message}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
