"""Human run reports: phases, workers, store, coalescing, fragmentation.

:class:`RunReport` condenses one invocation's trace events and metrics
snapshot into the handful of numbers a perf PR needs before it starts:
where the wall-clock went (per-phase span totals), whether the
``ProcessPoolExecutor`` workers were actually busy (per-pid
utilisation), whether the result store earned its keep (hit ratio),
what the coalescing logic produced per design (run-length histograms),
and how fragmented the buddy allocator ran (free-page timeline from the
kernel-tick counter track).

Build one from live objects (``RunReport.build(events, snapshot)``)
after a ``--report`` run, or offline from artifacts with
``tools/obs_report.py trace.json --metrics metrics.json``. Rendering is
plain text; the trace JSON remains the lossless artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.registry import MetricsSnapshot
from repro.obs.trace import TraceEvent

#: Span categories that count as "work" for worker utilisation.
_WORK_CATEGORIES = frozenset(("phase", "experiment"))


def _merged_extent_ms(intervals: List[Tuple[float, float]]) -> float:
    """Total µs covered by a union of (start, end) intervals, in ms."""
    covered = 0.0
    cursor = float("-inf")
    for begin, finish in sorted(intervals):
        if finish <= cursor:
            continue
        covered += finish - max(begin, cursor)
        cursor = finish
    return covered / 1000.0


@dataclass
class PhaseLine:
    """Aggregate of every complete span sharing one name."""

    name: str
    count: int
    total_ms: float

    @property
    def mean_ms(self) -> float:
        return self.total_ms / self.count if self.count else 0.0


@dataclass
class WorkerLine:
    """Busy time of one process on the shared monotonic timeline."""

    pid: int
    spans: int
    busy_ms: float
    utilisation: float  # busy / whole-run wall interval


@dataclass
class RunReport:
    """Everything the renderer needs, already aggregated."""

    phases: List[PhaseLine] = field(default_factory=list)
    workers: List[WorkerLine] = field(default_factory=list)
    wall_ms: float = 0.0
    store: Dict[str, float] = field(default_factory=dict)
    aged: Dict[str, float] = field(default_factory=dict)
    resilience: Dict[str, float] = field(default_factory=dict)
    watchdog: Dict[str, float] = field(default_factory=dict)
    coalescing: Dict[str, dict] = field(default_factory=dict)
    buddy_timeline: Dict[str, float] = field(default_factory=dict)
    instrument_count: int = 0
    event_count: int = 0
    dropped_events: int = 0

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        events: List[TraceEvent],
        snapshot: Optional[MetricsSnapshot] = None,
        dropped_events: int = 0,
    ) -> "RunReport":
        report = cls(
            event_count=len(events), dropped_events=dropped_events
        )
        report._aggregate_spans(events)
        report._aggregate_buddy(events)
        if snapshot is not None:
            report.instrument_count = len(snapshot)
            report._aggregate_store(snapshot)
            report._aggregate_aged(snapshot)
            report._aggregate_resilience(snapshot)
            report._aggregate_watchdog(snapshot)
            report._aggregate_coalescing(snapshot)
        return report

    def _aggregate_spans(self, events: List[TraceEvent]) -> None:
        phases: Dict[str, Tuple[int, float]] = {}
        # Work spans nest (experiment > run_batch > replay), so per-pid
        # busy time must merge intervals rather than sum durations --
        # summing would report several-hundred-percent utilisation for
        # a serial run.
        intervals: Dict[int, List[Tuple[float, float]]] = {}
        span_counts: Dict[int, int] = {}
        start: Optional[float] = None
        end: Optional[float] = None
        for event in events:
            if start is None or event.ts_us < start:
                start = event.ts_us
            finish = event.ts_us + (event.dur_us or 0.0)
            if end is None or finish > end:
                end = finish
            if event.ph != "X":
                continue
            dur_ms = (event.dur_us or 0.0) / 1000.0
            count, total = phases.get(event.name, (0, 0.0))
            phases[event.name] = (count + 1, total + dur_ms)
            if event.cat in _WORK_CATEGORIES:
                intervals.setdefault(event.pid, []).append(
                    (event.ts_us, finish)
                )
                span_counts[event.pid] = span_counts.get(event.pid, 0) + 1
        self.wall_ms = ((end - start) / 1000.0) if start is not None else 0.0
        self.phases = [
            PhaseLine(name, count, total)
            for name, (count, total) in sorted(
                phases.items(), key=lambda item: -item[1][1]
            )
        ]
        self.workers = [
            WorkerLine(
                pid=pid,
                spans=span_counts[pid],
                busy_ms=_merged_extent_ms(pid_intervals),
                utilisation=(
                    _merged_extent_ms(pid_intervals) / self.wall_ms
                    if self.wall_ms
                    else 0.0
                ),
            )
            for pid, pid_intervals in sorted(intervals.items())
        ]

    def _aggregate_buddy(self, events: List[TraceEvent]) -> None:
        samples = [
            float(event.args["free_pages"])
            for event in events
            if event.ph == "C" and event.name == "buddy"
            and "free_pages" in event.args
        ]
        if samples:
            self.buddy_timeline = {
                "samples": len(samples),
                "first": samples[0],
                "min": min(samples),
                "max": max(samples),
                "last": samples[-1],
            }

    def _aggregate_store(self, snapshot: MetricsSnapshot) -> None:
        hits = snapshot.counter_total("colt_store_hits")
        misses = snapshot.counter_total("colt_store_misses")
        if hits or misses:
            self.store = {
                "hits": hits,
                "misses": misses,
                "evictions": snapshot.counter_total("colt_store_evictions"),
                "saves": snapshot.counter_total("colt_store_saves"),
                "hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            }

    def _aggregate_aged(self, snapshot: MetricsSnapshot) -> None:
        builds = snapshot.counter_total("colt_aged_builds")
        restores = snapshot.counter_total("colt_aged_restores")
        if builds or restores:
            self.aged = {"builds": builds, "restores": restores}

    def _aggregate_resilience(self, snapshot: MetricsSnapshot) -> None:
        totals = {
            name: snapshot.counter_total(f"colt_resilience_{name}")
            for name in (
                "retries", "timeouts", "task_errors", "pool_rebuilds",
                "serial_downgrades", "failures",
            )
        }
        totals["quarantines"] = snapshot.counter_total(
            "colt_store_quarantines"
        )
        totals["faults_injected"] = snapshot.counter_total(
            "colt_faults_injected"
        )
        # A fault-free run reports nothing: the resilience layer is
        # interesting only when it absorbed damage.
        if any(totals.values()):
            self.resilience = totals

    def _aggregate_watchdog(self, snapshot: MetricsSnapshot) -> None:
        totals = {
            name: snapshot.counter_total(f"colt_watchdog_{name}")
            for name in (
                "stalls", "stack_dumps", "mem_breaches", "pool_shrinks",
                "prefetch_disables", "budget_aborts",
            )
        }
        # A healthy run trips nothing; report only absorbed trouble.
        if any(totals.values()):
            self.watchdog = totals

    def _aggregate_coalescing(self, snapshot: MetricsSnapshot) -> None:
        entry = snapshot.get("colt_coalesce_run_length")
        if entry is None:
            return
        for sample in entry["series"]:
            design = sample["labels"].get("design", "?")
            merged = self.coalescing.setdefault(
                design,
                {
                    "count": 0,
                    "sum": 0.0,
                    "buckets": list(sample["buckets"]),
                    "counts": [0] * len(sample["counts"]),
                },
            )
            merged["count"] += sample["count"]
            merged["sum"] += sample["sum"]
            for i, c in enumerate(sample["counts"]):
                merged["counts"][i] += c

    # ------------------------------------------------------------------
    # Rendering.
    # ------------------------------------------------------------------

    def render(self) -> str:
        lines: List[str] = ["=== CoLT run report ==="]
        lines.append(
            f"trace: {self.event_count} events"
            + (f" ({self.dropped_events} dropped)" if self.dropped_events
               else "")
            + f", {self.instrument_count} instruments, "
            f"wall {self.wall_ms / 1000.0:.2f}s"
        )

        if self.phases:
            lines.append("")
            lines.append("phase wall-time (sum over spans):")
            width = max(len(p.name) for p in self.phases)
            for phase in self.phases:
                lines.append(
                    f"  {phase.name:<{width}}  {phase.total_ms:10.1f} ms"
                    f"  x{phase.count:<5d} (mean {phase.mean_ms:.2f} ms)"
                )

        if self.workers:
            lines.append("")
            lines.append("worker utilisation (busy phase-time / run wall):")
            for worker in self.workers:
                bar = "#" * int(round(min(worker.utilisation, 1.0) * 20))
                lines.append(
                    f"  pid {worker.pid:<8d} {worker.busy_ms:10.1f} ms "
                    f"in {worker.spans:4d} spans  "
                    f"[{bar:<20}] {worker.utilisation:6.1%}"
                )

        if self.store:
            lines.append("")
            lines.append(
                "result store: "
                f"{self.store['hits']:.0f} hits, "
                f"{self.store['misses']:.0f} misses, "
                f"{self.store['evictions']:.0f} evictions, "
                f"{self.store['saves']:.0f} saves "
                f"({self.store['hit_ratio']:.0%} hit ratio)"
            )

        if self.aged:
            lines.append("")
            lines.append(
                f"aged kernels: {self.aged['builds']:.0f} built, "
                f"{self.aged['restores']:.0f} restored from snapshots"
            )

        if self.resilience:
            parts = [
                f"{value:.0f} {name}"
                for name, value in self.resilience.items()
                if value
            ]
            lines.append("")
            lines.append("resilience: " + ", ".join(parts))

        if self.watchdog:
            parts = [
                f"{value:.0f} {name}"
                for name, value in self.watchdog.items()
                if value
            ]
            lines.append("")
            lines.append("watchdog: " + ", ".join(parts))

        if self.coalescing:
            lines.append("")
            lines.append("coalescing run lengths per design:")
            for design in sorted(self.coalescing):
                data = self.coalescing[design]
                mean = data["sum"] / data["count"] if data["count"] else 0.0
                parts = []
                for bound, count in zip(data["buckets"], data["counts"]):
                    if count:
                        parts.append(f"<={bound:g}:{count}")
                if data["counts"][len(data["buckets"])]:
                    parts.append(f"inf:{data['counts'][len(data['buckets'])]}")
                lines.append(
                    f"  {design:<10} {data['count']:8d} fills, "
                    f"mean run {mean:.2f}  [{' '.join(parts)}]"
                )

        if self.buddy_timeline:
            t = self.buddy_timeline
            lines.append("")
            lines.append(
                "buddy free pages over run: "
                f"first {t['first']:.0f} -> last {t['last']:.0f} "
                f"(min {t['min']:.0f}, max {t['max']:.0f}, "
                f"{t['samples']:.0f} tick samples)"
            )

        return "\n".join(lines) + "\n"
