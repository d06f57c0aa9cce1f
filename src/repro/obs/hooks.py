"""Component-side observability hooks and worker hand-off plumbing.

The simulator's components stay ignorant of exporters and reports; they
talk to two small observer classes defined here:

* :class:`MMUObserver` -- attached by ``repro.core.mmu.MMU`` when
  observability is active. Feeds the per-design coalescing run-length
  histogram and emits *sampled* per-access TLB trace events (L1 miss,
  fill with run length, superpage fill, shootdown). ``create`` returns
  ``None`` when observability is off, so the MMU's only disabled-mode
  cost is an ``is not None`` check on its miss/fill/shootdown paths --
  the hit path is untouched.
* :class:`KernelObserver` -- attached by ``repro.osmem.kernel.Kernel``.
  Binds the counters of the kernel, its buddy allocator, compaction
  daemon and THP manager to the registry, and samples the buddy
  allocator's fragmentation state (free pages, largest free order)
  into gauges and a Perfetto counter-track timeline on every
  background tick.

The bottom half is the ``ProcessPoolExecutor`` hand-off:
:func:`drain_worker_obs` snapshots-and-resets a worker's tracer and
registry into a picklable :class:`ObsPayload` that rides back with the
task result; the parent folds it in via
:meth:`repro.obs.registry.MetricsRegistry.merge_snapshot`.
:func:`reset_worker_obs` runs as the pool initializer so a forked
worker drops the events and instruments it inherited from the parent
(they would otherwise be double-reported).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.obs.registry import (
    MetricsRegistry,
    MetricsSnapshot,
    bind_counterset,
    get_registry,
    set_registry,
)
from repro.obs.trace import (
    TraceEvent,
    Tracer,
    current_tracer,
    obs_active,
    reset_tracing,
)


class MMUObserver:
    """Sampled TLB events + coalescing histograms for one MMU."""

    __slots__ = ("_hist", "_design", "_tracer", "_sample", "_ticker")

    def __init__(self, design: str, tracer: Optional[Tracer]) -> None:
        self._design = design
        self._tracer = tracer
        self._sample = tracer.sample_every if tracer is not None else 1
        self._ticker = 0
        self._hist = get_registry().histogram(
            "colt_coalesce_run_length",
            help="translations per TLB fill, by design (1 = uncoalesced)",
            unit="translations",
        )

    @staticmethod
    def create(design: str) -> Optional["MMUObserver"]:
        """An observer when observability is active, else ``None``."""
        if not obs_active():
            return None
        return MMUObserver(design, current_tracer())

    def _sampled(self, count: int = 1) -> bool:
        """Advance the sampling ticker by ``count`` events.

        For ``count == 1`` this is the classic 1-in-N decimator. Batched
        callers (the vectorized replay engine) advance it by the whole
        batch in one call: the ticker lands exactly where ``count``
        single steps would leave it, so downstream sampling decisions
        stay aligned with the scalar engine's, and at most one instant
        is emitted per batch (the point of batching).
        """
        self._ticker += count
        if self._ticker >= self._sample:
            self._ticker %= self._sample
            return True
        return False

    def on_l1_miss(self, vpn: int, count: int = 1) -> None:
        if self._tracer is not None and self._sampled(count):
            self._tracer.instant(
                "tlb.miss", cat="tlb", vpn=vpn, level="l1",
                design=self._design,
            )

    def on_fill(self, run_length: int, count: int = 1) -> None:
        self._hist.observe(run_length, count, design=self._design)
        if self._tracer is not None and self._sampled(count):
            self._tracer.instant(
                "tlb.fill", cat="tlb", run_length=run_length,
                coalesced=run_length >= 2, design=self._design,
            )

    def on_superpage_fill(self, vpn: int, count: int = 1) -> None:
        if self._tracer is not None and self._sampled(count):
            self._tracer.instant(
                "tlb.superpage_fill", cat="tlb", vpn=vpn,
                design=self._design,
            )

    def on_shootdown(self, vpn: int, count: int = 1) -> None:
        """One shootdown, or a batched range of ``count`` of them."""
        if self._tracer is not None and self._sampled(count):
            self._tracer.instant(
                "tlb.shootdown", cat="tlb", vpn=vpn, design=self._design,
            )


class KernelObserver:
    """Buddy-fragmentation timeline + kernel-side counter bridging."""

    __slots__ = ("_buddy", "_tracer", "_free_gauge", "_order_gauge")

    def __init__(self, kernel) -> None:
        self._buddy = kernel.buddy
        self._tracer = current_tracer()
        registry = get_registry()
        self._free_gauge = registry.gauge(
            "colt_buddy_free_pages",
            help="free 4KB frames in the buddy allocator",
            unit="pages",
        )
        self._order_gauge = registry.gauge(
            "colt_buddy_largest_free_order",
            help="largest order with a free buddy block (-1 when empty)",
        )
        bind_counterset(registry, "colt_kernel", kernel.counters)
        bind_counterset(registry, "colt_buddy", kernel.buddy.counters)
        bind_counterset(
            registry, "colt_compaction", kernel.compaction.counters
        )
        bind_counterset(registry, "colt_thp", kernel.thp.counters)

    @staticmethod
    def create(kernel) -> Optional["KernelObserver"]:
        if not obs_active():
            return None
        return KernelObserver(kernel)

    def on_tick(self) -> None:
        """Sample the fragmentation state (called per background tick)."""
        free = self._buddy.free_pages
        order = self._buddy.largest_free_order()
        self._free_gauge.set(free)
        self._order_gauge.set(-1 if order is None else order)
        if self._tracer is not None:
            self._tracer.counter(
                "buddy", cat="os", free_pages=free,
                largest_free_order=-1 if order is None else order,
            )


# ---------------------------------------------------------------------------
# Worker-process hand-off.
# ---------------------------------------------------------------------------


@dataclass
class ObsPayload:
    """One worker task's drained observability output (picklable)."""

    events: List[TraceEvent]
    metrics: MetricsSnapshot
    dropped_events: int = 0


def drain_worker_obs() -> Optional[ObsPayload]:
    """Snapshot-and-reset this process's tracer and registry.

    Returns ``None`` when observability is off (the common case: the
    task result ships with zero extra payload). Draining resets both
    sinks so a reused pool worker reports each event exactly once.
    """
    if not obs_active():
        return None
    tracer = current_tracer()
    events: List[TraceEvent] = []
    dropped = 0
    if tracer is not None:
        events = tracer.drain()
        dropped = tracer.dropped
        tracer.dropped = 0
    metrics = get_registry().snapshot(reset=True)
    return ObsPayload(events=events, metrics=metrics, dropped_events=dropped)


#: True once this process has been initialised as a pool worker.
_IN_POOL_WORKER = False


def in_pool_worker() -> bool:
    """True in a pool worker initialised by :func:`reset_worker_obs`.

    Task bodies use this to decide whether to drain obs state into
    their return payload: in a worker the drain is the only way events
    reach the parent, but in the parent itself (serial execution, or a
    runner that degraded to in-process mode) draining would reset the
    very tracer/registry the run is still accumulating into.
    """
    return _IN_POOL_WORKER


def reset_worker_obs() -> None:
    """Pool-worker initializer: drop obs state inherited over ``fork``."""
    global _IN_POOL_WORKER
    _IN_POOL_WORKER = True
    reset_tracing()
    set_registry(MetricsRegistry())
