"""Capture phase of the two-phase simulator (paper Section 5.2).

The paper's methodology is trace capture + replay: memory-reference
traces are collected once per system configuration and then replayed
through the functional TLB simulator under every design. This module is
the capture half. ``ScenarioEngine`` owns the OS+workload interleaving
-- kernel boot, aging, memhog, demand faulting, background churn,
compaction ticks -- and drives it access by access. It is shared by
:class:`repro.sim.system.SystemSimulator`, the ``simulate()`` oracle
(which attaches a live MMU), and by :func:`capture_scenario` (which
attaches a recorder instead), so the OS evolution of both paths is
identical *by construction*, not by convention.

``capture_scenario`` produces a :class:`CapturedScenario`: a compact
numpy translation log with, per access, the VPN and its full walk
outcome (PFN, attribute bits, page size, walk-path addresses and the
8-PTE cache-line window), plus the stream of TLB-shootdown events
tagged with the access index they precede, the final kernel counters
and contiguity report. Everything a :class:`CoLTDesign` MMU consumes
is in the log; nothing TLB-design-dependent is. Replaying it through
``repro.sim.replay`` is bit-identical to the oracle run -- enforced
by ``repro.analysis.determinism --replay`` and the tier-1 tests.

Boot, aging and memhog depend only on the config's :func:`aged_key`,
and many scenarios share one aged machine (QUICK ``all``: 8 machines
for 40 captures). :func:`build_aged_snapshot` boots and ages a machine
once and pickles it; :meth:`ScenarioEngine.prepare` restores the bytes
instead of aging again, then lays out the benchmark as usual. The
runner hands a capture its snapshot through :func:`restoring`, so
:func:`capture_scenario` keeps its one-argument call; without a
snapshot (``simulate()``, a bare capture) the engine boots and ages in
place, which is the oracle the restored path is tested against.

Each walk outcome is computed once per change of the page table. The
recorder memoises ``vpn -> (line version, row id)``, where the version
is the one :class:`~repro.osmem.page_table.PageTable` bumps on every
write to the VPN's PTE cache line (a neighbour's mapping changes the
line window without any shootdown). Most accesses are memo hits that
just append a row id. Dedup then sorts the few thousand memo rows
(``np.unique``), so a captured QUICK-scale scenario is a few MB, cheap
enough to ship to ``ProcessPoolExecutor`` workers.
"""

from __future__ import annotations

import pickle
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Tuple,
)

import numpy as np

from repro.analysis.sanitizers import resolve_sanitize
from repro.common.constants import PTES_PER_CACHE_LINE
from repro.common.errors import (
    ConfigurationError,
    OutOfMemoryError,
    SanitizerError,
    TranslationError,
)
from repro.common.rng import SeedSequencer
from repro.common.statistics import CounterSnapshot
from repro.contiguity.scanner import ContiguityReport
from repro.core.mmu import CoLTDesign
from repro.obs.registry import get_registry
from repro.obs.trace import obs_active, span
from repro.osmem.kernel import Kernel, KernelConfig
from repro.osmem.memhog import AgingProfile, Memhog, age_system
from repro.osmem.process import Process
from repro.workloads.benchmarks import BenchmarkProfile, get_benchmark
from repro.workloads.trace import Trace, generate_trace, scaled_region_pages

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (system imports us)
    from repro.sim.system import SimulationConfig

#: Columns of one capture record (all int64):
#:   0      pfn
#:   1      attribute bits
#:   2      is_superpage flag
#:   3      number of walk-path levels
#:   4-7    walk-path PTE addresses, -1 padded
#:   8      cache-line window valid mask (bit i = slot i mapped)
#:   9-16   cache-line window PFNs per slot
#:   17-24  cache-line window attribute bits per slot
RECORD_COLUMNS = 25
_PATH_BASE = 4
_MASK_COLUMN = 8
_LINE_PFN_BASE = 9
_LINE_ATTR_BASE = 17


class LLCPollution:
    """Deterministic model of the data stream's LLC pressure on PTE lines.

    Each access accrues ``per_access`` expected evictions; whole lines
    are evicted from sets visited on a fixed stride. The cursor is
    explicit state initialised here (not lazily mid-run) so a fresh
    instance always walks the same set sequence.
    """

    def __init__(self, llc, per_access: float) -> None:
        self._llc = llc
        self._per_access = per_access
        self._budget = 0.0
        self._cursor = 0

    def after_access(self) -> None:
        self._budget += self._per_access
        if self._budget >= 1.0:
            lines = int(self._budget)
            self._budget -= lines
            llc = self._llc
            for _ in range(lines):
                self._cursor = (self._cursor + 101) % llc.num_sets
                llc.evict_lru_of_set(self._cursor)


def scenario_config(config: "SimulationConfig") -> "SimulationConfig":
    """Normalise a config to its TLB-design-independent scenario.

    Every field that feeds the OS+workload interleaving is kept; the
    design and MMU geometry (which only the replay consumes) are
    cleared. Two configs with equal scenario configs share one capture.
    """
    return config.with_updates(design=CoLTDesign.BASELINE, mmu=None)


@dataclass(frozen=True)
class AgedKey:
    """Everything kernel boot, aging and memhog read from a config.

    Two configs with equal keys start their layout on identical aged
    machines, so one :func:`build_aged_snapshot` serves both.
    ``sanitize`` is resolved (``None`` reads ``COLT_SANITIZE``): a
    snapshot carries its sanitizers.
    """

    kernel: KernelConfig
    seed: int
    aging: Optional[AgingProfile]
    memhog_fraction: float
    sanitize: bool


def aged_key(config: "SimulationConfig") -> AgedKey:
    """The aged machine ``config`` runs on (see :class:`AgedKey`)."""
    return AgedKey(
        kernel=config.kernel,
        seed=config.seed,
        aging=config.aging,
        memhog_fraction=config.memhog_fraction,
        sanitize=resolve_sanitize(config.sanitize),
    )


def _boot_and_age(
    key: AgedKey, observe: bool
) -> Tuple[Kernel, List[Process]]:
    """Boot a kernel, age it and start memhog; ``(kernel, daemons)``.

    ``daemons`` are the background processes run-time churn allocates
    from. ``observe`` is passed to :class:`Kernel`.
    """
    seeds = SeedSequencer(key.seed)
    with span("kernel.boot", seed=key.seed):
        kernel = Kernel(key.kernel, sanitize=key.sanitize, observe=observe)
    with span("aging", aged=key.aging is not None):
        if key.aging is not None:
            daemons = age_system(kernel, seeds, key.aging)
        else:
            daemon = kernel.create_process("background0", fault_batch=4)
            kernel.register_reclaim_victim(daemon)
            daemons = [daemon]
        if key.memhog_fraction > 0:
            Memhog(kernel, key.memhog_fraction, seeds).start()
    if obs_active():
        get_registry().counter(
            "colt_aged_builds", help="kernels booted and aged"
        ).inc()
    return kernel, daemons


def build_aged_snapshot(key: AgedKey) -> bytes:
    """Boot and age the machine of ``key``; its pickled state.

    The bytes are ``pickle.dumps((kernel, daemons))``; every
    :meth:`ScenarioEngine.prepare` handed them restores an identical
    machine. The kernel is built unobserved, since each restored copy
    reports its counters (aging included) itself.
    """
    kernel, daemons = _boot_and_age(key, observe=False)
    snapshot = pickle.dumps(
        (kernel, daemons), protocol=pickle.HIGHEST_PROTOCOL
    )
    kernel.release()
    return snapshot


#: ``(aged key, snapshot)`` that :func:`capture_scenario` restores
#: instead of aging; set only inside :func:`restoring`.
_restore_slot: Optional[Tuple[AgedKey, bytes]] = None


@contextmanager
def restoring(key: AgedKey, snapshot: bytes) -> Iterator[None]:
    """Captures inside this block restore ``snapshot`` instead of aging.

    :func:`capture_scenario` keeps its one-argument call (wrappers that
    time or record captures call it with the config alone), so the
    runner's capture task hands the snapshot over through this slot.
    """
    global _restore_slot
    _restore_slot = (key, snapshot)
    try:
        yield
    finally:
        _restore_slot = None


class ScenarioEngine:
    """Boots, loads and steps one scenario's OS+workload interleaving."""

    def __init__(self, config: "SimulationConfig") -> None:
        self.config = config
        self.profile: BenchmarkProfile = get_benchmark(config.benchmark)
        self._seeds = SeedSequencer(config.seed)
        self.kernel: Optional[Kernel] = None
        self.process: Optional[Process] = None
        self.trace: Optional[Trace] = None
        self._daemons: List[Process] = []

    # ------------------------------------------------------------------
    # Phase 1-2: boot + load.
    # ------------------------------------------------------------------

    def prepare(self, snapshot: Optional[bytes] = None) -> None:
        """Boot and age the machine, or restore it; lay out the benchmark.

        With ``snapshot`` (bytes from :func:`build_aged_snapshot` for
        this config's :func:`aged_key`) the aged kernel is unpickled
        instead of booted and aged again; with sanitizers on, it is
        fully scanned before the layout touches it.
        """
        config = self.config
        if snapshot is None:
            self.kernel, self._daemons = _boot_and_age(
                aged_key(config), observe=True
            )
        else:
            with span("aging.restore", bytes=len(snapshot)):
                self.kernel, self._daemons = pickle.loads(snapshot)
            if obs_active():
                get_registry().counter(
                    "colt_aged_restores",
                    help="aged kernels restored from snapshots",
                ).inc()
            self.sanity_check()

        with span("layout", benchmark=self.profile.name):
            self.process = self.kernel.create_process(self.profile.name)
            pages = scaled_region_pages(self.profile, config.scale)
            bases: Dict[str, int] = {}
            for region in self.profile.regions:
                vma = self.kernel.malloc(
                    self.process,
                    pages[region.name],
                    name=region.name,
                    populate=region.populate,
                    kind=region.kind,
                    thp_eligible=region.thp_eligible,
                    populate_batch=region.fault_batch,
                )
                bases[region.name] = vma.start_vpn
        with span("trace.generate", accesses=config.accesses):
            self.trace = generate_trace(
                self.profile,
                bases,
                config.accesses,
                self._seeds.rng("trace"),
                scale=config.scale,
            )
        self._region_bounds = sorted(
            (bases[r.name], bases[r.name] + pages[r.name], r.fault_batch)
            for r in self.profile.regions
        )

    def _fault_batch_for(self, vpn: int) -> int:
        for start, end, batch in self._region_bounds:
            if start <= vpn < end:
                return batch
        return self.process.fault_batch

    # ------------------------------------------------------------------
    # Phase 3: the interleaved run.
    # ------------------------------------------------------------------

    def run_loop(self, on_access: Callable[[int, int], None]) -> None:
        """Step the trace, interleaving OS activity around ``on_access``.

        ``on_access(index, vpn)`` is invoked once per trace entry after
        the page is demand-faulted in; the caller decides what an
        access *means* (live MMU probe, or capture record). Background
        churn and compaction ticks fire after every ``churn_every`` /
        ``tick_every`` accesses -- i.e. first at ``period - 1``, not at
        access 0, which previously injected both before the benchmark's
        first reference.
        """
        if self.kernel is None:
            self.prepare()
        config = self.config
        kernel = self.kernel
        process = self.process

        churn_rng = self._seeds.rng("run.churn")
        live_churn: List = []
        is_populated = process.is_populated
        churn_every = config.churn_every
        tick_every = config.tick_every

        for index, vpn in enumerate(self.trace.vpns):
            vpn = int(vpn)
            if not is_populated(vpn):
                # Demand fault, at this region's allocator granularity.
                process.fault_batch = self._fault_batch_for(vpn)
                kernel.touch(process, vpn)
            on_access(index, vpn)
            if churn_every and (index + 1) % churn_every == 0:
                self._background_churn(churn_rng, live_churn)
            if tick_every and (index + 1) % tick_every == 0:
                kernel.tick()

    def _background_churn(self, rng: np.random.Generator, live: List) -> None:
        """One beat of live-system allocation activity during the run."""
        daemon = self._daemons[int(rng.integers(len(self._daemons)))]
        pages = max(1, int(self.config.churn_pages * (0.5 + rng.random())))
        try:
            daemon_vma = self.kernel.malloc(
                daemon, pages, name="live_churn", populate=True
            )
        except OutOfMemoryError:
            return
        live.append((daemon, daemon_vma))
        while len(live) > self.config.churn_live_limit:
            victim_daemon, victim_vma = live.pop(0)
            self.kernel.free_vma(victim_daemon, victim_vma)

    def sanity_check(self) -> None:
        """Full scan of the kernel-side sanitizers (no-op if off)."""
        if self.kernel is None:
            return
        buddy_sanitizer = self.kernel.buddy.sanitizer
        if buddy_sanitizer is not None:
            buddy_sanitizer.full_scan()
            buddy_sanitizer.check_accounting()
        if self.kernel.sanitizer is not None:
            self.kernel.sanitizer.full_scan()


@dataclass(frozen=True)
class CapturedScenario:
    """One scenario's complete translation log, TLB-design-independent.

    Attributes:
        config: the normalised scenario configuration (see
            :func:`scenario_config`).
        profile: the benchmark profile the trace was generated from.
        vpns: per-access virtual page numbers, shape ``(accesses,)``.
        records: deduplicated walk-outcome rows, shape
            ``(unique, RECORD_COLUMNS)`` -- see the column map at the
            top of this module.
        record_index: per-access row index into ``records``.
        inval_before: sorted access indices; ``inval_before[i]`` is the
            access the i-th shootdown precedes (``accesses`` for
            events after the final access -- they still mutate MMU
            counters before the result snapshot).
        inval_start / inval_count: the shot-down VPN ranges.
        kernel_counters: kernel counter snapshot at end of run.
        contiguity: final contiguity report of the benchmark process.
        trace_unique_pages: distinct pages in the trace.
    """

    config: "SimulationConfig"
    profile: BenchmarkProfile
    vpns: np.ndarray
    records: np.ndarray
    record_index: np.ndarray
    inval_before: np.ndarray
    inval_start: np.ndarray
    inval_count: np.ndarray
    kernel_counters: CounterSnapshot
    contiguity: ContiguityReport
    trace_unique_pages: int

    @property
    def accesses(self) -> int:
        return int(self.vpns.size)

    @property
    def nbytes(self) -> int:
        """Approximate in-memory / pickled footprint of the log."""
        return int(
            self.vpns.nbytes
            + self.records.nbytes
            + self.record_index.nbytes
            + self.inval_before.nbytes
            + self.inval_start.nbytes
            + self.inval_count.nbytes
        )


class _CaptureRecorder:
    """Records per-access walk outcomes and shootdown events.

    Walk outcomes are memoised per VPN together with the version of the
    VPN's PTE cache line (:meth:`PageTable.line_version`). A hit appends
    the memoised row id; only a miss walks the page table and builds a
    new row. With ``sanitize`` on, every hit is recomputed and checked.
    """

    def __init__(self, engine: ScenarioEngine) -> None:
        self._page_table = engine.process.page_table
        self._bench_pid = engine.process.pid
        self._sanitize = resolve_sanitize(engine.config.sanitize)
        #: Walk-outcome rows, one per memo miss (duplicates possible).
        self.rows: List[List[int]] = []
        #: Per-access index into ``rows``.
        self.row_ids: List[int] = []
        self._memo: Dict[int, Tuple[int, int]] = {}
        self.events: List = []
        #: Number of accesses recorded so far == the index the next
        #: shootdown precedes: events during access i's demand fault
        #: arrive before ``on_access(i)`` and tag i; churn/tick events
        #: after it tag i+1, matching where a replayed MMU sees them.
        self.position = 0
        engine.kernel.add_invalidation_listener(self._on_invalidation)

    def _on_invalidation(self, pid: int, start_vpn: int, count: int) -> None:
        if pid == self._bench_pid:
            self.events.append((self.position, start_vpn, count))

    def on_access(self, index: int, vpn: int) -> None:
        version = self._page_table.line_version(vpn)
        memo = self._memo.get(vpn)
        if memo is not None and memo[0] == version:
            row_id = memo[1]
            if self._sanitize and self._build_row(vpn) != self.rows[row_id]:
                raise SanitizerError(
                    f"capture memo: stale walk record for vpn {vpn} at "
                    f"access {index} (line version {version})"
                )
        else:
            row_id = len(self.rows)
            self.rows.append(self._build_row(vpn))
            self._memo[vpn] = (version, row_id)
        self.row_ids.append(row_id)
        self.position = index + 1

    def _build_row(self, vpn: int) -> List[int]:
        """``vpn``'s walk outcome laid out as ``RECORD_COLUMNS`` ints."""
        page_table = self._page_table
        translation = page_table.lookup(vpn)
        if translation is None:  # pragma: no cover - faulted in by engine
            raise TranslationError(f"capture of unmapped vpn {vpn}")
        path = page_table.walk_path_addresses(vpn)
        row = [
            translation.pfn,
            int(translation.attributes),
            1 if translation.is_superpage else 0,
            len(path),
            *path,
        ]
        row += [-1] * (_MASK_COLUMN - len(row))
        mask = 0
        pfns = [0] * PTES_PER_CACHE_LINE
        attrs = [0] * PTES_PER_CACHE_LINE
        if not translation.is_superpage:
            for offset, neighbour in enumerate(page_table.pte_cache_line(vpn)):
                if neighbour is not None:
                    mask |= 1 << offset
                    pfns[offset] = neighbour.pfn
                    attrs[offset] = int(neighbour.attributes)
        row.append(mask)
        return row + pfns + attrs

    def deduplicate(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(records, record_index)``: sorted unique rows, per-access ids.

        ``np.unique`` runs over the memo rows only. Every row is used by
        at least one access, so the result equals ``np.unique`` over the
        full per-access table.
        """
        rows = np.array(self.rows, dtype=np.int64).reshape(-1, RECORD_COLUMNS)
        records, inverse = np.unique(rows, axis=0, return_inverse=True)
        row_ids = np.asarray(self.row_ids, dtype=np.int64)
        return records, inverse.ravel().astype(np.int64)[row_ids]


def capture_scenario(config: "SimulationConfig") -> CapturedScenario:
    """Run the OS+workload interleaving once; return its translation log.

    The input config is normalised via :func:`scenario_config`, so the
    capture is reusable across every TLB design of the same scenario.
    """
    config = scenario_config(config)
    snapshot = None
    if _restore_slot is not None:
        key, snapshot = _restore_slot
        if key != aged_key(config):
            raise ConfigurationError(
                f"aged-kernel snapshot for {key} handed to a capture "
                f"of {aged_key(config)}"
            )
    # One span over the whole capture: boot, aging (or its restore),
    # layout, trace generation, the run loop and dedup all nest in it.
    with span(
        "capture",
        benchmark=config.benchmark,
        accesses=config.accesses,
        seed=config.seed,
    ):
        engine = ScenarioEngine(config)
        engine.prepare(snapshot)
        recorder = _CaptureRecorder(engine)
        engine.run_loop(recorder.on_access)
        engine.sanity_check()
        with span(
            "capture.dedup",
            rows=len(recorder.rows),
            accesses=len(recorder.row_ids),
        ):
            records, record_index = recorder.deduplicate()
        if recorder.events:
            event_array = np.asarray(recorder.events, dtype=np.int64)
        else:
            event_array = np.zeros((0, 3), dtype=np.int64)
        scenario = CapturedScenario(
            config=config,
            profile=engine.profile,
            vpns=np.asarray(engine.trace.vpns, dtype=np.int64).copy(),
            records=records,
            record_index=record_index,
            inval_before=event_array[:, 0].copy(),
            inval_start=event_array[:, 1].copy(),
            inval_count=event_array[:, 2].copy(),
            kernel_counters=engine.kernel.counters.snapshot(),
            contiguity=ContiguityReport.from_process(engine.process),
            trace_unique_pages=engine.trace.unique_pages,
        )
    engine.kernel.release()
    return scenario
