"""Vectorized replay engine: epoch-batched array program over the log.

``replay_scenario`` interprets one ``MMU.access`` per simulated access.
This engine replays the same captured scenario in *epochs*: stretches of
the access log bounded by shootdown events (the scalar loop's
loop-carried state), chunked at
:data:`EPOCH_MAX` accesses. For each epoch window it

1. exports the L1 SA TLB and the FA/superpage TLB as sorted coverage
   interval arrays (``soa.LeanSetTLB.coverage`` /
   ``soa.LeanFaTLB.coverage``),
2. resolves every access's hit/miss outcome against that snapshot with
   one NumPy scan (:func:`scan_window`), and
3. walks the window with scan-attributed hits on the fast path --
   a counter bump plus one LRU touch -- falling back to a lean scalar
   step (:meth:`VectorMMU._step`) for misses and for positions whose
   scan attribution may be stale.

Staleness is tracked with three per-window sets: ids removed from the
L1 since the scan (``dead_sa``), ids removed from the FA since the scan
(``dead_fa``), and VPNs newly covered by the L1 since the scan
(``new_sa``). A scan-attributed SA hit is genuine iff its entry is still
alive: L1 coverage intervals are globally disjoint (an insert displaces
every overlapping resident), so a surviving coverer is *the* coverer. A
scan-attributed FA hit is genuine iff its entry is still alive *and* the
VPN gained no L1 coverage since the scan: FA attribution is
first-coverer-in-insertion-order, new entries only append, and the L1
is probed first in the scalar flow. Any guard failure drops the access
into the lean step, which re-probes from scratch and is always correct.

Counter updates are epoch-aggregated: the window loop accumulates plain
ints and flushes them into the real :class:`CounterSet` once per epoch
boundary (``counters.increment(name, delta)``), not once per access.
The result is bit-identical to the scalar oracle -- tables, all 13 MMU
counters, and coalescing histograms -- which ``tests/test_engine.py``
asserts for every design.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.analysis.sanitizers import resolve_sanitize
from repro.cache.hierarchy import HierarchyConfig
from repro.cache.mmu_cache import MMUCacheConfig
from repro.common.errors import SimulationError
from repro.common.statistics import CounterSet
from repro.core.mmu import CoLTDesign, MMUConfig, make_mmu_config
from repro.core.performance import evaluate_performance, perfect_tlb_result
from repro.obs.hooks import MMUObserver
from repro.obs.registry import bind_counterset, get_registry
from repro.obs.trace import span
from repro.sim.engine.records import RecordTable
from repro.sim.engine.soa import (
    LeanFaTLB,
    LeanLLC,
    LeanMMUCache,
    LeanSetTLB,
    pollution_schedule,
)
from repro.sim.replay import replay_scenario
from repro.sim.scenario import CapturedScenario, scenario_config
from repro.sim.system import SimulationConfig, SimulationResult

#: Accesses scanned per coverage pass (the epoch chunk bound). Read at
#: use, so tests can shrink it to exercise chunk boundaries.
EPOCH_MAX = 4096

#: The MMU counter names, in ``MMU.__init__`` order.
_COUNTERS = (
    "accesses",
    "l1_sa_hits",
    "l1_fa_hits",
    "l1_misses",
    "l2_hits",
    "l2_misses",
    "walks",
    "walk_latency",
    "coalesced_fills",
    "uncoalesced_fills",
    "fa_routed_fills",
    "sa_routed_fills",
    "invalidations",
)


def scan_window(vpns, sa_starts, sa_ends, sa_ids, fa_base, fa_end, fa_ids):
    """Resolve one window's TLB coverage against interval snapshots.

    ``sa_*`` are the L1 SA TLB's coverage intervals (inclusive ends),
    sorted by start and globally disjoint, with a leading ``(-2, -2,
    -1)`` sentinel; ``fa_*`` are the FA TLB's intervals (exclusive
    ends) in insertion order with the same sentinel. Returns boolean
    hit masks and the covering entry id per access for both TLBs.
    """
    pos = np.searchsorted(sa_starts, vpns, side="right") - 1
    sa_hit = vpns <= sa_ends[pos]
    sa_entry = sa_ids[pos]
    cover = (fa_base[np.newaxis, :] <= vpns[:, np.newaxis]) & (
        vpns[:, np.newaxis] < fa_end[np.newaxis, :]
    )
    fa_hit = np.any(cover, axis=1)
    fa_entry = fa_ids[np.argmax(cover, axis=1)]
    return sa_hit, sa_entry, fa_hit, fa_entry


class VectorMMU:
    """Replays one captured scenario with epoch-batched TLB resolution.

    Mirrors ``MMU`` + ``ReplayWalker`` + ``LLCPollution`` over the lean
    structure-of-arrays state in :mod:`repro.sim.engine.soa`, and
    duck-types the subset of the ``MMU`` surface that
    :func:`repro.core.performance.evaluate_performance` and result
    assembly read (``l1_misses`` / ``l2_misses`` / ``total_walk_cycles``
    / ``total_l2_hit_cycles`` / ``counters``).
    """

    def __init__(
        self,
        config: MMUConfig,
        scenario: CapturedScenario,
        llc_pollution_per_access: float,
    ) -> None:
        self.config = config
        self.design = config.design
        self.accesses = int(scenario.vpns.size)
        self._ev_before: List[int] = scenario.inval_before.tolist()
        self._ev_start: List[int] = scenario.inval_start.tolist()
        self._ev_count: List[int] = scenario.inval_count.tolist()
        self.counters = CounterSet(list(_COUNTERS))
        # Epoch-aggregated pending deltas, flushed per epoch boundary.
        for name in _COUNTERS:
            setattr(self, "_c_" + name, 0)
        self._obs: Optional[MMUObserver] = MMUObserver.create(
            config.design.value
        )
        if self._obs is not None:
            bind_counterset(
                get_registry(), "colt_mmu", self.counters,
                design=config.design.value,
            )
        if self.design is CoLTDesign.PERFECT:
            # A perfect TLB never probes, walks or fills: none of the
            # decoded state below can be observed, so skip building it.
            return
        self._vp = np.asarray(scenario.vpns, dtype=np.int64)
        self._vp_l: List[int] = self._vp.tolist()
        self._ri: List[int] = scenario.record_index.tolist()
        self._rt = RecordTable.from_records(scenario.records)

        # Staleness guards shared with the lean TLBs (reset per scan).
        self._dead_sa: set = set()
        self._dead_fa: set = set()
        self._new_sa: set = set()

        l1c, l2c, spc = config.l1, config.l2, config.superpage
        self.l1 = LeanSetTLB(
            l1c.num_sets, l1c.ways, l1c.index_shift,
            l1c.graceful_invalidation, l1c.coalescing_aware_replacement,
            dead=self._dead_sa, new_vpns=self._new_sa,
        )
        self.l2 = LeanSetTLB(
            l2c.num_sets, l2c.ways, l2c.index_shift,
            l2c.graceful_invalidation, l2c.coalescing_aware_replacement,
        )
        self.fa = LeanFaTLB(
            spc.entries, spc.merge_on_insert, spc.max_span,
            spc.graceful_invalidation, dead=self._dead_fa,
        )
        mmuc = MMUCacheConfig()
        self.mmu_cache = LeanMMUCache(mmuc.entries)
        self._mmu_latency = mmuc.latency
        hier = HierarchyConfig()
        self.llc = LeanLLC(hier.llc.num_sets, hier.llc.ways)
        self._llc_latency = hier.llc.latency
        self._dram_latency = hier.dram_latency
        self._sched = pollution_schedule(
            self.accesses, llc_pollution_per_access, hier.llc.num_sets
        )
        self._sched_pos = 0

        self._g1 = l1c.group_size
        self._g2 = l2c.group_size
        self._window = config.coalescing_window
        self._fa_fill_l2 = config.fa_fill_l2
        self._all_threshold = config.effective_all_threshold

    # ------------------------------------------------------------------
    # The epoch loop.
    # ------------------------------------------------------------------

    def run(self) -> None:
        """Replay the whole scenario (counters valid afterwards)."""
        n = self.accesses
        before, starts, counts = (
            self._ev_before, self._ev_start, self._ev_count,
        )
        total_events = len(before)
        pending = 0
        if self.design is CoLTDesign.PERFECT:
            # Perfect TLBs never probe or walk; only the access and
            # invalidation counters (and shootdown events) are live.
            self._c_accesses += n
            while pending < total_events:
                self._invalidate_range(starts[pending], counts[pending])
                pending += 1
            self._flush_counters()
            return
        chunk = EPOCH_MAX
        index = 0
        while index < n:
            while pending < total_events and before[pending] <= index:
                # Epoch boundary: aggregate counters, then the event.
                self._flush_counters()
                self._invalidate_range(starts[pending], counts[pending])
                pending += 1
            limit = before[pending] if pending < total_events else n
            if limit > n:
                limit = n
            end = min(limit, index + chunk)
            self._process_window(index, end)
            index = end
        # Shootdowns that trailed the final access still land before the
        # counters are snapshotted, exactly as in the scalar loop.
        while pending < total_events:
            self._flush_counters()
            self._invalidate_range(starts[pending], counts[pending])
            pending += 1
        self._flush_counters()

    def _process_window(self, start: int, end: int) -> None:
        """One epoch window: scan once, fast-path hits, step the rest."""
        sa_s, sa_e, sa_i = self.l1.coverage()
        fa_b, fa_e, fa_i = self.fa.coverage()
        sa_hit, sa_entry, fa_hit, fa_entry = scan_window(
            self._vp[start:end], sa_s, sa_e, sa_i, fa_b, fa_e, fa_i
        )
        sa_hit_l = sa_hit.tolist()
        sa_id_l = sa_entry.tolist()
        fa_hit_l = fa_hit.tolist()
        fa_id_l = fa_entry.tolist()
        dead_sa = self._dead_sa
        dead_fa = self._dead_fa
        new_sa = self._new_sa
        dead_sa.clear()
        dead_fa.clear()
        new_sa.clear()
        vp_l = self._vp_l
        l1 = self.l1
        fa = self.fa
        step = self._step
        hits_sa = 0
        hits_fa = 0
        # Same-page repeat fast path: when an access repeats the previous
        # VPN and that access resolved as an L1-level hit, this one is
        # the identical hit -- the hit path mutates nothing but recency,
        # and the hitting entry is already MRU, so even the LRU touch is
        # a no-op. ``prev_level`` is 1 (SA hit), 2 (FA hit) or 0 (walked
        # or unknown -- take the normal path to re-establish recency).
        prev_vpn = -1
        prev_level = 0
        for offset in range(end - start):
            index = start + offset
            vpn = vp_l[index]
            if vpn == prev_vpn:
                if prev_level == 1:
                    hits_sa += 1
                    continue
                if prev_level == 2:
                    hits_fa += 1
                    continue
            else:
                prev_vpn = vpn
                if sa_hit_l[offset]:
                    eid = sa_id_l[offset]
                    if eid not in dead_sa:
                        hits_sa += 1
                        l1.touch(eid, vpn)
                        prev_level = 1
                        continue
                elif fa_hit_l[offset]:
                    fid = fa_id_l[offset]
                    if fid not in dead_fa and vpn not in new_sa:
                        hits_fa += 1
                        fa.touch(fid)
                        prev_level = 2
                        continue
            prev_level = step(index, vpn)
        self._c_accesses += end - start
        self._c_l1_sa_hits += hits_sa
        self._c_l1_fa_hits += hits_fa

    # ------------------------------------------------------------------
    # The lean scalar step (misses + stale scan positions).
    # ------------------------------------------------------------------

    def _step(self, index: int, vpn: int) -> int:
        """One access through the full MMU flow, on the lean state.

        Returns the repeat-access level for the window loop: 1 when a
        same-VPN access would now hit the L1 SA TLB on an already-MRU
        unique coverer, 2 for the same situation in the FA TLB, 0 when
        the next access must re-probe (an FA-routed or superpage fill:
        entries may overlap there, so the winning entry -- and therefore
        the recency update -- is not determined without a probe).
        """
        if self.l1.probe(vpn) is not None:
            self._c_l1_sa_hits += 1
            return 1
        if self.fa.probe(vpn) is not None:
            self._c_l1_fa_hits += 1
            return 2
        self._c_l1_misses += 1
        if self._obs is not None:
            self._obs.on_l1_miss(vpn)
        hit = self.l2.probe(vpn)
        if hit is not None:
            self._c_l2_hits += 1
            s, e, ppn, attr = hit
            base = vpn - (vpn % self._g1)
            lo = s if s > base else base
            top = base + self._g1 - 1
            hi = e if e < top else top
            self.l1.insert((lo, hi, ppn + (lo - s), attr))
            # The refilled entry is vpn's unique L1 coverer and is MRU.
            return 1
        self._c_l2_misses += 1
        # LLC pollution is applied lazily: the page walk is the only
        # reader of LLC state, so evictions scheduled for earlier
        # accesses catch up just before this walk reads the LLC.
        sched = self._sched
        pos = self._sched_pos
        if pos < len(sched):
            evict = self.llc.evict_lru_of_set
            while pos < len(sched) and sched[pos][0] < index:
                evict(sched[pos][1])
                pos += 1
            self._sched_pos = pos
        record = self._ri[index]
        latency = self._walk(vpn, record)
        self._c_walks += 1
        self._c_walk_latency += latency
        return self._fill(vpn, record)

    def _walk(self, vpn: int, record: int) -> int:
        """``ReplayWalker.walk``'s latency accounting on lean caches."""
        levels = self._rt.levels[record]
        latency = self._mmu_latency
        deepest = self.mmu_cache.deepest(vpn)
        start_level = 0
        if deepest is not None:
            start_level = deepest + 1
            if start_level > levels - 1:
                start_level = levels - 1
        path = self._rt.path[record]
        for level in range(start_level, levels):
            latency += self._access_pte(path[level])
        self.mmu_cache.fill_walk(vpn, levels)
        return latency

    def _access_pte(self, paddr: int) -> int:
        latency = self._llc_latency
        if not self.llc.access(paddr):
            latency += self._dram_latency
            self.llc.fill(paddr)
        return latency

    # ------------------------------------------------------------------
    # Fill policies (mirroring ``MMU._fill*`` over record-table rows).
    # ------------------------------------------------------------------

    def _fill(self, vpn: int, record: int) -> int:
        """Run the design's fill policy; returns the repeat-access level."""
        rt = self._rt
        if rt.is_sp[record]:
            offset = vpn % 512
            self.fa.insert(
                vpn - offset, 512, rt.pfn[record] - offset,
                rt.attr[record], True,
            )
            if self._obs is not None:
                self._obs.on_superpage_fill(vpn)
            return 0
        design = self.design
        if design is CoLTDesign.BASELINE:
            return self._fill_baseline(vpn, record)
        slot = vpn & 7
        if not rt.valid[record][slot]:
            raise ValueError(f"demanded vpn {vpn} not present in cache line")
        lo = rt.run_lo[record][slot]
        hi = rt.run_hi[record][slot]
        window = self._window
        if window is not None:
            length = hi - lo + 1
            if length > window:
                shift = slot - lo - window // 2
                if shift < 0:
                    shift = 0
                elif shift > length - window:
                    shift = length - window
                lo += shift
                hi = lo + window - 1
        if design is CoLTDesign.COLT_SA:
            return self._fill_colt_sa(vpn, record, slot, lo, hi)
        if design is CoLTDesign.COLT_FA:
            return self._fill_colt_fa(vpn, record, slot, lo, hi)
        return self._fill_colt_all(vpn, record, slot, lo, hi)

    def _fill_baseline(self, vpn: int, record: int) -> int:
        rt = self._rt
        self._insert_l2((vpn, vpn, rt.pfn[record], rt.attr[record]))
        self.l1.insert((vpn, vpn, rt.pfn[record], rt.attr[record]))
        self._count_fill(1)
        return 1

    def _clip_to_group(
        self, vpn: int, slot: int, lo: int, hi: int, group: int
    ) -> Tuple[int, int]:
        """Clip run slots ``[lo, hi]`` to ``vpn``'s aligned group."""
        first = slot - (vpn % group)
        a = lo if lo > first else first
        top = first + group - 1
        b = hi if hi < top else top
        return a, b

    def _fill_colt_sa(
        self, vpn: int, record: int, slot: int, lo: int, hi: int
    ) -> int:
        rt = self._rt
        base = vpn - slot
        a2, b2 = self._clip_to_group(vpn, slot, lo, hi, self._g2)
        self._insert_l2((
            base + a2, base + b2,
            rt.line_pfn[record][a2], rt.line_attr[record][a2],
        ))
        a1, b1 = self._clip_to_group(vpn, slot, lo, hi, self._g1)
        self.l1.insert((
            base + a1, base + b1,
            rt.line_pfn[record][a1], rt.line_attr[record][a1],
        ))
        self._count_fill(b2 - a2 + 1)
        return 1

    def _fill_colt_fa(
        self, vpn: int, record: int, slot: int, lo: int, hi: int
    ) -> int:
        rt = self._rt
        run_length = hi - lo + 1
        if run_length < 2:
            return self._fill_baseline(vpn, record)
        base = vpn - slot
        self.fa.insert(
            base + lo, run_length,
            rt.line_pfn[record][lo], rt.line_attr[record][lo], False,
        )
        if self._fa_fill_l2:
            # Echo only the demanded translation into L2 (Section 4.2.1).
            self._insert_l2((vpn, vpn, rt.pfn[record], rt.attr[record]))
        self._c_fa_routed_fills += 1
        self._count_fill(run_length)
        return 0

    def _fill_colt_all(
        self, vpn: int, record: int, slot: int, lo: int, hi: int
    ) -> int:
        rt = self._rt
        run_length = hi - lo + 1
        if run_length <= self._all_threshold:
            self._c_sa_routed_fills += 1
            return self._fill_colt_sa(vpn, record, slot, lo, hi)
        base = vpn - slot
        self.fa.insert(
            base + lo, run_length,
            rt.line_pfn[record][lo], rt.line_attr[record][lo], False,
        )
        self._c_fa_routed_fills += 1
        if self._fa_fill_l2:
            a2, b2 = self._clip_to_group(vpn, slot, lo, hi, self._g2)
            self._insert_l2((
                base + a2, base + b2,
                rt.line_pfn[record][a2], rt.line_attr[record][a2],
            ))
        self._count_fill(run_length)
        return 0

    def _insert_l2(self, item: Tuple[int, int, int, int]) -> None:
        """L2 install with inclusive back-invalidation of the L1."""
        for victim in self.l2.insert(item):
            self._back_invalidate_l1(victim)

    def _back_invalidate_l1(self, item: tuple) -> None:
        """Drop L1 copies of ``item``'s pages the L2 no longer covers."""
        l2 = self.l2
        l1 = self.l1
        for vpn in range(item[0], item[1] + 1):
            if l2.covering(vpn) is None:
                l1.invalidate(vpn)

    def _count_fill(self, run_length: int) -> None:
        if run_length >= 2:
            self._c_coalesced_fills += 1
        else:
            self._c_uncoalesced_fills += 1
        if self._obs is not None:
            self._obs.on_fill(run_length)

    # ------------------------------------------------------------------
    # Shootdowns + counter flush.
    # ------------------------------------------------------------------

    def _invalidate_range(self, start: int, count: int) -> None:
        self._c_invalidations += count
        if self._obs is not None and count > 0:
            self._obs.on_shootdown(start, count=count)
        if self.design is CoLTDesign.PERFECT:
            # Perfect TLB structures are never filled; nothing to drop.
            return
        l1, l2, fa = self.l1, self.l2, self.fa
        mmuc = self.mmu_cache
        for vpn in range(start, start + count):
            l1.invalidate(vpn)
            # Mirrors MMU.invalidate: L1 copies of a dropped graceful
            # survivor go too, keeping the L2 inclusive.
            shot = l2.covering(vpn) if l2.graceful else None
            l2.invalidate(vpn)
            if shot is not None:
                self._back_invalidate_l1(shot)
            fa.invalidate(vpn)
            mmuc.invalidate_vpn(vpn)

    def _flush_counters(self) -> None:
        """Fold the epoch's pending deltas into the real counter set."""
        increment = self.counters.increment
        for name in _COUNTERS:
            attr = "_c_" + name
            delta = getattr(self, attr)
            if delta:
                increment(name, delta)
                setattr(self, attr, 0)

    # ------------------------------------------------------------------
    # The ``MMU`` surface the result assembly reads.
    # ------------------------------------------------------------------

    @property
    def l1_misses(self) -> int:
        return self.counters["l1_misses"]

    @property
    def l2_misses(self) -> int:
        return self.counters["l2_misses"]

    @property
    def total_walk_cycles(self) -> int:
        return self.counters["walk_latency"]

    @property
    def total_l2_hit_cycles(self) -> int:
        return self.counters["l2_hits"] * self.config.l2_latency


def vector_replay_scenario(
    scenario: CapturedScenario, config: SimulationConfig
) -> SimulationResult:
    """Replay a captured scenario with the vectorized engine.

    Bit-identical to :func:`repro.sim.replay.replay_scenario` for the
    same inputs. Sanitized runs delegate to the scalar path: the
    sanitizers attach to the live TLB objects, which this engine does
    not materialise.
    """
    if scenario_config(config) != scenario.config:
        raise SimulationError(
            f"config {config} does not match captured scenario "
            f"{scenario.config}"
        )
    if resolve_sanitize(config.sanitize):
        return replay_scenario(scenario, config)
    mmu_config = config.mmu or make_mmu_config(config.design)
    vmmu = VectorMMU(mmu_config, scenario, config.llc_pollution_per_access)
    with span(
        "replay",
        design=config.design.value,
        benchmark=config.benchmark,
        accesses=vmmu.accesses,
        engine="vector",
    ):
        vmmu.run()
    vpns = scenario.vpns
    distinct_lines = int(np.unique(vpns >> 3).size)
    discount = float(distinct_lines * HierarchyConfig().dram_latency)
    performance = evaluate_performance(
        vmmu,
        vmmu.accesses,
        scenario.profile.core,
        compulsory_discount_cycles=discount,
    )
    return SimulationResult(
        config=config,
        profile=scenario.profile,
        accesses=vmmu.accesses,
        l1_misses=vmmu.l1_misses,
        l2_misses=vmmu.l2_misses,
        mmu_counters=vmmu.counters.snapshot(),
        kernel_counters=scenario.kernel_counters,
        performance=performance,
        perfect_performance=perfect_tlb_result(
            vmmu.accesses, scenario.profile.core
        ),
        contiguity=scenario.contiguity,
        trace_unique_pages=scenario.trace_unique_pages,
    )
