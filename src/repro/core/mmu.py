"""MMU front-end: the two-level TLB hierarchy and the CoLT designs.

``MMU.translate`` implements the per-access flow of Figures 4-6:

1. the set-associative L1 TLB and the fully-associative superpage TLB
   are probed in parallel (one hit time; a miss in both is "an L1 miss");
2. the set-associative L2 TLB (inclusive of the SA L1 only) is probed;
3. on a full miss, the page walker resolves the translation, and the
   Coalescing Logic builds the fill for the configured design:

   * ``BASELINE``  -- single-translation entries; superpages go to the FA TLB;
   * ``COLT_SA``   -- coalesce into L1/L2 under the shifted indexing
     (Section 4.1);
   * ``COLT_FA``   -- coalesce (unrestricted, up to the 8-PTE line) into
     the FA TLB, echoing just the demanded translation into L2
     (Section 4.2);
   * ``COLT_ALL``  -- threshold routing between the two (Section 4.3);
   * ``PERFECT``   -- 100%-hit-rate TLB, the paper's upper bound
     (Figure 21).

Coalescing happens only on the fill path, never on hits (design
principle 2, Section 4).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.analysis.sanitizers import TLBSanitizer, resolve_sanitize
from repro.common.constants import (
    COLT_FA_TLB_ENTRIES,
    DEFAULT_COLT_SA_SHIFT,
    DEFAULT_SUPERPAGE_TLB_ENTRIES,
)
from repro.common.errors import ConfigurationError
from repro.common.statistics import CounterSet
from repro.common.types import LookupResult, Translation
from repro.obs.hooks import MMUObserver
from repro.obs.registry import bind_counterset, get_registry
from repro.core.coalescing import (
    clip_to_group,
    clip_to_window,
    contiguous_run_around,
)
from repro.tlb.config import (
    FullyAssociativeTLBConfig,
    SetAssociativeTLBConfig,
    default_l1_config,
    default_l2_config,
)
from repro.tlb.entries import CoalescedEntry, RangeEntry
from repro.tlb.fully_associative import FullyAssociativeTLB
from repro.tlb.set_associative import SetAssociativeTLB
from repro.walker.page_walker import PageWalker


class CoLTDesign(enum.Enum):
    """Which TLB organisation the MMU models."""

    BASELINE = "baseline"
    COLT_SA = "colt_sa"
    COLT_FA = "colt_fa"
    COLT_ALL = "colt_all"
    PERFECT = "perfect"


@dataclass(frozen=True)
class MMUConfig:
    """Full hierarchy configuration.

    Attributes:
        design: TLB organisation (see :class:`CoLTDesign`).
        l1 / l2: set-associative TLB geometries (index_shift > 0 only
            meaningful for COLT_SA / COLT_ALL).
        superpage: fully-associative TLB geometry.
        colt_all_threshold: CoLT-All's routing threshold; runs longer
            than this go to the FA TLB (defaults to the L2 group size,
            i.e. what the SA indexing can accommodate, Section 4.3.1).
        fa_fill_l2: CoLT-FA/All's L2 echo fill (Section 7.1.3's
            ablation: disabling costs 10-20% of the miss eliminations).
        coalescing_window: maximum translations the coalescing logic may
            examine per fill; None means the natural 8-PTE cache-line
            bound (Section 4.1.4). Used by the window ablation.
        l1_latency / l2_latency: TLB hit latencies in cycles; L1 hit
            time is treated as hidden in the pipeline (0 extra cycles).
    """

    design: CoLTDesign
    l1: SetAssociativeTLBConfig
    l2: SetAssociativeTLBConfig
    superpage: FullyAssociativeTLBConfig
    colt_all_threshold: Optional[int] = None
    fa_fill_l2: bool = True
    coalescing_window: Optional[int] = None
    l1_latency: int = 0
    l2_latency: int = 7

    def __post_init__(self) -> None:
        if self.design in (CoLTDesign.BASELINE, CoLTDesign.PERFECT):
            if self.l1.index_shift or self.l2.index_shift:
                raise ConfigurationError(
                    f"{self.design.value} must not shift index bits"
                )
        if self.design is CoLTDesign.COLT_FA:
            if self.l1.index_shift or self.l2.index_shift:
                raise ConfigurationError(
                    "CoLT-FA keeps conventional set-associative indexing"
                )
        if self.l1.group_size > self.l2.group_size:
            raise ConfigurationError(
                "L1 group size must not exceed L2's: the L2 is inclusive "
                "of the SA L1, so every L1 fill must fit one L2 entry"
            )

    @property
    def effective_all_threshold(self) -> int:
        if self.colt_all_threshold is not None:
            return self.colt_all_threshold
        return self.l2.group_size


def make_mmu_config(
    design: CoLTDesign,
    sa_shift: int = DEFAULT_COLT_SA_SHIFT,
    l2_ways: int = 4,
    superpage_entries: Optional[int] = None,
    fa_fill_l2: bool = True,
    max_fa_span: Optional[int] = None,
    coalescing_window: Optional[int] = None,
    graceful_invalidation: bool = False,
    coalescing_aware_replacement: bool = False,
) -> MMUConfig:
    """Build the paper's standard configuration for a design.

    Baseline/perfect: 32/128-entry 4-way L1/L2 + 16-entry FA superpage
    TLB. CoLT-SA: index shift 2 (VPN[4-2] / VPN[6-2]). CoLT-FA / CoLT-All
    halve the FA TLB to 8 entries to pay for range-check lookup hardware
    (Section 4.2.4). The two ``graceful_invalidation`` /
    ``coalescing_aware_replacement`` flags enable the paper's
    Section 4.1.5 future-work mechanisms.
    """
    if design in (CoLTDesign.BASELINE, CoLTDesign.PERFECT):
        shift = 0
        sp_entries = superpage_entries or DEFAULT_SUPERPAGE_TLB_ENTRIES
        sp = FullyAssociativeTLBConfig(entries=sp_entries)
    elif design is CoLTDesign.COLT_SA:
        shift = sa_shift
        sp_entries = superpage_entries or DEFAULT_SUPERPAGE_TLB_ENTRIES
        sp = FullyAssociativeTLBConfig(entries=sp_entries)
    elif design is CoLTDesign.COLT_FA:
        shift = 0
        sp_entries = superpage_entries or COLT_FA_TLB_ENTRIES
        sp = FullyAssociativeTLBConfig(
            entries=sp_entries,
            allow_coalesced=True,
            merge_on_insert=True,
            **({"max_span": max_fa_span} if max_fa_span else {}),
        )
    elif design is CoLTDesign.COLT_ALL:
        shift = sa_shift
        sp_entries = superpage_entries or COLT_FA_TLB_ENTRIES
        sp = FullyAssociativeTLBConfig(
            entries=sp_entries,
            allow_coalesced=True,
            merge_on_insert=True,
            **({"max_span": max_fa_span} if max_fa_span else {}),
        )
    else:  # pragma: no cover - enum is exhaustive
        raise ConfigurationError(f"unknown design {design}")
    if graceful_invalidation:
        sp = replace(sp, graceful_invalidation=True)
    l1 = replace(
        default_l1_config(shift),
        graceful_invalidation=graceful_invalidation,
        coalescing_aware_replacement=coalescing_aware_replacement,
    )
    l2 = replace(
        default_l2_config(shift, ways=l2_ways),
        graceful_invalidation=graceful_invalidation,
        coalescing_aware_replacement=coalescing_aware_replacement,
    )
    return MMUConfig(
        design=design,
        l1=l1,
        l2=l2,
        superpage=sp,
        fa_fill_l2=fa_fill_l2,
        coalescing_window=coalescing_window,
    )


class MMU:
    """Per-access translation engine with pluggable CoLT design."""

    def __init__(
        self,
        config: MMUConfig,
        walker: PageWalker,
        sanitize: Optional[bool] = None,
    ) -> None:
        self.config = config
        self.walker = walker
        self.l1 = SetAssociativeTLB(config.l1)
        self.l2 = SetAssociativeTLB(config.l2)
        self.superpage_tlb = FullyAssociativeTLB(config.superpage)
        #: Optional :class:`TLBSanitizer`; ``sanitize=None`` defers to
        #: the ``COLT_SANITIZE`` environment variable.
        self.sanitizer: Optional[TLBSanitizer] = None
        if resolve_sanitize(sanitize):
            self.sanitizer = TLBSanitizer(self)
            self.sanitizer.attach()
        self.counters = CounterSet(
            [
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
            ]
        )
        #: Optional :class:`repro.obs.hooks.MMUObserver`; ``None`` unless
        #: observability is active (``COLT_TRACE`` / ``COLT_PROFILE``),
        #: so the disabled-mode cost is one ``is not None`` per
        #: miss/fill/shootdown -- the hit path never checks it.
        self._obs: Optional[MMUObserver] = MMUObserver.create(
            config.design.value
        )
        if self._obs is not None:
            bind_counterset(
                get_registry(), "colt_mmu", self.counters,
                design=config.design.value,
            )

    # ------------------------------------------------------------------
    # The per-access flow.
    # ------------------------------------------------------------------

    def access(self, vpn: int) -> Tuple[str, int]:
        """Translate one access; returns ``(hit_level, latency)``.

        The fast path used by the simulators: full TLB/walker bookkeeping
        without materialising translation objects on hits.
        """
        self.counters.increment("accesses")
        if self.config.design is CoLTDesign.PERFECT:
            return "l1", self.config.l1_latency

        # Step 1: L1 SA and superpage/FA TLB probed in parallel.
        if self.l1.probe(vpn) is not None:
            self.counters.increment("l1_sa_hits")
            # Keep the parallel FA structure's recency honest.
            self.superpage_tlb.probe(vpn, update_lru=False)
            return "l1", self.config.l1_latency
        if self.superpage_tlb.probe(vpn) is not None:
            self.counters.increment("l1_fa_hits")
            return "superpage", self.config.l1_latency
        self.counters.increment("l1_misses")
        if self._obs is not None:
            self._obs.on_l1_miss(vpn)

        # Step 2: L2 (inclusive of the SA L1 only).
        latency = self.config.l2_latency
        if self.l2.probe(vpn) is not None:
            self.counters.increment("l2_hits")
            self._refill_l1_from_l2(vpn)
            return "l2", latency
        self.counters.increment("l2_misses")

        # Step 3: page walk + coalescing fill.
        walk = self.walker.walk(vpn)
        self.counters.increment("walks")
        self.counters.increment("walk_latency", walk.latency)
        latency += walk.latency
        self._fill(vpn, walk)
        if self.sanitizer is not None:
            self.sanitizer.after_fill(vpn)
        return "walk", latency

    def translate(self, vpn: int) -> LookupResult:
        """Translate one access, returning the full translation.

        Equivalent to :meth:`access` plus an architectural page-table
        read for the translation (tests and examples use this; the
        simulators use :meth:`access`).
        """
        hit_level, latency = self.access(vpn)
        translation = self.walker.page_table.lookup(vpn)
        return LookupResult(translation, hit_level, latency)

    def _refill_l1_from_l2(self, vpn: int) -> None:
        """Copy the hitting L2 entry down into L1 (sliced to L1's group)."""
        entry = self.l2.entry_for(vpn)
        if entry is None:  # pragma: no cover - entry just hit
            return
        sliced = entry.slice_for_group(vpn, self.config.l1.group_size)
        if sliced is not None:
            self.l1.insert(sliced)

    # ------------------------------------------------------------------
    # Fill policies (the design-specific part).
    # ------------------------------------------------------------------

    def _fill(self, vpn: int, walk) -> None:
        translation = walk.translation
        if translation.is_superpage:
            # Superpages always live in the FA TLB, in every design.
            base = Translation(
                translation.vpn - translation.vpn % 512,
                translation.pfn - translation.vpn % 512,
                translation.attributes,
                is_superpage=True,
            )
            self.superpage_tlb.insert_superpage(base)
            if self._obs is not None:
                self._obs.on_superpage_fill(vpn)
            return

        design = self.config.design
        if design is CoLTDesign.BASELINE:
            self._fill_baseline(translation)
        elif design is CoLTDesign.COLT_SA:
            self._fill_colt_sa(vpn, walk)
        elif design is CoLTDesign.COLT_FA:
            self._fill_colt_fa(vpn, walk)
        elif design is CoLTDesign.COLT_ALL:
            self._fill_colt_all(vpn, walk)
        else:  # pragma: no cover
            raise ConfigurationError(f"unexpected design {design}")

    def _coalescible_run(self, vpn: int, walk) -> list:
        run = contiguous_run_around(walk.cache_line_translations, vpn)
        if self.config.coalescing_window is not None:
            run = clip_to_window(run, vpn, self.config.coalescing_window)
        return run

    def _insert_l2(self, entry: CoalescedEntry) -> None:
        """Install into L2, back-invalidating L1 copies L2 no longer holds.

        The L2 is inclusive of the SA L1: when an L2 insert displaces a
        resident entry (capacity eviction or overlap replacement), any L1
        copy of a translation the L2 no longer covers must be dropped
        too, exactly as inclusive hardware back-invalidates its inner
        level. All L2 fills go through here so the invariant holds
        unconditionally, sanitizers on or off.
        """
        for victim in self.l2.insert(entry):
            self._back_invalidate_l1(victim)

    def _back_invalidate_l1(self, entry: CoalescedEntry) -> None:
        """Drop L1 copies of ``entry``'s pages the L2 no longer covers."""
        for slot, valid in enumerate(entry.valid):
            if not valid:
                continue
            vpn = entry.group_base_vpn + slot
            if self.l2.entry_for(vpn) is None:
                self.l1.invalidate(vpn)

    def _insert_l2_translation(self, translation: Translation) -> None:
        """Single-translation L2 fill routed through back-invalidation."""
        group = self.config.l2.group_size
        base = translation.vpn - (translation.vpn % group)
        valid = [False] * group
        valid[translation.vpn - base] = True
        self._insert_l2(
            CoalescedEntry(
                base, group, valid, translation.pfn, translation.attributes
            )
        )

    def _fill_baseline(self, translation: Translation) -> None:
        self._insert_l2_translation(translation)
        self.l1.insert_translation(translation)
        self._count_fill(1)

    def _fill_colt_sa(self, vpn: int, walk) -> None:
        """Coalesce within the cache line, clipped per TLB's index scheme."""
        run = self._coalescible_run(vpn, walk)
        l2_run = clip_to_group(run, vpn, self.config.l2.group_size)
        l2_entry = CoalescedEntry.from_run(l2_run, self.config.l2.group_size)
        self._insert_l2(l2_entry)
        l1_run = clip_to_group(run, vpn, self.config.l1.group_size)
        l1_entry = CoalescedEntry.from_run(l1_run, self.config.l1.group_size)
        self.l1.insert(l1_entry)
        self._count_fill(len(l2_run))

    def _fill_colt_fa(self, vpn: int, walk) -> None:
        """Unrestricted line coalescing into the FA TLB (Section 4.2.1)."""
        run = self._coalescible_run(vpn, walk)
        if len(run) >= 2:
            self.superpage_tlb.insert(RangeEntry.from_run(run))
            if self.config.fa_fill_l2:
                # Echo only the demanded translation into L2; the L1 is
                # left untouched (Section 4.2.1).
                self._insert_l2_translation(walk.translation)
            self.counters.increment("fa_routed_fills")
        else:
            self._fill_baseline(walk.translation)
            return
        self._count_fill(len(run))

    def _fill_colt_all(self, vpn: int, walk) -> None:
        """Threshold routing (Figure 6): small runs to SA, large to FA."""
        run = self._coalescible_run(vpn, walk)
        threshold = self.config.effective_all_threshold
        if len(run) <= threshold:
            self.counters.increment("sa_routed_fills")
            self._fill_colt_sa(vpn, walk)
            return
        self.superpage_tlb.insert(RangeEntry.from_run(run))
        self.counters.increment("fa_routed_fills")
        if self.config.fa_fill_l2:
            # Unlike CoLT-FA, bring as much of the run as the L2's index
            # scheme allows (Section 4.3.1).
            l2_run = clip_to_group(run, vpn, self.config.l2.group_size)
            self._insert_l2(
                CoalescedEntry.from_run(l2_run, self.config.l2.group_size)
            )
        self._count_fill(len(run))

    def _count_fill(self, run_length: int) -> None:
        if run_length >= 2:
            self.counters.increment("coalesced_fills")
        else:
            self.counters.increment("uncoalesced_fills")
        if self._obs is not None:
            self._obs.on_fill(run_length)

    # ------------------------------------------------------------------
    # Shootdowns.
    # ------------------------------------------------------------------

    def invalidate(self, vpn: int) -> None:
        """TLB shootdown for one virtual page.

        Whole coalesced entries covering the page are flushed
        (Section 4.1.5), and the walker's MMU-cache entries for this
        address are dropped (INVLPG semantics) -- the page-table structure
        may have changed (e.g. a THP split replaces a PDE).

        With graceful invalidation the L2 may drop a survivor of the
        split entry for want of a free way; its pages are then
        back-invalidated from the L1 too, keeping the L2 inclusive.
        """
        self.counters.increment("invalidations")
        if self._obs is not None:
            self._obs.on_shootdown(vpn)
        self.l1.invalidate(vpn)
        shot = (
            self.l2.entry_for(vpn)
            if self.config.l2.graceful_invalidation else None
        )
        self.l2.invalidate(vpn)
        if shot is not None:
            self._back_invalidate_l1(shot)
        self.superpage_tlb.invalidate(vpn)
        if self.walker.mmu_cache is not None:
            self.walker.mmu_cache.invalidate_vpn(vpn)
        if self.sanitizer is not None:
            self.sanitizer.after_invalidate(vpn)

    def invalidate_range(self, start_vpn: int, count: int) -> None:
        for vpn in range(start_vpn, start_vpn + count):
            self.invalidate(vpn)

    def flush(self) -> None:
        self.l1.flush()
        self.l2.flush()
        self.superpage_tlb.flush()

    # ------------------------------------------------------------------
    # Derived statistics.
    # ------------------------------------------------------------------

    @property
    def l1_misses(self) -> int:
        """Misses of the parallel L1 SA + superpage probe (paper's 'L1')."""
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
