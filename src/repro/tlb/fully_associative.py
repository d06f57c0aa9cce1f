"""Fully-associative TLB: superpage entries and CoLT-FA range entries.

The baseline configuration caches only superpages (the small structure
x86 processors pair with their set-associative TLBs). CoLT-FA
(Section 4.2) reuses it for coalesced base-page ranges: each entry holds
a base VPN, a coalescing length, and a base PPN; lookups range-check the
requested VPN against every entry (comparator + adder logic in hardware,
Figure 5).

Insertion-time merging (Section 4.2.1): when a freshly-coalesced entry is
adjacent -- in both VPN and PPN space -- to a resident entry, the two fuse
into one longer range. This is how CoLT-FA spans multiple PTE cache
lines, which the paper uses to explain why CoLT-FA sometimes beats
CoLT-All (Section 7.1.1).
"""

from __future__ import annotations

import itertools
from typing import List, Optional

from repro.common.lru import LRUTracker
from repro.common.statistics import CounterSet
from repro.common.types import Translation
from repro.tlb.config import FullyAssociativeTLBConfig
from repro.tlb.entries import RangeEntry


class FullyAssociativeTLB:
    """Small FA TLB with LRU replacement and range-check lookups."""

    def __init__(self, config: FullyAssociativeTLBConfig) -> None:
        self.config = config
        #: Optional sanitizer hook (see ``repro.analysis.sanitizers``);
        #: when attached, every insert is incrementally validated.
        self.sanitizer = None
        self._entries: dict = {}  # id -> RangeEntry
        self._lru: LRUTracker[int] = LRUTracker(config.entries)
        self._ids = itertools.count()
        self.counters = CounterSet(
            [
                "lookups",
                "hits",
                "misses",
                "fills",
                "evictions",
                "merges",
                "invalidations",
            ]
        )

    # ------------------------------------------------------------------
    # Lookup.
    # ------------------------------------------------------------------

    def probe(self, vpn: int, update_lru: bool = True) -> Optional[int]:
        """Range-check every entry; returns the PPN on hit, else None."""
        self.counters.increment("lookups")
        for entry_id, entry in self._entries.items():
            if entry.covers(vpn):
                if update_lru:
                    self._lru.touch(entry_id)
                self.counters.increment("hits")
                return entry.base_ppn + (vpn - entry.base_vpn)
        self.counters.increment("misses")
        return None

    def lookup(self, vpn: int, update_lru: bool = True) -> Optional[Translation]:
        """Range-check every entry; returns the translation on hit."""
        ppn = self.probe(vpn, update_lru)
        if ppn is None:
            return None
        entry = self.covering_entry(vpn)
        return entry.translation_for(vpn)

    def covering_entry(self, vpn: int) -> Optional[RangeEntry]:
        for entry in self._entries.values():
            if entry.covers(vpn):
                return entry
        return None

    # ------------------------------------------------------------------
    # Fill.
    # ------------------------------------------------------------------

    def insert(self, entry: RangeEntry) -> Optional[RangeEntry]:
        """Install an entry; returns the LRU victim if one was evicted.

        With ``merge_on_insert`` enabled, the incoming entry is first
        fused with any adjacent resident entries (repeatedly -- the new
        range may bridge two residents). The merged entry becomes MRU.
        The paper implements this without a second TLB scan by reusing
        the initial lookup's resident-candidate matches (Section 4.2.4);
        the architectural outcome is the same.
        """
        if entry.is_superpage and not self._superpage_valid(entry):
            raise ValueError("overlapping superpage entry")
        if self.config.merge_on_insert and not entry.is_superpage:
            entry = self._merge_with_residents(entry)
        victim = None
        if self._lru.is_full:
            victim_id = self._lru.evict()
            victim = self._entries.pop(victim_id)
            self.counters.increment("evictions")
        entry_id = next(self._ids)
        self._entries[entry_id] = entry
        self._lru.touch(entry_id)
        self.counters.increment("fills")
        if self.sanitizer is not None:
            self.sanitizer.after_insert(self, entry)
        return victim

    def insert_superpage(self, translation: Translation) -> Optional[RangeEntry]:
        return self.insert(RangeEntry.from_superpage(translation))

    def _superpage_valid(self, entry: RangeEntry) -> bool:
        return all(
            existing.end_vpn <= entry.base_vpn
            or entry.end_vpn <= existing.base_vpn
            or not existing.is_superpage
            for existing in self._entries.values()
        )

    def _merge_with_residents(self, entry: RangeEntry) -> RangeEntry:
        """Fuse ``entry`` with adjacent residents until none remain."""
        merged = True
        while merged:
            merged = False
            for entry_id, resident in list(self._entries.items()):
                if entry.mergeable_with(resident, self.config.max_span):
                    entry = entry.merged(resident, self.config.max_span)
                    del self._entries[entry_id]
                    self._lru.remove(entry_id)
                    self.counters.increment("merges")
                    merged = True
                    break
        return entry

    # ------------------------------------------------------------------
    # Invalidation.
    # ------------------------------------------------------------------

    def invalidate(self, vpn: int) -> bool:
        """Shootdown for one page.

        Whole-entry invalidation by default (Section 4.2.3). With
        graceful invalidation, a coalesced range entry is split into the
        (up to two) sub-ranges around the victim page; superpage entries
        are always dropped whole -- the hardware mapping itself is gone.
        As in the set-associative TLB, a shootdown never evicts unrelated
        live entries: a survivor that finds the TLB full is dropped.
        """
        dropped = False
        for entry_id, entry in list(self._entries.items()):
            if not entry.covers(vpn):
                continue
            del self._entries[entry_id]
            self._lru.remove(entry_id)
            self.counters.increment("invalidations")
            dropped = True
            if self.config.graceful_invalidation and not entry.is_superpage:
                for survivor in self._split_around(entry, vpn):
                    if self._lru.is_full:
                        self.counters.increment("graceful_drops")
                        continue
                    new_id = next(self._ids)
                    self._entries[new_id] = survivor
                    self._lru.touch(new_id)
                    self.counters.increment("graceful_splits")
        return dropped

    @staticmethod
    def _split_around(entry: RangeEntry, vpn: int) -> List[RangeEntry]:
        """Sub-ranges of ``entry`` surviving the removal of ``vpn``."""
        survivors: List[RangeEntry] = []
        left_span = vpn - entry.base_vpn
        if left_span > 0:
            survivors.append(
                RangeEntry(
                    entry.base_vpn, left_span, entry.base_ppn,
                    entry.attributes,
                )
            )
        right_span = entry.end_vpn - vpn - 1
        if right_span > 0:
            survivors.append(
                RangeEntry(
                    vpn + 1,
                    right_span,
                    entry.base_ppn + (vpn + 1 - entry.base_vpn),
                    entry.attributes,
                )
            )
        return survivors

    def flush(self) -> None:
        self._entries.clear()
        self._lru.clear()

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @property
    def occupancy(self) -> int:
        return len(self._entries)

    def entries(self) -> List[RangeEntry]:
        return list(self._entries.values())

    def resident_translations(self) -> int:
        return sum(entry.span for entry in self._entries.values())
