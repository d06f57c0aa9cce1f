"""Set-associative TLB with CoLT-SA's shifted set indexing.

Set selection (Section 4.1.2): a conventional TLB with ``S`` sets indexes
with ``VPN[log2(S)-1 : 0]``, mapping consecutive VPNs to consecutive sets
and precluding coalescing. CoLT-SA left-shifts the index field by ``k``
bits -- ``VPN[k + log2(S) - 1 : k]`` -- so each aligned group of ``2**k``
consecutive VPNs shares a set and may share one coalesced entry. The low
``k`` bits select among the entry's valid bits on lookup (Figure 4).

Note that a group is *allowed* to occupy several ways at once: when the
group's translations are not physically contiguous they cannot share one
entry's base-PPN arithmetic, so they live in separate ways carrying the
same tag with disjoint valid bits -- exactly what the hardware's
tag-match + valid-bit-select lookup supports.

The same class implements the baseline TLB (``index_shift = 0``).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from repro.common.lru import LRUTracker
from repro.common.statistics import CounterSet
from repro.common.types import Translation
from repro.tlb.config import SetAssociativeTLBConfig
from repro.tlb.entries import CoalescedEntry


class SetAssociativeTLB:
    """L1/L2 TLB storing (possibly coalesced) entries with LRU per set."""

    def __init__(self, config: SetAssociativeTLBConfig) -> None:
        self.config = config
        #: Optional sanitizer hook (see ``repro.analysis.sanitizers``);
        #: when attached, every insert is incrementally validated.
        self.sanitizer = None
        # Per set: entry-id -> entry, plus an LRU tracker over entry ids.
        # Ids (not group bases) key the ways, because one group may
        # legitimately occupy several ways (see module docstring).
        self._sets: List[Dict[int, CoalescedEntry]] = [
            {} for _ in range(config.num_sets)
        ]
        self._lru: List[LRUTracker[int]] = [
            LRUTracker(config.ways) for _ in range(config.num_sets)
        ]
        self._ids = itertools.count()
        self.counters = CounterSet(
            [
                "lookups",
                "hits",
                "misses",
                "fills",
                "evictions",
                "invalidations",
                "coalesced_translations",
            ]
        )

    # ------------------------------------------------------------------
    # Indexing.
    # ------------------------------------------------------------------

    def set_index_for(self, vpn: int) -> int:
        """Set selection with the shifted index field."""
        return (vpn >> self.config.index_shift) % self.config.num_sets

    def group_base_for(self, vpn: int) -> int:
        return vpn - (vpn % self.config.group_size)

    # ------------------------------------------------------------------
    # Lookup.
    # ------------------------------------------------------------------

    def probe(self, vpn: int, update_lru: bool = True) -> Optional[int]:
        """Probe the TLB; returns the PPN on hit, else None.

        The fast path used by the simulators -- identical bookkeeping to
        :meth:`lookup` without materialising a Translation object.
        """
        self.counters.increment("lookups")
        set_index = self.set_index_for(vpn)
        for entry_id, entry in self._sets[set_index].items():
            if entry.covers(vpn):
                if update_lru:
                    self._lru[set_index].touch(entry_id)
                self.counters.increment("hits")
                return entry.ppn_for(vpn)
        self.counters.increment("misses")
        return None

    def lookup(self, vpn: int, update_lru: bool = True) -> Optional[Translation]:
        """Probe the TLB; returns the translation on hit, else None."""
        ppn = self.probe(vpn, update_lru)
        if ppn is None:
            return None
        entry = self.entry_for(vpn)
        return Translation(vpn, ppn, entry.attributes)

    def entry_for(self, vpn: int) -> Optional[CoalescedEntry]:
        """The resident entry covering ``vpn`` (no stats side effects)."""
        set_index = self.set_index_for(vpn)
        for entry in self._sets[set_index].values():
            if entry.covers(vpn):
                return entry
        return None

    # ------------------------------------------------------------------
    # Fill.
    # ------------------------------------------------------------------

    def insert(self, entry: CoalescedEntry) -> List[CoalescedEntry]:
        """Install an entry; returns any entries displaced.

        Resident entries whose valid bits overlap the incoming entry are
        replaced (the walk's data is fresher and includes the demanded
        page); same-group entries with disjoint valid bits coexist in
        other ways. The LRU way is evicted when the set is full.
        """
        if entry.group_size != self.config.group_size:
            raise ValueError(
                f"entry group size {entry.group_size} != TLB group size "
                f"{self.config.group_size}"
            )
        set_index = self.set_index_for(entry.group_base_vpn)
        bucket = self._sets[set_index]
        lru = self._lru[set_index]
        displaced: List[CoalescedEntry] = []
        # Drop overlapping residents (stale copies of the same pages).
        for entry_id, resident in list(bucket.items()):
            if resident.group_base_vpn == entry.group_base_vpn and any(
                a and b for a, b in zip(resident.valid, entry.valid)
            ):
                displaced.append(bucket.pop(entry_id))
                lru.remove(entry_id)
        if lru.is_full:
            victim_id = self._choose_victim(set_index)
            lru.remove(victim_id)
            displaced.append(bucket.pop(victim_id))
            self.counters.increment("evictions")
        entry_id = next(self._ids)
        bucket[entry_id] = entry
        lru.touch(entry_id)
        self.counters.increment("fills")
        self.counters.increment("coalesced_translations", entry.coalesced_count)
        if self.sanitizer is not None:
            self.sanitizer.after_insert(self, entry)
        return displaced

    def _choose_victim(self, set_index: int) -> int:
        """Pick the entry id to evict from a full set.

        Standard LRU by default. With coalescing-aware replacement
        (Section 4.1.5 future work) the victim is the least-recently-used
        entry among those covering the fewest translations: an entry
        representing four pages is worth more than a singleton of equal
        recency.
        """
        lru = self._lru[set_index]
        if not self.config.coalescing_aware_replacement:
            return lru.victim()
        bucket = self._sets[set_index]
        min_count = min(e.coalesced_count for e in bucket.values())
        for entry_id in lru:  # LRU -> MRU order
            if bucket[entry_id].coalesced_count == min_count:
                return entry_id
        return lru.victim()  # pragma: no cover - loop always returns

    def insert_translation(self, translation: Translation) -> None:
        """Install a single (uncoalesced) translation."""
        group = self.config.group_size
        base = translation.vpn - (translation.vpn % group)
        valid = [False] * group
        valid[translation.vpn - base] = True
        self.insert(
            CoalescedEntry(
                base, group, valid, translation.pfn, translation.attributes
            )
        )

    # ------------------------------------------------------------------
    # Invalidation.
    # ------------------------------------------------------------------

    def invalidate(self, vpn: int) -> bool:
        """Shootdown for one page.

        Default behaviour per Section 4.1.5: CoLT "flush[es] out entire
        coalesced entries, losing information for pages that would be
        unaffected in standard TLBs". With graceful invalidation (the
        section's future-work idea) the entry is instead shrunk around
        the victim page, keeping the unaffected translations resident.
        A shootdown never evicts unrelated live entries: an interior
        page splits the entry in two, and when the set has no free way
        for the second survivor it is dropped (``graceful_drops``).
        """
        set_index = self.set_index_for(vpn)
        bucket = self._sets[set_index]
        lru = self._lru[set_index]
        dropped = False
        for entry_id, entry in list(bucket.items()):
            if not entry.covers(vpn):
                continue
            del bucket[entry_id]
            lru.remove(entry_id)
            self.counters.increment("invalidations")
            dropped = True
            if self.config.graceful_invalidation:
                for survivor in self._shrink_around(entry, vpn):
                    if lru.is_full:
                        self.counters.increment("graceful_drops")
                        continue
                    new_id = next(self._ids)
                    bucket[new_id] = survivor
                    lru.touch(new_id)
                    self.counters.increment("graceful_splits")
        return dropped

    @staticmethod
    def _shrink_around(entry: CoalescedEntry, vpn: int) -> List[CoalescedEntry]:
        """The surviving sub-entries after removing one page from ``entry``.

        A coalesced entry's valid bits form one contiguous run; removing
        an interior page yields at most two runs (left and right of it).
        """
        survivors: List[CoalescedEntry] = []
        slot = vpn - entry.group_base_vpn
        first = entry.first_valid_slot
        last = first + entry.coalesced_count - 1
        attrs = entry.attributes
        if slot > first:
            survivors.append(
                CoalescedEntry.from_run(
                    [
                        Translation(
                            entry.group_base_vpn + s,
                            entry.base_ppn + (s - first),
                            attrs,
                        )
                        for s in range(first, slot)
                    ],
                    entry.group_size,
                )
            )
        if slot < last:
            survivors.append(
                CoalescedEntry.from_run(
                    [
                        Translation(
                            entry.group_base_vpn + s,
                            entry.base_ppn + (s - first),
                            attrs,
                        )
                        for s in range(slot + 1, last + 1)
                    ],
                    entry.group_size,
                )
            )
        return survivors

    def flush(self) -> None:
        for bucket in self._sets:
            bucket.clear()
        for lru in self._lru:
            lru.clear()

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @property
    def occupancy(self) -> int:
        return sum(len(bucket) for bucket in self._sets)

    def resident_translations(self) -> int:
        """Total VPNs covered (> occupancy when entries are coalesced)."""
        return sum(
            entry.coalesced_count
            for bucket in self._sets
            for entry in bucket.values()
        )

    def entries(self) -> List[CoalescedEntry]:
        return [e for bucket in self._sets for e in bucket.values()]

    def iter_sets(self):
        """Yield ``(set_index, entries)`` pairs; sanitizer introspection."""
        for set_index, bucket in enumerate(self._sets):
            yield set_index, list(bucket.values())

    def set_entries(self, set_index: int) -> List[CoalescedEntry]:
        """The entries resident in one set; sanitizer introspection."""
        return list(self._sets[set_index].values())
