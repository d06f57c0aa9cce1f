"""Tests for the Section 4.1.5 future-work mechanisms.

The paper defers two refinements: gracefully uncoalescing entries on
invalidation (instead of whole-entry flushes) and replacement that
de-prioritises entries with little coalescing. Both are implemented
behind configuration flags; these tests pin their semantics.
"""

from dataclasses import replace

import pytest

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.mmu_cache import MMUCache
from repro.common.types import Translation
from repro.core.mmu import MMU, CoLTDesign, make_mmu_config
from repro.osmem.page_table import PageTable
from repro.sim.engine.soa import LeanFaTLB, LeanSetTLB
from repro.tlb.config import (
    FullyAssociativeTLBConfig,
    SetAssociativeTLBConfig,
)
from repro.tlb.entries import CoalescedEntry, RangeEntry
from repro.tlb.fully_associative import FullyAssociativeTLB
from repro.tlb.set_associative import SetAssociativeTLB
from repro.walker.page_walker import PageWalker


def run_of(start_vpn, start_pfn, length):
    return [
        Translation(start_vpn + i, start_pfn + i) for i in range(length)
    ]


class TestGracefulSAInvalidation:
    def graceful_tlb(self):
        return SetAssociativeTLB(
            SetAssociativeTLBConfig(32, 4, 2, graceful_invalidation=True)
        )

    def test_interior_invalidation_splits_entry(self):
        tlb = self.graceful_tlb()
        tlb.insert(CoalescedEntry.from_run(run_of(8, 100, 4), 4))
        tlb.invalidate(9)
        assert tlb.probe(9, update_lru=False) is None
        # Neighbours survive with correct PPNs.
        assert tlb.probe(8) == 100
        assert tlb.probe(10) == 102
        assert tlb.probe(11) == 103
        assert tlb.counters["graceful_splits"] == 2

    def test_edge_invalidation_shrinks_entry(self):
        tlb = self.graceful_tlb()
        tlb.insert(CoalescedEntry.from_run(run_of(8, 100, 4), 4))
        tlb.invalidate(8)
        assert tlb.probe(8, update_lru=False) is None
        for vpn, ppn in ((9, 101), (10, 102), (11, 103)):
            assert tlb.probe(vpn) == ppn

    def test_singleton_invalidation_leaves_nothing(self):
        tlb = self.graceful_tlb()
        tlb.insert_translation(Translation(5, 5))
        tlb.invalidate(5)
        assert tlb.occupancy == 0

    def test_default_behaviour_still_flushes_whole_entry(self):
        tlb = SetAssociativeTLB(SetAssociativeTLBConfig(32, 4, 2))
        tlb.insert(CoalescedEntry.from_run(run_of(8, 100, 4), 4))
        tlb.invalidate(9)
        assert tlb.probe(8, update_lru=False) is None


class TestGracefulFAInvalidation:
    def graceful_tlb(self):
        return FullyAssociativeTLB(
            FullyAssociativeTLBConfig(
                entries=8, allow_coalesced=True, graceful_invalidation=True
            )
        )

    def test_interior_invalidation_splits_range(self):
        tlb = self.graceful_tlb()
        tlb.insert(RangeEntry.from_run(run_of(100, 700, 8)))
        tlb.invalidate(103)
        assert tlb.probe(103, update_lru=False) is None
        assert tlb.probe(100) == 700
        assert tlb.probe(102) == 702
        assert tlb.probe(104) == 704
        assert tlb.probe(107) == 707
        assert tlb.occupancy == 2

    def test_superpages_still_drop_whole(self):
        tlb = self.graceful_tlb()
        tlb.insert_superpage(Translation(512, 1024, is_superpage=True))
        tlb.invalidate(512 + 10)
        assert tlb.occupancy == 0


class TestGracefulOverflow:
    """A split in a full set keeps the left survivor, drops the right
    one and evicts no bystander -- in the object model and in the
    vector engine's lean mirrors alike."""

    def test_full_two_way_set_drops_second_survivor(self):
        # 4 entries x 2 ways = 2 sets; groups 8..11 and 0..3 share set 0.
        tlb = SetAssociativeTLB(
            SetAssociativeTLBConfig(4, 2, 2, graceful_invalidation=True)
        )
        lean = LeanSetTLB(2, 2, 2, True, False)
        tlb.insert(CoalescedEntry.from_run(run_of(8, 100, 4), 4))
        tlb.insert_translation(Translation(0, 50))
        lean.insert((8, 11, 100, 0))
        lean.insert((0, 0, 50, 0))
        tlb.invalidate(9)
        lean.invalidate(9)
        assert tlb.probe(8, update_lru=False) == 100
        for vpn in (9, 10, 11):
            assert tlb.probe(vpn, update_lru=False) is None
        assert tlb.probe(0, update_lru=False) == 50
        assert tlb.counters["graceful_drops"] == 1
        assert tlb.counters["evictions"] == 0
        assert sorted(lean.buckets[0].values()) == [
            (0, 0, 50, 0), (8, 8, 100, 0),
        ]

    def test_full_fa_tlb_drops_second_survivor(self):
        tlb = FullyAssociativeTLB(
            FullyAssociativeTLBConfig(
                entries=2, allow_coalesced=True, graceful_invalidation=True
            )
        )
        lean = LeanFaTLB(2, True, 1024, True)
        for vpn, ppn, span in ((100, 700, 8), (200, 900, 4)):
            tlb.insert(RangeEntry.from_run(run_of(vpn, ppn, span)))
            lean.insert(vpn, span, ppn, 0, False)
        tlb.invalidate(103)
        lean.invalidate(103)
        assert tlb.probe(102, update_lru=False) == 702
        assert tlb.probe(104, update_lru=False) is None
        assert tlb.probe(200, update_lru=False) == 900
        assert tlb.counters["graceful_drops"] == 1
        assert tlb.counters["evictions"] == 0
        assert sorted(lean.entries.values()) == [
            (100, 103, 700, 0, False), (200, 204, 900, 0, False),
        ]

    def test_mmu_back_invalidates_dropped_pages_from_l1(self):
        table = PageTable()
        for offset in range(16):
            table.map_page(offset, 5000 + offset)
        config = make_mmu_config(
            CoLTDesign.COLT_SA, graceful_invalidation=True
        )
        # A one-entry L2: the split of 8..11 has room for one survivor.
        config = replace(config, l2=replace(config.l2, entries=1, ways=1))
        mmu = MMU(
            config, PageWalker(table, CacheHierarchy(), MMUCache()),
            sanitize=True,
        )
        mmu.access(9)
        assert mmu.l1.entry_for(11) is not None
        mmu.invalidate(9)
        assert mmu.l2.entry_for(8) is not None
        for vpn in (10, 11):
            assert mmu.l2.entry_for(vpn) is None
            # L1 had room for both survivors, but the L2 is inclusive.
            assert mmu.l1.entry_for(vpn) is None
        assert mmu.l1.entry_for(8) is not None
        mmu.sanitizer.full_scan()


class TestCoalescingAwareReplacement:
    def test_singleton_evicted_before_coalesced(self):
        # One set (4 entries, 4 ways): fill with a coalesced entry first
        # (making it LRU) and three singletons; the next insert must
        # evict a singleton, not the older coalesced entry.
        tlb = SetAssociativeTLB(
            SetAssociativeTLBConfig(
                4, 4, 2, coalescing_aware_replacement=True
            )
        )
        tlb.insert(CoalescedEntry.from_run(run_of(0, 100, 4), 4))  # LRU
        for vpn in (16, 32, 48):  # same set, different groups
            tlb.insert_translation(Translation(vpn, vpn))
        tlb.insert_translation(Translation(64, 64))
        # The coalesced entry survived despite being least recent.
        assert tlb.probe(0, update_lru=False) == 100
        # The oldest singleton (16) was evicted instead.
        assert tlb.probe(16, update_lru=False) is None

    def test_plain_lru_evicts_oldest_regardless(self):
        tlb = SetAssociativeTLB(SetAssociativeTLBConfig(4, 4, 2))
        tlb.insert(CoalescedEntry.from_run(run_of(0, 100, 4), 4))
        for vpn in (16, 32, 48, 64):
            tlb.insert_translation(Translation(vpn, vpn))
        assert tlb.probe(0, update_lru=False) is None

    def test_ties_broken_by_recency(self):
        tlb = SetAssociativeTLB(
            SetAssociativeTLBConfig(
                4, 4, 2, coalescing_aware_replacement=True
            )
        )
        for vpn in (0, 16, 32, 48):  # four singletons
            tlb.insert_translation(Translation(vpn, vpn))
        tlb.probe(0)  # promote the oldest
        tlb.insert_translation(Translation(64, 64))
        assert tlb.probe(16, update_lru=False) is None  # LRU singleton
        assert tlb.probe(0, update_lru=False) == 0


class TestFactoryFlags:
    def test_make_mmu_config_propagates_flags(self):
        config = make_mmu_config(
            CoLTDesign.COLT_ALL,
            graceful_invalidation=True,
            coalescing_aware_replacement=True,
        )
        assert config.l1.graceful_invalidation
        assert config.l2.coalescing_aware_replacement
        assert config.superpage.graceful_invalidation

    def test_defaults_stay_paper_faithful(self):
        config = make_mmu_config(CoLTDesign.COLT_ALL)
        assert not config.l1.graceful_invalidation
        assert not config.l2.coalescing_aware_replacement
        assert not config.superpage.graceful_invalidation
