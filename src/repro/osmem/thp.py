"""Transparent Hugepage Support (THS) model (paper Section 3.2.3).

Linux's THP tries, at anonymous-fault time, to back a 2MB-aligned virtual
chunk with one naturally-aligned 2MB physical block; when no such block
exists the fault falls back to base pages. Under memory pressure a
splitter daemon breaks existing superpages back into 4KB PTEs.

Two second-order effects of THS are what feed CoLT (Section 3.2.3):

* split superpages leave their 512-frame physical run intact, so the
  resulting 4KB mappings retain large *residual* contiguity;
* THS leans on the compaction daemon, which also hands the buddy
  allocator larger free blocks for ordinary allocations.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

from repro.common.constants import SUPERPAGE_PAGES
from repro.common.errors import OutOfMemoryError
from repro.common.statistics import CounterSet
from repro.common.types import PageAttributes
from repro.osmem.buddy import BuddyAllocator, order_for_pages
from repro.osmem.physical import PhysicalMemory
from repro.osmem.process import Process
from repro.osmem.vma import VMA, VMAKind

#: Buddy order of a 2MB block (512 = 2**9 pages).
SUPERPAGE_ORDER = order_for_pages(SUPERPAGE_PAGES)


class ThpManager:
    """Fault-time hugepage allocation and pressure-driven splitting."""

    def __init__(
        self,
        physical: PhysicalMemory,
        buddy: BuddyAllocator,
        notify_invalidation=None,
    ) -> None:
        self._physical = physical
        self._buddy = buddy
        # Called as (pid, chunk_base, 512) when a split replaces a PDE.
        self._notify_invalidation = notify_invalidation
        # (pid, chunk_base_vpn) -> base pfn, in creation order. The
        # splitter consumes from the front (oldest superpage first,
        # approximating Linux's deferred-split shrinker ordering).
        self._active: "OrderedDict[Tuple[int, int], int]" = OrderedDict()
        self.counters = CounterSet(
            ["huge_faults", "huge_fallbacks", "splits", "collapses"]
        )

    @property
    def active_superpages(self) -> int:
        return len(self._active)

    def eligible_chunk(self, process: Process, vma: VMA, vpn: int) -> Optional[int]:
        """2MB chunk base at which a hugepage could be installed for ``vpn``.

        Returns None when the VMA is file-backed (THS covers anonymous
        memory only), the chunk is not fully inside the VMA, or some page
        of the chunk is already populated.
        """
        if vma.kind is not VMAKind.ANONYMOUS or not vma.thp_eligible:
            return None
        chunk = vma.chunk_for(vpn)
        if chunk is None:
            return None
        if not process.chunk_is_unpopulated(chunk):
            return None
        return chunk

    def try_fault_huge(self, process: Process, chunk_base: int) -> bool:
        """Attempt to back ``chunk_base`` with a 2MB block.

        Returns True on success (mapping installed, frames accounted);
        False when no aligned 2MB block is free, in which case the caller
        falls back to the base-page path (and may run compaction first).
        """
        try:
            pfn = self._buddy.alloc_block(SUPERPAGE_ORDER)
        except OutOfMemoryError:
            self.counters.increment("huge_fallbacks")
            return False
        # Buddy blocks are naturally aligned, so pfn % 512 == 0 always
        # holds -- exactly the alignment a superpage needs.
        self._physical.mark_allocated(
            pfn,
            SUPERPAGE_PAGES,
            owner=process.pid,
            movable=True,
            backing_vpn=chunk_base,
        )
        process.page_table.map_superpage(
            chunk_base, pfn, PageAttributes.default_user()
        )
        process.note_populated(chunk_base, SUPERPAGE_PAGES)
        self._active[(process.pid, chunk_base)] = pfn
        self.counters.increment("huge_faults")
        return True

    def split_one(self, resolve_process) -> bool:
        """Split the oldest active superpage into 4KB PTEs.

        The physical frames are untouched: the 512 resulting base-page
        translations remain perfectly contiguous (residual contiguity).
        Returns False when no superpage is left to split.
        """
        while self._active:
            (pid, chunk_base), _pfn = self._active.popitem(last=False)
            process = resolve_process(pid)
            if process is None:
                continue
            process.page_table.split_superpage(chunk_base)
            self.counters.increment("splits")
            if self._notify_invalidation is not None:
                self._notify_invalidation(pid, chunk_base, 512)
            return True
        return False

    def split_for_process(self, process: Process) -> int:
        """Split every superpage of ``process`` (teardown, mprotect...)."""
        count = 0
        for key in [k for k in self._active if k[0] == process.pid]:
            del self._active[key]
            process.page_table.split_superpage(key[1])
            self.counters.increment("splits")
            count += 1
        return count

    def forget_chunk(self, pid: int, chunk_base: int) -> None:
        """Drop one superpage from the active book (caller splits it)."""
        self._active.pop((pid, chunk_base), None)

    def forget_process(self, process: Process) -> None:
        """Drop bookkeeping for an exiting process (frames freed elsewhere)."""
        for key in [k for k in self._active if k[0] == process.pid]:
            del self._active[key]

    def active_for(self, pid: int) -> List[int]:
        """Chunk bases of the active superpages of ``pid``."""
        return [chunk for (owner, chunk) in self._active if owner == pid]
