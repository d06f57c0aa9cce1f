"""Memory-compaction daemon (paper Figure 3, Section 3.2.2).

The daemon defragments physical memory the way Linux's ``kcompactd``/
``compact_zone`` does: a *migrate scanner* walks from the bottom of
physical memory collecting movable allocated pages, a *free scanner*
walks from the top collecting free frames, and pages are migrated from
the former to the latter until the scanners meet. The result is that
movable data accumulates at the top of memory and free frames coalesce
at the bottom, where the buddy allocator merges them into large blocks.

Migration must preserve virtual-memory semantics, so the daemon uses the
reverse mapping stored in :class:`~repro.osmem.physical.PhysicalMemory`
(frame -> owning pid + backed vpn) and a caller-supplied process registry
to rewrite the owning page table after each copy. Pinned frames (kernel
allocations, page-table nodes) are never moved -- exactly the frames that
limit compaction on real systems.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.common.statistics import CounterSet
from repro.obs.trace import current_tracer
from repro.osmem.buddy import BuddyAllocator
from repro.osmem.physical import KERNEL_PID, PhysicalMemory

#: Callback resolving a pid to the object holding its page table. The
#: object must expose ``page_table`` with map_page/unmap_page.
ProcessResolver = Callable[[int], object]


class CompactionDaemon:
    """Two-scanner compaction over a (physmem, buddy) pair."""

    def __init__(
        self,
        physical: PhysicalMemory,
        buddy: BuddyAllocator,
        resolve_process: ProcessResolver,
        notify_invalidation=None,
    ) -> None:
        self._physical = physical
        self._buddy = buddy
        self._resolve_process = resolve_process
        # Called as (pid, vpn, count) after each migration rewrites a PTE;
        # the system simulator uses it to issue TLB shootdowns.
        self._notify_invalidation = notify_invalidation
        self.counters = CounterSet(
            ["runs", "pages_migrated", "pages_skipped", "aborted_runs"]
        )
        # Linux's compact_zone resumes scanning where the previous run
        # stopped; without the cursor, budgeted runs would re-migrate the
        # same low-memory pages forever.
        self._migrate_cursor = 0

    def run(
        self,
        max_migrations: Optional[int] = None,
        until_free_order: Optional[int] = None,
    ) -> int:
        """One compaction pass; returns the number of pages migrated.

        Args:
            max_migrations: stop after this many migrations (the daemon is
                incremental on real systems; None means run to completion,
                i.e. until the scanners meet).
            until_free_order: stop as soon as the buddy allocator can
                satisfy a block of this order -- Linux's ``compact_zone``
                equally stops once the allocation that triggered it can
                succeed, which is what keeps real compaction from ever
                producing a perfectly-defragmented machine.
        """
        tracer = current_tracer()
        if tracer is None:
            return self._run(max_migrations, until_free_order)
        with tracer.span(
            "compaction.run",
            cat="os",
            max_migrations=max_migrations,
            until_free_order=until_free_order,
        ) as span_args:
            migrated = self._run(max_migrations, until_free_order)
            span_args["migrated"] = migrated
            return migrated

    def _run(
        self,
        max_migrations: Optional[int],
        until_free_order: Optional[int],
    ) -> int:
        self.counters.increment("runs")
        migrated = 0
        check_interval = 32
        # Both scanners are snapshot arrays; frames become Python ints
        # only as the loop visits them, which budgeted runs keep short.
        movable = self._physical.movable_frames_ascending()
        if movable.size == 0:
            return 0
        # Resume at the first movable frame at or above the cursor,
        # wrapping once past the end.
        split = int(np.searchsorted(movable, self._migrate_cursor))
        sources = np.concatenate((movable[split:], movable[:split]))
        free_candidates = self._physical.free_frames_descending()
        free_total = free_candidates.size
        free_index = 0

        for source in map(int, sources):
            self._migrate_cursor = source + 1
            if max_migrations is not None and migrated >= max_migrations:
                self.counters.increment("aborted_runs")
                break
            if (
                until_free_order is not None
                and migrated % check_interval == 0
                and self._buddy.can_allocate(until_free_order)
            ):
                break
            # Advance the free scanner past frames we already consumed or
            # that fell below the migrate scanner.
            while free_index < free_total and not self._physical.is_free(
                int(free_candidates[free_index])
            ):
                free_index += 1
            if free_index >= free_total:
                break
            target = int(free_candidates[free_index])
            if target <= source:
                # Scanners met: everything below is as compact as it gets.
                break
            if self._migrate(source, target):
                migrated += 1
                free_index += 1
            else:
                self.counters.increment("pages_skipped")
        self.counters.increment("pages_migrated", migrated)
        return migrated

    def _migrate(self, source: int, target: int) -> bool:
        """Move one movable page from ``source`` to ``target``.

        Returns False when the page cannot be migrated (owner vanished or
        the mapping is part of a superpage, which Linux migrates as a unit
        and we conservatively skip).
        """
        pid = self._physical.owner_of(source)
        vpn = self._physical.backing_vpn_of(source)
        if pid in (KERNEL_PID, -1) or vpn < 0:
            return False
        process = self._resolve_process(pid)
        if process is None:
            return False
        page_table = process.page_table
        translation = page_table.lookup(vpn)
        if translation is None or translation.pfn != source:
            # Stale reverse map (should not happen; be safe).
            return False
        if translation.is_superpage:
            return False

        # Claim the target frame out of the buddy free pool.
        self._buddy.reserve_range(target, 1)
        self._physical.mark_allocated(
            target, 1, owner=pid, movable=True, backing_vpn=vpn
        )
        # Rewrite the PTE, preserving attribute bits, then release source.
        page_table.unmap_page(vpn)
        page_table.map_page(vpn, target, translation.attributes)
        self._physical.mark_free(source, 1)
        self._buddy.free_run(source, 1)
        if self._notify_invalidation is not None:
            self._notify_invalidation(pid, vpn, 1)
        return True
