"""Binary buddy allocator, the primary source of allocation contiguity.

This reimplements the Linux buddy system the paper describes in Section
3.2.1 and Figures 1-2: free physical memory is tracked in per-order free
lists, where order-``k`` lists hold naturally-aligned blocks of ``2**k``
contiguous page frames. Allocation searches upward from the requested
order and iteratively halves oversized blocks; freeing iteratively merges
a block with its buddy whenever the buddy is also free.

Because a block returned for an N-page request is physically contiguous,
the allocator *by construction* hands contiguous physical frames to
contiguous virtual pages whenever the fault path requests frames in
batches -- the intermediate-contiguity regime CoLT exploits.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.analysis.sanitizers import BuddySanitizer, resolve_sanitize
from repro.common.constants import MAX_ORDER
from repro.common.errors import AllocationError, ConfigurationError, OutOfMemoryError
from repro.common.statistics import CounterSet


def order_for_pages(pages: int) -> int:
    """Smallest order whose block covers ``pages`` (ceil(log2(pages)))."""
    if pages < 1:
        raise AllocationError(f"page count must be >= 1, got {pages}")
    return (pages - 1).bit_length()


class BuddyAllocator:
    """Free-pool manager over a frame space ``[0, num_frames)``.

    The allocator tracks only *free* memory. Callers (the kernel fault
    path, the compaction daemon) pair it with :class:`PhysicalMemory` to
    record per-frame ownership. The class maintains the buddy invariants:

    * every free block is naturally aligned (``start % 2**order == 0``);
    * no two free blocks overlap;
    * no block and its free buddy coexist at the same order (they would
      have been merged).
    """

    def __init__(
        self,
        num_frames: int,
        max_order: int = MAX_ORDER,
        sanitize: Optional[bool] = None,
    ) -> None:
        if num_frames < 1:
            raise ConfigurationError(f"num_frames must be >= 1, got {num_frames}")
        if max_order < 1:
            raise ConfigurationError(f"max_order must be >= 1, got {max_order}")
        self._num_frames = num_frames
        self._max_order = max_order
        #: Optional :class:`BuddySanitizer` hook; ``sanitize=None`` defers
        #: to the ``COLT_SANITIZE`` environment variable.
        self.sanitizer: Optional[BuddySanitizer] = (
            BuddySanitizer(self) if resolve_sanitize(sanitize) else None
        )
        # Per-order LIFO of free block starts. OrderedDict gives O(1)
        # push/pop/remove-by-key, and LIFO matches Linux's hot-block reuse.
        self._free_lists: List["OrderedDict[int, None]"] = [
            OrderedDict() for _ in range(max_order)
        ]
        # start -> order for every free block, for buddy-merge lookups.
        self._block_order: Dict[int, int] = {}
        self.counters = CounterSet(
            ["allocations", "splits", "merges", "frees", "failed_allocations"]
        )
        self._seed_initial_blocks()

    def _seed_initial_blocks(self) -> None:
        """Carve ``[0, num_frames)`` into maximal aligned free blocks."""
        start = 0
        remaining = self._num_frames
        while remaining > 0:
            order = min(
                self._max_order - 1,
                remaining.bit_length() - 1,
                (start & -start).bit_length() - 1 if start else self._max_order - 1,
            )
            self._insert_block(start, order)
            start += 1 << order
            remaining -= 1 << order

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------

    @property
    def num_frames(self) -> int:
        return self._num_frames

    @property
    def max_order(self) -> int:
        return self._max_order

    @property
    def free_pages(self) -> int:
        return sum(
            len(blocks) << order
            for order, blocks in enumerate(self._free_lists)
        )

    def free_blocks_at(self, order: int) -> int:
        """Number of free blocks on the order-``order`` list."""
        self._check_order(order)
        return len(self._free_lists[order])

    def free_list_snapshot(self) -> Dict[int, Tuple[int, ...]]:
        """order -> sorted block starts; used by tests and diagnostics."""
        return {
            order: tuple(sorted(blocks))
            for order, blocks in enumerate(self._free_lists)
        }

    def largest_free_order(self) -> Optional[int]:
        """Highest order with a free block, or None when empty."""
        for order in range(self._max_order - 1, -1, -1):
            if self._free_lists[order]:
                return order
        return None

    def can_allocate(self, order: int) -> bool:
        self._check_order(order)
        return any(
            self._free_lists[o] for o in range(order, self._max_order)
        )

    # ------------------------------------------------------------------
    # Allocation (Figure 2: search upward, split downward).
    # ------------------------------------------------------------------

    def alloc_block(self, order: int) -> int:
        """Allocate one naturally-aligned block of ``2**order`` frames.

        Returns the first frame of the block.

        Raises:
            OutOfMemoryError: no free block of the requested or any larger
                order exists.
        """
        self._check_order(order)
        for search_order in range(order, self._max_order):
            if self._free_lists[search_order]:
                start = self._pop_block(search_order)
                # Iteratively halve, returning upper halves to the lists,
                # until we hold a block of exactly the requested order.
                while search_order > order:
                    search_order -= 1
                    buddy = start + (1 << search_order)
                    self._insert_block(buddy, search_order)
                    self.counters.increment("splits")
                self.counters.increment("allocations")
                if self.sanitizer is not None:
                    self.sanitizer.after_op()
                return start
        self.counters.increment("failed_allocations")
        raise OutOfMemoryError(
            f"no free block of order >= {order} "
            f"({self.free_pages} pages free, largest order "
            f"{self.largest_free_order()})"
        )

    def alloc_exact(self, pages: int) -> Tuple[int, int]:
        """Allocate exactly ``pages`` contiguous frames.

        Mirrors Linux's ``alloc_pages_exact``: allocate the covering
        power-of-two block, then free the unused tail back to the buddy
        lists. Returns ``(start, pages)``.
        """
        order = order_for_pages(pages)
        if order >= self._max_order:
            raise OutOfMemoryError(
                f"request for {pages} pages exceeds max block of "
                f"{1 << (self._max_order - 1)} pages"
            )
        start = self.alloc_block(order)
        tail = start + pages
        surplus = (1 << order) - pages
        if surplus:
            self._free_frame_run(tail, surplus)
        return start, pages

    def alloc_run_best_effort(self, pages: int) -> List[Tuple[int, int]]:
        """Allocate ``pages`` frames as few contiguous runs as possible.

        This is the batched fault path: try for a single contiguous run;
        when fragmentation makes that impossible, fall back to the largest
        available blocks. The returned list of ``(start, length)`` runs
        sums to ``pages``.

        Raises:
            OutOfMemoryError: fewer than ``pages`` frames are free in
                total. Any partial allocation is rolled back.
        """
        if pages < 1:
            raise AllocationError(f"page count must be >= 1, got {pages}")
        runs: List[Tuple[int, int]] = []
        remaining = pages
        try:
            while remaining > 0:
                run = self._alloc_up_to(remaining)
                runs.append(run)
                remaining -= run[1]
        except OutOfMemoryError:
            for start, length in runs:
                self._free_frame_run(start, length)
            raise
        return runs

    def _alloc_up_to(self, pages: int) -> Tuple[int, int]:
        """Allocate one run of at most ``pages`` frames (largest feasible)."""
        want_order = min(order_for_pages(pages), self._max_order - 1)
        # Exact-or-larger first: preserves contiguity for the request.
        for order in range(want_order, self._max_order):
            if self._free_lists[order]:
                take = min(pages, 1 << order)
                start, _ = self._alloc_exact_from_order(order, take)
                return start, take
        # Fragmented: fall back to the largest block smaller than wanted.
        for order in range(want_order - 1, -1, -1):
            if self._free_lists[order]:
                start = self.alloc_block(order)
                return start, 1 << order
        raise OutOfMemoryError("buddy allocator exhausted")

    def _alloc_exact_from_order(self, order: int, pages: int) -> Tuple[int, int]:
        start = self.alloc_block(order)
        surplus = (1 << order) - pages
        if surplus:
            self._free_frame_run(start + pages, surplus)
        return start, pages

    def reserve_range(self, start: int, length: int) -> None:
        """Remove an arbitrary free range from the pool (boot-time holes).

        Used to pin kernel text/data or emulate reserved regions. Every
        frame in the range must currently be free.
        """
        # Split any free block overlapping the range down to order 0, then
        # take the frames. Simple and only used at boot, so O(range) is fine.
        for pfn in range(start, start + length):
            self._take_single_frame(pfn)
        self.counters.increment("allocations")
        if self.sanitizer is not None:
            self.sanitizer.after_op()

    def _take_single_frame(self, pfn: int) -> None:
        block = self._find_block_containing(pfn)
        if block is None:
            raise AllocationError(f"frame {pfn} is not free")
        start, order = block
        self._remove_block(start, order)
        # Split until the block is exactly [pfn, pfn+1).
        while order > 0:
            order -= 1
            half = 1 << order
            if pfn < start + half:
                self._insert_block(start + half, order)
            else:
                self._insert_block(start, order)
                start += half
        assert start == pfn

    def _find_block_containing(self, pfn: int) -> Optional[Tuple[int, int]]:
        for order in range(self._max_order):
            start = (pfn >> order) << order
            if self._block_order.get(start) == order:
                return start, order
        return None

    def is_frame_free(self, pfn: int) -> bool:
        """True when ``pfn`` currently sits in some free block."""
        return self._find_block_containing(pfn) is not None

    # ------------------------------------------------------------------
    # Freeing (iterative buddy merge, Section 3.2.1).
    # ------------------------------------------------------------------

    def free_block(self, start: int, order: int) -> None:
        """Return an aligned ``2**order`` block and merge with buddies."""
        self._check_order(order)
        if start % (1 << order) != 0:
            raise AllocationError(
                f"block start {start} not aligned to order {order}"
            )
        if start + (1 << order) > self._num_frames:
            raise AllocationError("block extends past end of memory")
        self.counters.increment("frees")
        while order < self._max_order - 1:
            buddy = start ^ (1 << order)
            if self._block_order.get(buddy) != order:
                break
            self._remove_block(buddy, order)
            start = min(start, buddy)
            order += 1
            self.counters.increment("merges")
        self._insert_block(start, order)
        if self.sanitizer is not None:
            self.sanitizer.after_op()

    def free_run(self, start: int, length: int) -> None:
        """Free an arbitrary (not necessarily aligned) run of frames."""
        if length < 1:
            raise AllocationError(f"run length must be >= 1, got {length}")
        self.counters.increment("frees")
        self._free_frame_run(start, length)

    def _free_frame_run(self, start: int, length: int) -> None:
        """Free ``[start, start+length)`` as maximal aligned blocks."""
        end = start + length
        while start < end:
            # Largest aligned block starting at `start` that fits.
            align_order = (start & -start).bit_length() - 1 if start else self._max_order - 1
            size_order = (end - start).bit_length() - 1
            order = min(align_order, size_order, self._max_order - 1)
            self.free_block(start, order)
            start += 1 << order

    # ------------------------------------------------------------------
    # Free-list plumbing.
    # ------------------------------------------------------------------

    def _insert_block(self, start: int, order: int) -> None:
        if start in self._block_order:
            raise AllocationError(f"double free of block at {start}")
        self._free_lists[order][start] = None
        self._block_order[start] = order

    def _remove_block(self, start: int, order: int) -> None:
        del self._free_lists[order][start]
        del self._block_order[start]

    def _pop_block(self, order: int) -> int:
        start, _ = self._free_lists[order].popitem(last=True)
        del self._block_order[start]
        return start

    def _check_order(self, order: int) -> None:
        if not 0 <= order < self._max_order:
            raise AllocationError(
                f"order {order} out of range [0, {self._max_order})"
            )

    # ------------------------------------------------------------------
    # Invariant check (used by property-based tests).
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError if any buddy invariant is violated."""
        seen_frames = set()
        for order, blocks in enumerate(self._free_lists):
            for start in blocks:
                assert start % (1 << order) == 0, (
                    f"block {start} misaligned for order {order}"
                )
                assert self._block_order[start] == order
                frames = set(range(start, start + (1 << order)))
                assert not (frames & seen_frames), "overlapping free blocks"
                seen_frames |= frames
                if order < self._max_order - 1:
                    buddy = start ^ (1 << order)
                    assert self._block_order.get(buddy) != order, (
                        f"unmerged buddies at order {order}: {start}, {buddy}"
                    )
        assert len(self._block_order) == sum(
            len(blocks) for blocks in self._free_lists
        )
