"""Lean structure-of-arrays TLB/cache state for the vectorized engine.

These classes replicate, tuple-for-tuple, the *observable* behaviour of
the object model -- ``repro.tlb.set_associative.SetAssociativeTLB``,
``repro.tlb.fully_associative.FullyAssociativeTLB``,
``repro.cache.cache.Cache`` and ``repro.cache.mmu_cache.MMUCache`` --
while storing entries as plain ``(start, end, ppn, attr)`` interval
tuples with list-based LRU order. Coverage exports (sorted interval
arrays with a leading sentinel) feed the NumPy window scan in
``repro.sim.engine.vector``; everything else is the lean scalar fallback
the engine uses on misses and at epoch boundaries.

Behavioural contract (asserted bit-identical by ``tests/test_engine.py``):

* a set-associative entry's valid bits form one contiguous run, so
  coverage, overlap-displacement and group membership all reduce to
  inclusive interval arithmetic;
* probes return the *first* covering entry in insertion order (for the
  FA TLB entries may overlap -- attribution order matters);
* graceful-invalidation survivors are installed only while the set (or
  FA TLB) has a free way, and dropped otherwise -- a shootdown never
  evicts unrelated live entries;
* the superpage-overlap check raises before any mutation, exactly like
  ``FullyAssociativeTLB.insert``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.cache.mmu_cache import CACHEABLE_LEVELS
from repro.sim.engine.records import _KEY_MASK

#: Matches ``repro.tlb.fully_associative.FullyAssociativeTLB.insert``.
_SP_OVERLAP = "overlapping superpage entry"


def _sentinel_coverage(starts, ends, ids):
    s = np.asarray(starts, dtype=np.int64)
    e = np.asarray(ends, dtype=np.int64)
    d = np.asarray(ids, dtype=np.int64)
    return s, e, d


class LeanSetTLB:
    """Interval-tuple mirror of ``SetAssociativeTLB``.

    Entries are ``(start, end, ppn, attr)`` with ``start..end`` the
    inclusive VPN interval of the valid run, ``ppn`` the frame of
    ``start`` and ``attr`` the (full) attribute bits of the run's first
    translation. Per set: an insertion-ordered id->entry dict plus an
    LRU order list (index 0 = least recently used). Ids are globally
    monotonic so the window scan can detect stale attributions via the
    shared ``dead`` set; newly covered VPNs are recorded in ``new_vpns``
    so stale FA attributions can detect fresher L1 coverage.
    """

    def __init__(
        self,
        num_sets: int,
        ways: int,
        index_shift: int,
        graceful_invalidation: bool,
        coalescing_aware: bool,
        dead: Optional[Set[int]] = None,
        new_vpns: Optional[Set[int]] = None,
    ) -> None:
        self.shift = index_shift
        self.set_mask = num_sets - 1
        self.ways = ways
        self.graceful = graceful_invalidation
        self.coalescing_aware = coalescing_aware
        self.buckets: List[Dict[int, tuple]] = [{} for _ in range(num_sets)]
        self.orders: List[List[int]] = [[] for _ in range(num_sets)]
        self.next_id = 0
        self.dead = dead
        self.new_vpns = new_vpns

    # -- lookup --------------------------------------------------------

    def probe(self, vpn: int) -> Optional[tuple]:
        """First covering entry (touched), or None. Mirrors ``probe``."""
        si = (vpn >> self.shift) & self.set_mask
        for eid, it in self.buckets[si].items():
            if it[0] <= vpn <= it[1]:
                order = self.orders[si]
                if order[-1] != eid:
                    order.remove(eid)
                    order.append(eid)
                return it
        return None

    def covering(self, vpn: int) -> Optional[tuple]:
        """Covering entry without LRU effects. Mirrors ``entry_for``."""
        for it in self.buckets[(vpn >> self.shift) & self.set_mask].values():
            if it[0] <= vpn <= it[1]:
                return it
        return None

    def touch(self, eid: int, vpn: int) -> None:
        """Mark a scan-attributed hit entry most recently used."""
        order = self.orders[(vpn >> self.shift) & self.set_mask]
        if order[-1] != eid:
            order.remove(eid)
            order.append(eid)

    # -- fill ----------------------------------------------------------

    def insert(self, item: tuple) -> List[tuple]:
        """Install an entry, returning displaced entries (insert order)."""
        s = item[0]
        e = item[1]
        si = (s >> self.shift) & self.set_mask
        bucket = self.buckets[si]
        order = self.orders[si]
        dead = self.dead
        displaced: List[tuple] = []
        for eid in list(bucket):
            res = bucket[eid]
            if res[1] >= s and res[0] <= e:
                displaced.append(bucket.pop(eid))
                order.remove(eid)
                if dead is not None:
                    dead.add(eid)
        if len(order) >= self.ways:
            vid = self._choose_victim(bucket, order)
            order.remove(vid)
            displaced.append(bucket.pop(vid))
            if dead is not None:
                dead.add(vid)
        eid = self.next_id
        self.next_id = eid + 1
        bucket[eid] = item
        order.append(eid)
        if self.new_vpns is not None:
            self.new_vpns.update(range(s, e + 1))
        return displaced

    def _choose_victim(self, bucket: Dict[int, tuple], order: List[int]) -> int:
        if not self.coalescing_aware:
            return order[0]
        min_count = min(it[1] - it[0] for it in bucket.values())
        for eid in order:  # LRU -> MRU, like LRUTracker iteration
            it = bucket[eid]
            if it[1] - it[0] == min_count:
                return eid
        return order[0]

    # -- invalidation --------------------------------------------------

    def invalidate(self, vpn: int) -> None:
        si = (vpn >> self.shift) & self.set_mask
        bucket = self.buckets[si]
        order = self.orders[si]
        for eid in list(bucket):
            it = bucket[eid]
            if not (it[0] <= vpn <= it[1]):
                continue
            del bucket[eid]
            order.remove(eid)
            if self.dead is not None:
                self.dead.add(eid)
            if self.graceful:
                s, e, ppn, attr = it
                if vpn > s:
                    self._install_survivor(
                        bucket, order, (s, vpn - 1, ppn, attr)
                    )
                if vpn < e:
                    self._install_survivor(
                        bucket, order, (vpn + 1, e, ppn + (vpn + 1 - s), attr)
                    )

    def _install_survivor(
        self, bucket: Dict[int, tuple], order: List[int], item: tuple
    ) -> None:
        if len(order) >= self.ways:
            return  # no free way: the survivor is dropped
        eid = self.next_id
        self.next_id = eid + 1
        bucket[eid] = item
        order.append(eid)
        if self.new_vpns is not None:
            self.new_vpns.update(range(item[0], item[1] + 1))

    # -- coverage export -----------------------------------------------

    def coverage(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sorted, globally-disjoint interval arrays with a sentinel.

        Entries of one set never interval-overlap (same group: disjoint
        valid runs; different groups: disjoint VPN windows), so one
        sorted ``searchsorted`` array covers the whole TLB. The leading
        ``(-2, -2, -1)`` sentinel keeps the scan branch-free.
        """
        starts = [-2]
        ends = [-2]
        ids = [-1]
        for bucket in self.buckets:
            for eid, it in bucket.items():
                starts.append(it[0])
                ends.append(it[1])
                ids.append(eid)
        s, e, d = _sentinel_coverage(starts, ends, ids)
        order = np.argsort(s, kind="stable")
        return s[order], e[order], d[order]


class LeanFaTLB:
    """Interval-tuple mirror of ``FullyAssociativeTLB``.

    Entries are ``(base, end, ppn, attr, is_superpage)`` with ``end``
    exclusive (``covers``: ``base <= vpn < end``). The insertion-ordered
    dict drives probe attribution (entries may overlap; first coverer
    wins), the separate LRU list drives capacity eviction.
    """

    def __init__(
        self,
        capacity: int,
        merge_on_insert: bool,
        max_span: int,
        graceful_invalidation: bool,
        dead: Optional[Set[int]] = None,
    ) -> None:
        self.capacity = capacity
        self.merge_on_insert = merge_on_insert
        self.max_span = max_span
        self.graceful = graceful_invalidation
        self.entries: Dict[int, tuple] = {}
        self.order: List[int] = []
        self.next_id = 0
        self.dead = dead

    # -- lookup --------------------------------------------------------

    def probe(self, vpn: int) -> Optional[tuple]:
        for eid, it in self.entries.items():
            if it[0] <= vpn < it[1]:
                order = self.order
                if order[-1] != eid:
                    order.remove(eid)
                    order.append(eid)
                return it
        return None

    def touch(self, eid: int) -> None:
        order = self.order
        if order[-1] != eid:
            order.remove(eid)
            order.append(eid)

    # -- fill ----------------------------------------------------------

    def insert(
        self, base: int, span: int, ppn: int, attr: int, is_sp: bool
    ) -> None:
        """Mirror of ``FullyAssociativeTLB.insert`` (victim is dropped)."""
        end = base + span
        if is_sp:
            for it in self.entries.values():
                if it[4] and it[1] > base and end > it[0]:
                    raise ValueError(_SP_OVERLAP)
        dead = self.dead
        if self.merge_on_insert and not is_sp:
            merged = True
            while merged:
                merged = False
                key = attr & _KEY_MASK
                for eid, it in list(self.entries.items()):
                    rb, re_, rp, ra, rsp = it
                    if rsp or (ra & _KEY_MASK) != key:
                        continue
                    if base <= rb:
                        lo_b, lo_e, lo_p, lo_a = base, end, ppn, attr
                        hi_b, hi_e, hi_p = rb, re_, rp
                    else:
                        lo_b, lo_e, lo_p, lo_a = rb, re_, rp, ra
                        hi_b, hi_e, hi_p = base, end, ppn
                    if (
                        lo_e == hi_b
                        and lo_p + (lo_e - lo_b) == hi_p
                        and (lo_e - lo_b) + (hi_e - hi_b) <= self.max_span
                    ):
                        base, end, ppn, attr = lo_b, hi_e, lo_p, lo_a
                        del self.entries[eid]
                        self.order.remove(eid)
                        if dead is not None:
                            dead.add(eid)
                        merged = True
                        break
        if len(self.order) >= self.capacity:
            vid = self.order.pop(0)
            del self.entries[vid]
            if dead is not None:
                dead.add(vid)
        eid = self.next_id
        self.next_id = eid + 1
        self.entries[eid] = (base, end, ppn, attr, is_sp)
        self.order.append(eid)

    # -- invalidation --------------------------------------------------

    def invalidate(self, vpn: int) -> None:
        for eid in list(self.entries):
            it = self.entries[eid]
            if not (it[0] <= vpn < it[1]):
                continue
            del self.entries[eid]
            self.order.remove(eid)
            if self.dead is not None:
                self.dead.add(eid)
            if self.graceful and not it[4]:
                b, en, p, a = it[0], it[1], it[2], it[3]
                if vpn > b:
                    self._install_survivor((b, vpn, p, a, False))
                if vpn + 1 < en:
                    self._install_survivor(
                        (vpn + 1, en, p + (vpn + 1 - b), a, False)
                    )

    def _install_survivor(self, item: tuple) -> None:
        if len(self.order) >= self.capacity:
            return  # no free entry: the survivor is dropped
        eid = self.next_id
        self.next_id = eid + 1
        self.entries[eid] = item
        self.order.append(eid)

    # -- coverage export -----------------------------------------------

    def coverage(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Interval arrays in insertion order (first coverer wins)."""
        bases = [-2]
        ends = [-2]
        ids = [-1]
        for eid, it in self.entries.items():
            bases.append(it[0])
            ends.append(it[1])
            ids.append(eid)
        return _sentinel_coverage(bases, ends, ids)


class LeanLLC:
    """Dict-per-set mirror of ``Cache`` for the PTE stream (LLC only)."""

    def __init__(self, num_sets: int, ways: int) -> None:
        self.num_sets = num_sets
        self.ways = ways
        self.sets: List[Dict[int, None]] = [{} for _ in range(num_sets)]

    def access(self, paddr: int) -> bool:
        line = paddr >> 6
        s = self.sets[line % self.num_sets]
        if line in s:
            del s[line]
            s[line] = None
            return True
        return False

    def fill(self, paddr: int) -> None:
        line = paddr >> 6
        s = self.sets[line % self.num_sets]
        if line in s:
            del s[line]
            s[line] = None
            return
        if len(s) >= self.ways:
            del s[next(iter(s))]
        s[line] = None

    def evict_lru_of_set(self, set_index: int) -> None:
        s = self.sets[set_index % self.num_sets]
        if s:
            del s[next(iter(s))]


class LeanMMUCache:
    """Single-dict mirror of the unified ``MMUCache`` (LRU over keys)."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._d: Dict[tuple, None] = {}

    def deepest(self, vpn: int) -> Optional[int]:
        d = self._d
        best = None
        for level, shift in CACHEABLE_LEVELS:
            key = (level, vpn >> shift)
            if key in d:
                best = key
        if best is None:
            return None
        del d[best]
        d[best] = None
        return best[0]

    def fill_walk(self, vpn: int, levels_visited: int) -> None:
        d = self._d
        for level, shift in CACHEABLE_LEVELS:
            if level >= levels_visited - 1:
                continue
            key = (level, vpn >> shift)
            if key in d:
                del d[key]
                d[key] = None
                continue
            if len(d) >= self.capacity:
                del d[next(iter(d))]
            d[key] = None

    def invalidate_vpn(self, vpn: int) -> None:
        d = self._d
        for level, shift in CACHEABLE_LEVELS:
            d.pop((level, vpn >> shift), None)


#: Memoised pollution schedules: (accesses, per_access, num_sets) ->
#: list of (access_index, set_index). The cursor stride is independent
#: of LLC contents, so the schedule is a pure function of these inputs.
_POLLUTION_MEMO: Dict[tuple, List[Tuple[int, int]]] = {}


def pollution_schedule(
    accesses: int, per_access: float, num_sets: int
) -> List[Tuple[int, int]]:
    """Precompute ``LLCPollution``'s eviction schedule, float-exactly.

    Replays the identical per-access budget accumulation so rounding
    behaviour matches the scalar path bit for bit. The eviction for
    access ``i`` fires *after* access ``i`` (it is applied lazily before
    the next page walk, the only reader of LLC state).
    """
    if per_access <= 0.0:
        return []
    key = (accesses, per_access, num_sets)
    cached = _POLLUTION_MEMO.get(key)
    if cached is not None:
        return cached
    events: List[Tuple[int, int]] = []
    budget = 0.0
    cursor = 0
    for i in range(accesses):
        budget += per_access
        if budget >= 1.0:
            lines = int(budget)
            budget -= lines
            for _ in range(lines):
                cursor = (cursor + 101) % num_sets
                events.append((i, cursor))
    _POLLUTION_MEMO[key] = events
    return events
