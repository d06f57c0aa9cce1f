"""Property-based tests (hypothesis) on the core data structures.

These check the invariants everything else relies on:

* the buddy allocator never corrupts its free lists, never double-books
  a frame, and conserves memory across arbitrary alloc/free sequences;
* coalesced TLB entries reproduce exactly the translations they were
  built from (the PPN generation logic is sound);
* the set-associative TLB never returns a wrong PPN, whatever sequence
  of fills, lookups and invalidations it sees;
* the contiguity scanner's runs partition the mapped pages;
* weighted CDFs are monotone and end at 1;
* the memoised capture recorder writes exactly the records, record
  index and shootdown arrays of the per-access recorder it replaced;
* a capture that restores an aged-kernel snapshot equals the capture
  that boots and ages in place, and both replay to ``simulate()``;
  the snapshot's key changes exactly when an input of aging changes;
* the array-based compaction scanners migrate exactly the pages the
  list-based linear scan did.
"""

import dataclasses
import gc
from types import SimpleNamespace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings

import repro.sim.scenario as scenario_module
from repro.common.cdfs import WeightedCDF, average_contiguity, contiguity_cdf
from repro.common.errors import (
    ConfigurationError,
    OutOfMemoryError,
    SanitizerError,
    TranslationError,
)
from repro.common.types import PageAttributes, Translation
from repro.contiguity.scanner import scan_translations
from repro.core.coalescing import contiguous_run_around
from repro.osmem.buddy import BuddyAllocator
from repro.osmem.kernel import Kernel, KernelConfig
from repro.core.mmu import CoLTDesign
from repro.osmem.memhog import CHARACTERIZATION_AGING, SIMULATION_AGING
from repro.osmem.page_table import PageTable
from repro.sim.engine import replay_with_engine
from repro.sim.scenario import (
    RECORD_COLUMNS,
    ScenarioEngine,
    aged_key,
    build_aged_snapshot,
    capture_scenario,
    restoring,
    scenario_config,
)
from repro.sim.system import SimulationConfig, simulate
from repro.tlb.config import SetAssociativeTLBConfig
from repro.tlb.entries import CoalescedEntry, RangeEntry
from repro.tlb.set_associative import SetAssociativeTLB

# ---------------------------------------------------------------------------
# Buddy allocator.
# ---------------------------------------------------------------------------

buddy_ops = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.integers(0, 5)),
        st.tuples(st.just("alloc_exact"), st.integers(1, 48)),
        st.tuples(st.just("best_effort"), st.integers(1, 64)),
        st.tuples(st.just("free"), st.integers(0, 1_000_000)),
    ),
    max_size=60,
)


@given(ops=buddy_ops)
@settings(max_examples=120, deadline=None)
def test_buddy_invariants_hold_under_arbitrary_ops(ops):
    buddy = BuddyAllocator(256)
    live = []  # (start, length) runs we own
    for op, arg in ops:
        if op == "alloc":
            try:
                start = buddy.alloc_block(arg)
                live.append((start, 1 << arg))
            except OutOfMemoryError:
                pass
        elif op == "alloc_exact":
            try:
                start, pages = buddy.alloc_exact(arg)
                live.append((start, pages))
            except OutOfMemoryError:
                pass
        elif op == "best_effort":
            try:
                live.extend(buddy.alloc_run_best_effort(arg))
            except OutOfMemoryError:
                pass
        elif op == "free" and live:
            start, length = live.pop(arg % len(live))
            buddy.free_run(start, length)
        buddy.check_invariants()
        # Conservation: free + live == total.
        owned = sum(length for _, length in live)
        assert buddy.free_pages + owned == 256
        # No two live runs overlap.
        frames = set()
        for start, length in live:
            run = set(range(start, start + length))
            assert not (run & frames)
            frames |= run


@given(ops=buddy_ops)
@settings(max_examples=60, deadline=None)
def test_buddy_free_everything_restores_full_memory(ops):
    buddy = BuddyAllocator(256)
    live = []
    for op, arg in ops:
        try:
            if op == "alloc":
                live.append((buddy.alloc_block(arg), 1 << arg))
            elif op == "alloc_exact":
                live.append(buddy.alloc_exact(arg))
            elif op == "best_effort":
                live.extend(buddy.alloc_run_best_effort(arg))
            elif op == "free" and live:
                start, length = live.pop(arg % len(live))
                buddy.free_run(start, length)
        except OutOfMemoryError:
            pass
    for start, length in live:
        buddy.free_run(start, length)
    assert buddy.free_pages == 256
    # Full merge back to the single seed block (256 = one order-8 block).
    assert buddy.free_blocks_at(8) == 1
    buddy.check_invariants()


# ---------------------------------------------------------------------------
# Coalesced entries.
# ---------------------------------------------------------------------------

@st.composite
def contiguous_runs(draw, max_group=8):
    group_size = draw(st.sampled_from([1, 2, 4, 8]))
    group_base = draw(st.integers(0, 1000)) * group_size
    start_slot = draw(st.integers(0, group_size - 1))
    length = draw(st.integers(1, group_size - start_slot))
    base_pfn = draw(st.integers(0, 1 << 30))
    run = [
        Translation(group_base + start_slot + i, base_pfn + i)
        for i in range(length)
    ]
    return run, group_size


@given(data=contiguous_runs())
@settings(max_examples=200)
def test_coalesced_entry_reproduces_its_run(data):
    run, group_size = data
    entry = CoalescedEntry.from_run(run, group_size)
    assert entry.coalesced_count == len(run)
    for translation in run:
        assert entry.covers(translation.vpn)
        assert entry.ppn_for(translation.vpn) == translation.pfn
    # And covers nothing else in the group.
    covered = {t.vpn for t in run}
    for slot in range(group_size):
        vpn = entry.group_base_vpn + slot
        if vpn not in covered:
            assert not entry.covers(vpn)


@given(
    base_vpn=st.integers(0, 1 << 30),
    base_pfn=st.integers(0, 1 << 30),
    span=st.integers(1, 300),
    probe=st.integers(-10, 320),
)
@settings(max_examples=200)
def test_range_entry_covers_exactly_its_span(base_vpn, base_pfn, span, probe):
    entry = RangeEntry(base_vpn, span, base_pfn,
                       PageAttributes.default_user())
    vpn = base_vpn + probe
    if vpn < 0:
        return
    if 0 <= probe < span:
        assert entry.covers(vpn)
        assert entry.ppn_for(vpn) == base_pfn + probe
    else:
        assert not entry.covers(vpn)


# ---------------------------------------------------------------------------
# Set-associative TLB: never a wrong answer.
# ---------------------------------------------------------------------------

@given(
    vpns=st.lists(st.integers(0, 255), min_size=1, max_size=200),
    shift=st.sampled_from([0, 1, 2, 3]),
)
@settings(max_examples=80, deadline=None)
def test_sa_tlb_never_returns_wrong_ppn(vpns, shift):
    """Fill from a fixed 'page table' (vpn -> vpn + 7777) in arbitrary
    order with interleaved lookups; every hit must be correct."""
    tlb = SetAssociativeTLB(SetAssociativeTLBConfig(16, 4, shift))
    for vpn in vpns:
        hit = tlb.probe(vpn)
        if hit is not None:
            assert hit == vpn + 7777
        else:
            tlb.insert_translation(Translation(vpn, vpn + 7777))
    # Every resident translation is also correct.
    for entry in tlb.entries():
        for slot in range(entry.group_size):
            vpn = entry.group_base_vpn + slot
            if entry.covers(vpn):
                assert entry.ppn_for(vpn) == vpn + 7777


@given(
    vpns=st.lists(st.integers(0, 127), min_size=1, max_size=120),
    invalidate=st.lists(st.integers(0, 127), max_size=30),
)
@settings(max_examples=60, deadline=None)
def test_sa_tlb_invalidation_removes_coverage(vpns, invalidate):
    tlb = SetAssociativeTLB(SetAssociativeTLBConfig(16, 4, 2))
    for vpn in vpns:
        if tlb.probe(vpn) is None:
            tlb.insert_translation(Translation(vpn, vpn))
    for vpn in invalidate:
        tlb.invalidate(vpn)
        assert tlb.probe(vpn, update_lru=False) is None


# ---------------------------------------------------------------------------
# Contiguity scanner.
# ---------------------------------------------------------------------------

@st.composite
def sparse_mappings(draw):
    """A VPN-sorted list of translations with random contiguity breaks."""
    count = draw(st.integers(1, 120))
    vpn, pfn = 0, draw(st.integers(0, 10_000))
    translations = []
    for _ in range(count):
        vpn += draw(st.sampled_from([1, 1, 1, 2, 5]))  # occasional holes
        if draw(st.booleans()):
            pfn += 1  # stays contiguous only if vpn also advanced by 1
        else:
            pfn = draw(st.integers(0, 100_000))
        translations.append(Translation(vpn, pfn))
    return translations


@given(mappings=sparse_mappings())
@settings(max_examples=150)
def test_scanner_runs_partition_pages(mappings):
    runs = scan_translations(mappings)
    # Total pages in runs equals number of translations.
    assert sum(r.length for r in runs) == len(mappings)
    # Runs are disjoint and each run is genuinely contiguous in both
    # spaces per the original mappings.
    by_vpn = {t.vpn: t for t in mappings}
    seen = set()
    for run in runs:
        for offset in range(run.length):
            vpn = run.start_vpn + offset
            assert vpn not in seen
            seen.add(vpn)
            assert by_vpn[vpn].pfn == run.start_pfn + offset


@given(mappings=sparse_mappings())
@settings(max_examples=100)
def test_scanner_runs_are_maximal(mappings):
    runs = scan_translations(mappings)
    by_vpn = {t.vpn: t for t in mappings}
    for run in runs:
        prev = by_vpn.get(run.start_vpn - 1)
        if prev is not None:
            assert not prev.is_contiguous_with(by_vpn[run.start_vpn])
        nxt = by_vpn.get(run.start_vpn + run.length)
        if nxt is not None:
            last = by_vpn[run.start_vpn + run.length - 1]
            assert not last.is_contiguous_with(nxt)


# ---------------------------------------------------------------------------
# Coalescing logic.
# ---------------------------------------------------------------------------

@given(mappings=sparse_mappings(), index=st.integers(0, 119))
@settings(max_examples=100)
def test_coalescing_run_is_contiguous_and_contains_demand(mappings, index):
    demand = mappings[index % len(mappings)]
    base = demand.vpn & ~7
    line = [t for t in mappings if base <= t.vpn < base + 8]
    run = contiguous_run_around(line, demand.vpn)
    assert any(t.vpn == demand.vpn for t in run)
    for a, b in zip(run, run[1:]):
        assert a.is_contiguous_with(b)


# ---------------------------------------------------------------------------
# CDFs.
# ---------------------------------------------------------------------------

@given(
    lengths=st.lists(st.integers(1, 1024), min_size=1, max_size=100)
)
@settings(max_examples=150)
def test_contiguity_cdf_properties(lengths):
    cdf = contiguity_cdf(lengths)
    values = [cdf.at(x) for x in (1, 2, 4, 16, 64, 256, 1024)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    assert cdf.at(1024) == pytest.approx(1.0)
    avg = average_contiguity(lengths)
    assert min(lengths) <= avg <= max(lengths) + 1e-9


# ---------------------------------------------------------------------------
# Capture record memo: memoised recorder == per-access oracle.
# ---------------------------------------------------------------------------


class _ReferenceRecorder:
    """The per-access recorder the memo replaced: one numpy row per
    access, rebuilt from the page table every time, then a full
    ``np.unique`` over all of them."""

    def __init__(self, engine, accesses):
        self._page_table = engine.process.page_table
        self._bench_pid = engine.process.pid
        self.records = np.zeros((accesses, RECORD_COLUMNS), dtype=np.int64)
        self.events = []
        self.position = 0
        engine.kernel.add_invalidation_listener(self._on_invalidation)

    def _on_invalidation(self, pid, start_vpn, count):
        if pid == self._bench_pid:
            self.events.append((self.position, start_vpn, count))

    def on_access(self, index, vpn):
        translation = self._page_table.lookup(vpn)
        row = self.records[index]
        row[0] = translation.pfn
        row[1] = int(translation.attributes)
        row[2] = 1 if translation.is_superpage else 0
        path = self._page_table.walk_path_addresses(vpn)
        row[3] = len(path)
        row[4:4 + len(path)] = path
        row[4 + len(path):8] = -1
        if not translation.is_superpage:
            mask = 0
            for offset, neighbour in enumerate(
                self._page_table.pte_cache_line(vpn)
            ):
                if neighbour is not None:
                    mask |= 1 << offset
                    row[9 + offset] = neighbour.pfn
                    row[17 + offset] = int(neighbour.attributes)
            row[8] = mask
        self.position = index + 1

    def deduplicate(self):
        records, inverse = np.unique(
            self.records, axis=0, return_inverse=True
        )
        return records, np.asarray(inverse, dtype=np.int64).ravel()


def _reference_capture(config):
    """(records, record_index, events) from the per-access oracle."""
    engine = ScenarioEngine(scenario_config(config))
    engine.prepare()
    recorder = _ReferenceRecorder(engine, len(engine.trace.vpns))
    engine.run_loop(recorder.on_access)
    records, record_index = recorder.deduplicate()
    events = np.asarray(recorder.events, dtype=np.int64).reshape(-1, 3)
    return records, record_index, events


def _assert_capture_matches_oracle(config):
    captured = capture_scenario(config)
    records, record_index, events = _reference_capture(config)
    assert captured.records.dtype == records.dtype
    assert captured.records.tobytes() == records.tobytes()
    assert captured.records.shape == records.shape
    assert captured.record_index.dtype == record_index.dtype
    assert captured.record_index.tobytes() == record_index.tobytes()
    assert captured.inval_before.tobytes() == events[:, 0].tobytes()
    assert captured.inval_start.tobytes() == events[:, 1].tobytes()
    assert captured.inval_count.tobytes() == events[:, 2].tobytes()


def _small_capture_config(
    benchmark="astar", ths=True, defrag=True, memhog=0.0, aged=True,
    churn_every=7, tick_every=25, seed=5,
):
    return SimulationConfig(
        benchmark=benchmark,
        kernel=KernelConfig(
            num_frames=4096, ths_enabled=ths, defrag_enabled=defrag
        ),
        memhog_fraction=memhog,
        accesses=1000,
        scale=0.1,
        seed=seed,
        aging=CHARACTERIZATION_AGING if aged else None,
        churn_every=churn_every,
        churn_pages=64,
        tick_every=tick_every,
    )


@given(
    benchmark=st.sampled_from(["astar", "omnetpp", "milc", "gobmk"]),
    ths=st.booleans(),
    defrag=st.booleans(),
    memhog=st.sampled_from([0.0, 0.25]),
    aged=st.booleans(),
    churn_every=st.sampled_from([0, 7, 48]),
    tick_every=st.sampled_from([0, 25, 200]),
    seed=st.integers(0, 50),
)
@settings(max_examples=10, deadline=None)
def test_memo_capture_matches_per_access_oracle(
    benchmark, ths, defrag, memhog, aged, churn_every, tick_every, seed
):
    _assert_capture_matches_oracle(
        _small_capture_config(
            benchmark, ths, defrag, memhog, aged, churn_every, tick_every,
            seed,
        )
    )


def test_memo_capture_matches_oracle_across_line_invalidations(
    monkeypatch,
):
    """A config whose run rewrites lines the benchmark already touched,
    so the memo must drop and recompute rows, not just fill once."""
    config = _small_capture_config("astar", memhog=0.25)
    rewalks = []
    deduplicate = scenario_module._CaptureRecorder.deduplicate

    def counting(recorder):
        rewalks.append(len(recorder.rows) - len(recorder._memo))
        return deduplicate(recorder)

    monkeypatch.setattr(
        scenario_module._CaptureRecorder, "deduplicate", counting
    )
    _assert_capture_matches_oracle(config)
    assert rewalks[0] > 0  # some VPN's row was computed more than once


def _recorder_engine(table, sanitize):
    """The slice of a ScenarioEngine the capture recorders read."""
    return SimpleNamespace(
        process=SimpleNamespace(page_table=table, pid=1),
        kernel=SimpleNamespace(add_invalidation_listener=lambda fn: None),
        config=SimpleNamespace(sanitize=sanitize),
    )


#: The first three PTE lines of two 2MB chunks: writes and accesses
#: keep landing on the same few lines.
_MEMO_VPNS = [chunk * 512 + offset for chunk in (0, 1) for offset in range(24)]

page_table_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["access"] * 4 + ["map"] * 2
            + ["unmap", "attrs", "accessed", "super", "split", "unmap_super"]
        ),
        st.integers(0, 1000),
        st.integers(0, 4095),
    ),
    min_size=20,
    max_size=150,
)


@given(ops=page_table_ops)
@settings(max_examples=150, deadline=None)
def test_memo_recorder_matches_oracle_under_arbitrary_writes(ops):
    """Any mix of page-table writes between accesses: the memo (with its
    sanitized self-check on) yields the oracle's records and index."""
    table = PageTable()
    memo = scenario_module._CaptureRecorder(_recorder_engine(table, True))
    oracle = _ReferenceRecorder(_recorder_engine(table, True), len(ops))
    index = 0
    for kind, pick, value in ops:
        # Writes other than map, and accesses, target a mapped VPN.
        mapped = [vpn for vpn in _MEMO_VPNS if table.lookup(vpn) is not None]
        any_vpn = _MEMO_VPNS[pick % len(_MEMO_VPNS)]
        target = mapped[pick % len(mapped)] if mapped else None
        try:
            if kind == "map":
                table.map_page(any_vpn, value)
            elif kind == "super":
                # Clear the chunk's base pages so the superpage fits.
                base = any_vpn & ~511
                for vpn in range(base, base + 512):
                    translation = table.lookup(vpn)
                    if translation and not translation.is_superpage:
                        table.unmap_page(vpn)
                table.map_superpage(base, value * 512)
            elif target is None:
                continue
            elif kind == "access":
                memo.on_access(index, target)
                oracle.on_access(index, target)
                index += 1
            elif kind == "unmap":
                table.unmap_page(target)
            elif kind == "attrs":
                table.set_attributes(target, PageAttributes(value & 0x7F))
            elif kind == "accessed":
                table.mark_accessed(target, dirty=bool(value & 1))
            elif kind == "split":
                table.split_superpage(target & ~511)
            elif kind == "unmap_super":
                table.unmap_superpage(target & ~511)
        except TranslationError:
            pass
    oracle.records = oracle.records[:index]
    records, record_index = memo.deduplicate()
    expected_records, expected_index = oracle.deduplicate()
    assert records.tobytes() == expected_records.tobytes()
    assert record_index.tobytes() == expected_index.tobytes()


def test_sanitized_memo_rejects_a_stale_row(monkeypatch):
    table = PageTable()
    table.map_page(40, 7)
    recorder = scenario_module._CaptureRecorder(_recorder_engine(table, True))
    # A version that never moves: the memo can no longer see writes.
    monkeypatch.setattr(table, "line_version", lambda vpn: 0)
    recorder.on_access(0, 40)
    recorder.on_access(1, 40)  # unchanged line: the recheck passes
    table.map_page(41, 8)  # neighbour mapped: 40's line window changed
    with pytest.raises(SanitizerError, match="stale walk record"):
        recorder.on_access(2, 40)


def test_memo_recomputes_after_a_neighbour_is_mapped():
    table = PageTable()
    table.map_page(40, 7)
    recorder = scenario_module._CaptureRecorder(
        _recorder_engine(table, False)
    )
    recorder.on_access(0, 40)
    recorder.on_access(1, 40)
    table.map_page(41, 8)
    recorder.on_access(2, 40)
    assert recorder.row_ids == [0, 0, 1]
    assert recorder.rows[0][8] == 0b01 and recorder.rows[1][8] == 0b11
    records, record_index = recorder.deduplicate()
    assert records.shape == (2, RECORD_COLUMNS)
    assert record_index.tolist() == [0, 0, 1]


# ---------------------------------------------------------------------------
# Aged-kernel snapshot: restored capture == in-place capture == simulate().
# ---------------------------------------------------------------------------


def _restored_capture(config):
    key = aged_key(config)
    with restoring(key, build_aged_snapshot(key)):
        return capture_scenario(config)


def _assert_same_capture(restored, in_place):
    for name in (
        "vpns", "records", "record_index",
        "inval_before", "inval_start", "inval_count",
    ):
        got, want = getattr(restored, name), getattr(in_place, name)
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert restored.kernel_counters == in_place.kernel_counters
    assert restored.contiguity == in_place.contiguity
    assert restored.trace_unique_pages == in_place.trace_unique_pages


_AGING_PROFILES = {
    "simulation": SIMULATION_AGING,
    "characterization": CHARACTERIZATION_AGING,
    "none": None,
}


@given(
    ths=st.booleans(),
    defrag=st.booleans(),
    memhog=st.sampled_from([0.0, 0.25, 0.5]),
    aging=st.sampled_from(sorted(_AGING_PROFILES)),
    churn_every=st.sampled_from([0, 7, 48]),
    tick_every=st.sampled_from([0, 25, 200]),
    seed=st.integers(0, 50),
    sanitize=st.booleans(),
)
@settings(max_examples=8, deadline=None)
def test_restored_capture_matches_in_place_and_simulate(
    ths, defrag, memhog, aging, churn_every, tick_every, seed, sanitize
):
    config = dataclasses.replace(
        _small_capture_config(
            "omnetpp", ths, defrag, memhog, True, churn_every, tick_every,
            seed,
        ),
        aging=_AGING_PROFILES[aging],
        sanitize=sanitize,
        design=CoLTDesign.COLT_ALL,
    )
    restored = _restored_capture(config)
    _assert_same_capture(restored, capture_scenario(config))
    assert replay_with_engine(restored, config) == simulate(config)


#: Every SimulationConfig field, split by whether boot, aging or memhog
#: read it. A new field must be placed here, so the key cannot go stale.
_AGED_FIELDS = {
    "kernel": KernelConfig(num_frames=4096, ths_enabled=False),
    "seed": 6,
    "aging": SIMULATION_AGING,
    "memhog_fraction": 0.25,
    "sanitize": True,
}
_RUN_FIELDS = {
    "benchmark": "milc",
    "accesses": 999,
    "scale": 0.2,
    "design": CoLTDesign.COLT_FA,
    "mmu": SimulationConfig(design=CoLTDesign.COLT_SA).mmu,
    "churn_every": 11,
    "churn_pages": 9,
    "churn_live_limit": 5,
    "tick_every": 13,
    "llc_pollution_per_access": 0.5,
}


def test_every_config_field_is_classified_for_the_aged_key():
    fields = {field.name for field in dataclasses.fields(SimulationConfig)}
    assert fields == set(_AGED_FIELDS) | set(_RUN_FIELDS)


@pytest.mark.parametrize("name", sorted(_AGED_FIELDS))
def test_aged_key_changes_with_every_input_of_aging(name):
    base = _small_capture_config(seed=5).with_updates(sanitize=False)
    changed = base.with_updates(**{name: _AGED_FIELDS[name]})
    assert getattr(changed, name) != getattr(base, name)
    assert aged_key(changed) != aged_key(base)


@pytest.mark.parametrize("name", sorted(_RUN_FIELDS))
def test_aged_key_ignores_what_runs_after_aging(name):
    base = _small_capture_config(seed=5)
    changed = base.with_updates(**{name: _RUN_FIELDS[name]})
    assert aged_key(changed) == aged_key(base)


def test_aged_key_resolves_sanitize_from_the_environment(monkeypatch):
    config = _small_capture_config()
    monkeypatch.setenv("COLT_SANITIZE", "1")
    assert aged_key(config) == aged_key(config.with_updates(sanitize=True))
    monkeypatch.setenv("COLT_SANITIZE", "0")
    assert aged_key(config) == aged_key(config.with_updates(sanitize=False))


def test_snapshot_for_another_machine_is_refused():
    config = _small_capture_config()
    other = aged_key(config.with_updates(seed=6))
    with restoring(other, b"unused"):
        with pytest.raises(ConfigurationError):
            capture_scenario(config)


def test_sanitized_restore_scans_before_layout(monkeypatch):
    config = _small_capture_config(memhog=0.25).with_updates(sanitize=True)
    scans = []
    engine = ScenarioEngine(config)
    monkeypatch.setattr(
        ScenarioEngine, "sanity_check",
        lambda self: scans.append(self.process),
    )
    engine.prepare(build_aged_snapshot(aged_key(config)))
    # One full scan, before the benchmark process existed.
    assert scans == [None]
    assert engine.kernel.sanitizer is not None


def test_capture_frees_its_kernel_without_a_collection():
    config = _small_capture_config(memhog=0.25)
    snapshot = build_aged_snapshot(aged_key(config))

    def kernels():
        return sum(
            1 for obj in gc.get_objects() if isinstance(obj, Kernel)
        )

    gc.collect()
    before = kernels()
    gc.disable()
    try:
        build_aged_snapshot(aged_key(config))
        with restoring(aged_key(config), snapshot):
            capture_scenario(config)
        capture_scenario(config)
        assert kernels() == before
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Compaction scanners: the searchsorted cursor == the old linear loop.
# ---------------------------------------------------------------------------


def _linear_scan_run(daemon, max_migrations):
    """The budgeted compaction pass as written before the scanners became
    arrays: Python lists and a linear search for the resume point."""
    physical = daemon._physical
    movable = [int(p) for p in physical.movable_frames_ascending()]
    if not movable:
        return 0
    split = 0
    while split < len(movable) and movable[split] < daemon._migrate_cursor:
        split += 1
    free_candidates = [int(p) for p in physical.free_frames_descending()]
    free_index = 0
    migrated = 0
    for source in movable[split:] + movable[:split]:
        daemon._migrate_cursor = source + 1
        if migrated >= max_migrations:
            break
        while (
            free_index < len(free_candidates)
            and not physical.is_free(free_candidates[free_index])
        ):
            free_index += 1
        if free_index >= len(free_candidates):
            break
        target = free_candidates[free_index]
        if target <= source:
            break
        if daemon._migrate(source, target):
            migrated += 1
            free_index += 1
    return migrated


def _fragmented_kernel(holes_every):
    kernel = Kernel(
        KernelConfig(
            num_frames=2048, ths_enabled=False, kernel_reserved_fraction=0.0
        )
    )
    process = kernel.create_process("frag", fault_batch=2)
    vmas = [kernel.malloc(process, 8, populate=True) for _ in range(240)]
    for vma in vmas[::holes_every]:
        kernel.free_vma(process, vma)
    return kernel


def _logged_migrations(kernel):
    log = []
    migrate = kernel.compaction._migrate

    def logged(source, target):
        moved = migrate(source, target)
        log.append((source, target, moved))
        return moved

    kernel.compaction._migrate = logged
    return log


def _budgeted_sequence(kernel, cursor, budget, runs, linear):
    daemon = kernel.compaction
    log = _logged_migrations(kernel)
    daemon._migrate_cursor = cursor
    for _ in range(runs):
        if linear:
            _linear_scan_run(daemon, budget)
        else:
            daemon.run(max_migrations=budget)
    return log, daemon._migrate_cursor


def test_budgeted_compaction_resumes_mid_memory():
    kernel = _fragmented_kernel(2)
    movable = kernel.physical.movable_frames_ascending()
    middle = movable.size // 2
    # The cursor sits on a movable frame: the scan starts there.
    cursor = int(movable[middle])
    log, _ = _budgeted_sequence(kernel, cursor, budget=3, runs=1, linear=False)
    assert [source for source, _, _ in log] == [
        int(p) for p in movable[middle:middle + 3]
    ]


def test_budgeted_compaction_wraps_past_the_last_movable_frame():
    kernel = _fragmented_kernel(2)
    movable = kernel.physical.movable_frames_ascending()
    log, _ = _budgeted_sequence(
        kernel, int(movable[-1]) + 1, budget=3, runs=1, linear=False
    )
    assert [source for source, _, _ in log] == [int(p) for p in movable[:3]]


@given(
    holes_every=st.integers(2, 5),
    cursor=st.integers(0, 2048),
    budget=st.integers(1, 40),
)
@example(holes_every=2, cursor=0, budget=6)
@example(holes_every=2, cursor=700, budget=6)
@example(holes_every=2, cursor=1500, budget=6)
@example(holes_every=2, cursor=2048, budget=6)  # past every frame: wraps
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_compaction_scanners_match_linear_scan(holes_every, cursor, budget):
    array_log, array_cursor = _budgeted_sequence(
        _fragmented_kernel(holes_every), cursor, budget, runs=3, linear=False
    )
    linear_log, linear_cursor = _budgeted_sequence(
        _fragmented_kernel(holes_every), cursor, budget, runs=3, linear=True
    )
    assert array_log == linear_log
    assert array_cursor == linear_cursor
    assert array_log  # every layout here has pages to migrate
