"""Determinism harness: same seed, same bits, or the build is broken.

The repo's apples-to-apples methodology (Section 5.2 of the paper: one
replayed system state evaluated under every TLB design) only works if a
``SimulationConfig`` plus its seeds fully determines the simulated
machine. This module makes that property testable: run the same
configuration twice, hash *everything observable* -- MMU/TLB/kernel
counters, final TLB contents, the buddy allocator's free lists, and the
complete page tables of every process -- and demand bit-identical
digests. Any hidden nondeterminism (iteration over an unordered set,
wall-clock leakage, unseeded randomness) shows up as a digest mismatch
long before it shows up as an unexplainable figure.

``check_all_designs`` additionally verifies the cross-design guarantee:
the OS-state digest (kernel + page tables, excluding the TLBs) must be
identical *across designs*, because the OS evolution is independent of
the TLB organisation.

Used by ``tests/test_analysis_determinism.py`` and as the CI smoke run
(``python -m repro.analysis.determinism``).
"""

from __future__ import annotations

import argparse
import hashlib
from typing import List, Optional, Sequence

from repro.common.errors import DeterminismError
from repro.core.mmu import CoLTDesign
from repro.sim.replay import replay_scenario
from repro.sim.scenario import (
    aged_key,
    build_aged_snapshot,
    capture_scenario,
    restoring,
)
from repro.sim.system import (
    SimulationConfig,
    SimulationResult,
    SystemSimulator,
    simulate,
)

#: The designs a full sweep covers.
ALL_DESIGNS = (
    CoLTDesign.BASELINE,
    CoLTDesign.COLT_SA,
    CoLTDesign.COLT_FA,
    CoLTDesign.COLT_ALL,
    CoLTDesign.PERFECT,
)


def _hash_lines(lines: List[str]) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def _counter_lines(label: str, snapshot) -> List[str]:
    return [
        f"{label}.{name}={value}"
        for name, value in sorted(snapshot.values.items())
    ]


def _tlb_lines(simulator: SystemSimulator) -> List[str]:
    """Canonical rendering of the final TLB contents."""
    mmu = simulator.mmu
    lines: List[str] = []
    for label, tlb in (("l1", mmu.l1), ("l2", mmu.l2)):
        for set_index, entries in tlb.iter_sets():
            for entry in sorted(
                entries,
                key=lambda e: (e.group_base_vpn, tuple(e.valid), e.base_ppn),
            ):
                valid = "".join("1" if v else "0" for v in entry.valid)
                lines.append(
                    f"{label}[{set_index}] base={entry.group_base_vpn} "
                    f"valid={valid} ppn={entry.base_ppn}"
                )
    for entry in sorted(
        mmu.superpage_tlb.entries(),
        key=lambda e: (e.base_vpn, e.span, e.base_ppn),
    ):
        kind = "sp" if entry.is_superpage else "range"
        lines.append(
            f"fa {kind} base={entry.base_vpn} span={entry.span} "
            f"ppn={entry.base_ppn}"
        )
    return lines


def _os_lines(simulator: SystemSimulator) -> List[str]:
    """Canonical rendering of the kernel-side state (TLB-independent)."""
    kernel = simulator.kernel
    lines = _counter_lines("kernel", kernel.counters.snapshot())
    for order, starts in sorted(kernel.buddy.free_list_snapshot().items()):
        lines.append(f"buddy[{order}]={','.join(map(str, sorted(starts)))}")
    for process in sorted(kernel.processes(), key=lambda p: p.pid):
        for translation in sorted(
            process.page_table.iter_mappings(),
            key=lambda t: t.vpn,
        ):
            flag = "S" if translation.is_superpage else "p"
            lines.append(
                f"pt[{process.pid}] {translation.vpn}->"
                f"{translation.pfn}{flag}"
            )
    return lines


def os_state_digest(simulator: SystemSimulator) -> str:
    """Digest of the TLB-independent system state after a run."""
    return _hash_lines(_os_lines(simulator))


def state_digest(simulator: SystemSimulator) -> str:
    """Digest of everything observable about a finished run."""
    lines = _counter_lines("mmu", simulator.mmu.counters.snapshot())
    lines += _counter_lines("l1", simulator.mmu.l1.counters.snapshot())
    lines += _counter_lines("l2", simulator.mmu.l2.counters.snapshot())
    lines += _counter_lines(
        "fa", simulator.mmu.superpage_tlb.counters.snapshot()
    )
    lines += _tlb_lines(simulator)
    lines += _os_lines(simulator)
    return _hash_lines(lines)


def _run(config: SimulationConfig) -> SystemSimulator:
    simulator = SystemSimulator(config)
    simulator.prepare()
    simulator.run()
    return simulator


def check_determinism(config: SimulationConfig, runs: int = 2) -> str:
    """Run ``config`` ``runs`` times; all digests must match.

    Returns the common digest; raises :class:`DeterminismError` on the
    first mismatch.
    """
    reference: Optional[str] = None
    for attempt in range(runs):
        digest = state_digest(_run(config))
        if reference is None:
            reference = digest
        elif digest != reference:
            raise DeterminismError(
                f"{config.benchmark}/{config.design.value}: run "
                f"{attempt + 1} produced digest {digest[:16]}..., run 1 "
                f"produced {reference[:16]}... (hidden nondeterminism)"
            )
    return reference


def check_all_designs(
    config: SimulationConfig,
    designs: Sequence[CoLTDesign] = ALL_DESIGNS,
    runs: int = 2,
) -> dict:
    """Per-design repeatability plus cross-design OS-state agreement.

    Returns ``{design.value: digest}``. The OS evolution must be
    identical for every design (the paper's replayed-trace methodology);
    each design's full digest must be identical across repeated runs.
    """
    digests = {}
    os_reference: Optional[str] = None
    for design in designs:
        design_config = config.with_updates(design=design)
        digests[design.value] = check_determinism(design_config, runs=runs)
        os_digest = os_state_digest(_run(design_config))
        if os_reference is None:
            os_reference = os_digest
        elif os_digest != os_reference:
            raise DeterminismError(
                f"OS state under {design.value} diverged from "
                f"{designs[0].value}: the kernel evolution must be "
                f"TLB-design-independent"
            )
    return digests


def _result_lines(result: SimulationResult) -> List[str]:
    """Canonical rendering of a :class:`SimulationResult`'s observables."""
    lines = _counter_lines("mmu", result.mmu_counters)
    lines += _counter_lines("kernel", result.kernel_counters)
    lines += [
        f"l1_misses={result.l1_misses}",
        f"l2_misses={result.l2_misses}",
        f"accesses={result.accesses}",
        f"trace_unique_pages={result.trace_unique_pages}",
        f"total_cycles={result.performance.total_cycles!r}",
        f"walk_cycles={result.performance.walk_cycles!r}",
        f"contiguity={result.contiguity!r}",
    ]
    return lines


def result_digest(result: SimulationResult) -> str:
    """Digest of everything observable about one simulation result."""
    return _hash_lines(_result_lines(result))


def check_replay_equivalence(
    config: SimulationConfig,
    designs: Sequence[CoLTDesign] = ALL_DESIGNS,
) -> dict:
    """Capture once, then demand bit-identical monolithic vs replayed runs.

    The capture/replay split (``repro.sim.scenario`` /
    ``repro.sim.replay``) is only a valid optimisation if replaying a
    captured scenario through a design's MMU observes *exactly* the
    inputs the monolithic simulator would have produced live: same
    per-access translations, same shootdown ordering, same walk
    latencies. This check runs both paths for every design and compares
    full result digests (all MMU/kernel counters, miss counts, cycle
    totals, contiguity). The capture restores an aged-kernel snapshot,
    as the runner's captures do, while the monolithic runs boot and
    age in place. Returns ``{design.value: digest}``; raises
    :class:`DeterminismError` on the first divergence.
    """
    key = aged_key(config)
    with restoring(key, build_aged_snapshot(key)):
        scenario = capture_scenario(config)
    digests = {}
    for design in designs:
        design_config = config.with_updates(design=design)
        monolithic = simulate(design_config)
        replayed = replay_scenario(scenario, design_config)
        mono_digest = result_digest(monolithic)
        replay_digest = result_digest(replayed)
        if mono_digest != replay_digest:
            diffs = [
                name
                for name, value in sorted(
                    monolithic.mmu_counters.values.items()
                )
                if replayed.mmu_counters[name] != value
            ]
            raise DeterminismError(
                f"{config.benchmark}/{design.value}: replay digest "
                f"{replay_digest[:16]}... != monolithic "
                f"{mono_digest[:16]}... (diverging counters: "
                f"{diffs or 'non-counter state'})"
            )
        digests[design.value] = mono_digest
    return digests


def _smoke_config(sanitize: Optional[bool]) -> SimulationConfig:
    from repro.osmem.kernel import KernelConfig

    return SimulationConfig(
        benchmark="gobmk",
        kernel=KernelConfig(num_frames=4096, seed=7),
        accesses=4000,
        scale=0.25,
        seed=11,
        churn_every=0,
        sanitize=sanitize,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.determinism",
        description="Verify same-seed bit-identical simulation.",
    )
    parser.add_argument(
        "--runs", type=int, default=2, help="repetitions per design"
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help="run with all runtime sanitizers attached",
    )
    parser.add_argument(
        "--replay", action="store_true",
        help="also verify capture+replay is bit-identical to the "
             "monolithic simulator for every design",
    )
    args = parser.parse_args(argv)
    config = _smoke_config(True if args.sanitize else None)
    digests = check_all_designs(config, runs=args.runs)
    for design, digest in digests.items():
        print(f"{design:10s} {digest}")
    print(f"determinism: OK ({args.runs} runs x {len(digests)} designs)")
    if args.replay:
        replay_digests = check_replay_equivalence(config)
        for design, digest in replay_digests.items():
            print(f"replay {design:10s} {digest}")
        print(
            f"replay equivalence: OK ({len(replay_digests)} designs "
            f"bit-identical to monolithic)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
