"""Experiment runner: capture once per scenario, replay per design.

The runner executes the same (seeded, therefore identical) OS-and-trace
scenario under several TLB designs and assembles the comparison rows the
paper's figures plot. It is a two-phase executor over the capture/replay
split of ``repro.sim.scenario`` / ``repro.sim.replay``:

1. **Age** -- build each distinct aged machine
   (:func:`repro.sim.scenario.aged_key`: kernel config, seed, aging
   profile, memhog fraction, sanitize) once, as a pickled snapshot,
   unless this runner or its store already holds it.
2. **Capture** -- group the requested configs by their TLB-independent
   scenario (:func:`repro.sim.scenario.scenario_config`) and run the
   OS+workload interleaving exactly once per group, starting from the
   restored snapshot of its aged machine.
3. **Replay** -- stream each captured log through every requested
   design's MMU on the vectorized engine (:mod:`repro.sim.engine`);
   pure TLB work, no kernel or trace generation.

All three phases fan out across a ``ProcessPoolExecutor`` when ``jobs > 1``,
through the crash-tolerant :class:`repro.sim.resilience.ResilientExecutor`:
per-task submission with config-attributed failures, bounded retries
with deterministic backoff, per-task deadlines, broken-pool recovery
(rebuild once, then degrade to serial), and incremental checkpointing
-- every completed result is ``_finish``-ed (and stored) before a later
failure can abort the batch, so a rerun resumes from the store instead
of restarting. A seeded :class:`repro.sim.faults.FaultPlan`
(``COLT_FAULTS``) can inject worker crashes, task exceptions, delays
and store corruption to exercise exactly that machinery; any plan that
does not exhaust the retry budget yields bit-identical results to a
fault-free run.

Results are memoised in-process per config (so e.g. Figure 21 reuses
the runs Figure 18 already performed) and, when a
:class:`repro.sim.store.ResultStore` is attached, on disk across
invocations.

The runner has exactly one execution path. The one-call
:func:`repro.sim.system.simulate` remains the reference oracle the
capture+replay results are tested against.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import MemoryBudgetError, TaskExecutionError
from repro.common.statistics import CounterSet
from repro.core.mmu import CoLTDesign, MMUConfig
from repro.obs.hooks import (
    ObsPayload,
    drain_worker_obs,
    in_pool_worker,
    reset_worker_obs,
)
from repro.obs.live import get_progress
from repro.obs.registry import bind_counterset, get_registry
from repro.obs.trace import TraceEvent, current_tracer, obs_active, span
from repro.sim.faults import FaultPlan
from repro.sim.resilience import (
    RESILIENCE_COUNTERS,
    ResilientExecutor,
    RetryPolicy,
    TaskSpec,
)
from repro.sim.metrics import (
    EliminationRow,
    PerformanceRow,
    elimination_row,
    performance_row,
)
from repro.sim.engine import replay_with_engine
from repro.sim.scenario import (
    AgedKey,
    CapturedScenario,
    aged_key,
    build_aged_snapshot,
    capture_scenario,
    restoring,
    scenario_config,
)
from repro.sim.store import ResultStore
from repro.sim.system import SimulationConfig, SimulationResult
from repro.sim.watchdog import (
    DEGRADE_NO_PREFETCH,
    DEGRADE_SHRINK_POOL,
    Watchdog,
    dump_dir_for,
)

#: The design set of Figures 18 and 21.
STANDARD_DESIGNS: Tuple[CoLTDesign, ...] = (
    CoLTDesign.BASELINE,
    CoLTDesign.COLT_SA,
    CoLTDesign.COLT_FA,
    CoLTDesign.COLT_ALL,
)


def _drain_if_pooled() -> Optional[ObsPayload]:
    """Drain obs state only in pool workers.

    Serial (and downgraded-to-serial) execution runs task bodies in the
    parent, whose tracer/registry must not be reset mid-run -- the
    parent reports its own state directly.
    """
    return drain_worker_obs() if in_pool_worker() else None


def _age_task(
    key: AgedKey,
    faults: Optional[FaultPlan],
    index: int,
    attempt: int = 0,
) -> Tuple[bytes, Optional[ObsPayload]]:
    """Worker entry point: boot and age one machine; its snapshot."""
    if faults is not None:
        faults.fire("age", index, attempt)
    return build_aged_snapshot(key), _drain_if_pooled()


def _capture_task(
    config: SimulationConfig,
    snapshot: bytes,
    faults: Optional[FaultPlan],
    index: int,
    attempt: int = 0,
) -> Tuple[CapturedScenario, Optional[ObsPayload]]:
    """Worker entry point: one scenario capture (module-level, picklable).

    The capture restores ``snapshot`` (its aged machine) instead of
    aging. The second element carries the worker's drained
    observability state (``None`` in the common untraced case) back to
    the parent. Faults fire before the capture, keyed on this task's
    deterministic (site, index, attempt) triple.
    """
    if faults is not None:
        faults.fire("capture", index, attempt)
    with restoring(aged_key(config), snapshot):
        scenario = capture_scenario(config)
    return scenario, _drain_if_pooled()


def _replay_task(
    scenario: CapturedScenario,
    configs: Sequence[SimulationConfig],
    faults: Optional[FaultPlan],
    index: int,
    attempt: int = 0,
) -> Tuple[List[SimulationResult], Optional[ObsPayload]]:
    """Worker entry point: replay one scenario under several configs."""
    if faults is not None:
        faults.fire("replay", index, attempt)
    results = [replay_with_engine(scenario, config) for config in configs]
    return results, _drain_if_pooled()


def _age_context(key: AgedKey) -> Dict[str, object]:
    return {
        "stage": "age",
        "seed": key.seed,
        "num_frames": key.kernel.num_frames,
        "memhog": key.memhog_fraction,
    }


def _capture_context(config: SimulationConfig) -> Dict[str, object]:
    return {
        "stage": "capture",
        "benchmark": config.benchmark,
        "seed": config.seed,
        "accesses": config.accesses,
    }


def _replay_context(chunk: Sequence[SimulationConfig]) -> Dict[str, object]:
    first = chunk[0]
    return {
        "stage": "replay",
        "benchmark": first.benchmark,
        "seed": first.seed,
        "designs": ",".join(config.design.value for config in chunk),
    }


def _chunk(items: Sequence, pieces: int) -> List[List]:
    """Split ``items`` into up to ``pieces`` contiguous, non-empty runs."""
    pieces = max(1, min(pieces, len(items)))
    size, remainder = divmod(len(items), pieces)
    chunks, start = [], 0
    for index in range(pieces):
        end = start + size + (1 if index < remainder else 0)
        chunks.append(list(items[start:end]))
        start = end
    return chunks


class ExperimentRunner:
    """Runs and caches simulations keyed by their full configuration.

    Args:
        jobs: worker processes for the capture and replay fan-out;
            ``None`` or 1 runs inline (no pool).
        store: optional on-disk result store consulted before, and
            updated after, every simulation.
        policy: retry/backoff/deadline policy for the resilient
            executor; ``None`` means ``RetryPolicy()``.
        faults: deterministic fault-injection plan; ``None`` injects
            nothing.
        shutdown: optional :class:`repro.sim.resilience.ShutdownCoordinator`
            polled between (and during) waves; a requested shutdown
            raises :class:`~repro.common.errors.ShutdownRequested` with
            every already-completed result checkpointed.
        watchdog: optional :class:`repro.sim.watchdog.Watchdog`. The
            runner heartbeats it per completed task and honours its
            memory degradation ladder: rung 1 halves the worker pool,
            rung 2 additionally drops the cross-group prefetch (scenario
            groups run one at a time, captured logs released between
            them), rung 3 aborts with
            :class:`~repro.common.errors.MemoryBudgetError`.

    Per-task deadline stack dumps land in ``<store root>/dumps``
    (:func:`repro.sim.watchdog.dump_dir_for`).
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        store: Optional[ResultStore] = None,
        policy: Optional[RetryPolicy] = None,
        faults: Optional[FaultPlan] = None,
        shutdown=None,
        watchdog: Optional[Watchdog] = None,
    ) -> None:
        self._jobs = max(1, int(jobs)) if jobs else 1
        self._store = store
        self._policy = policy if policy is not None else RetryPolicy()
        self._faults = faults
        self._shutdown = shutdown
        self._watchdog = watchdog
        self._resilience = CounterSet(RESILIENCE_COUNTERS)
        if obs_active():
            bind_counterset(
                get_registry(), "colt_resilience", self._resilience
            )
        self._cache: Dict[SimulationConfig, SimulationResult] = {}
        self._scenarios: Dict[SimulationConfig, CapturedScenario] = {}
        # Aged-kernel snapshots, kept for the runner's life: a handful
        # of distinct machines serve every experiment of a run.
        self._aged: Dict[AgedKey, bytes] = {}
        # Observability state shipped back from pool workers.
        self._foreign_events: List[TraceEvent] = []
        self._foreign_dropped = 0

    # ------------------------------------------------------------------
    # Observability surface.
    # ------------------------------------------------------------------

    @property
    def store(self) -> Optional[ResultStore]:
        return self._store

    def store_summary(self) -> Optional[Dict[str, float]]:
        """Result-store effectiveness for the CLI summary line."""
        if self._store is None:
            return None
        counts = self._store.counters.as_dict()
        lookups = counts["hits"] + counts["misses"]
        counts["hit_ratio"] = counts["hits"] / lookups if lookups else 0.0
        return counts

    @property
    def resilience_counters(self) -> CounterSet:
        """The retry/timeout/rebuild/downgrade tallies of this runner."""
        return self._resilience

    def resilience_summary(self) -> Optional[Dict[str, int]]:
        """Counter dict when the resilience layer absorbed anything."""
        counts = self._resilience.as_dict()
        interesting = (
            "retries", "timeouts", "task_errors", "pool_rebuilds",
            "serial_downgrades", "failures",
        )
        if not any(counts.get(name, 0) for name in interesting):
            return None
        if self._faults is not None:
            counts["faults_injected"] = sum(
                self._faults.counters.as_dict().values()
            )
        return counts

    def trace_events(self) -> List[TraceEvent]:
        """This process's buffered events plus those of its workers."""
        tracer = current_tracer()
        events = list(self._foreign_events)
        if tracer is not None:
            events.extend(tracer.events())
        events.sort(key=lambda event: event.ts_us)
        return events

    def dropped_events(self) -> int:
        tracer = current_tracer()
        return self._foreign_dropped + (tracer.dropped if tracer else 0)

    def _absorb(self, payload: Optional[ObsPayload]) -> None:
        """Fold one worker task's drained obs state into this process."""
        if payload is None:
            return
        self._foreign_events.extend(payload.events)
        self._foreign_dropped += payload.dropped_events
        get_registry().merge_snapshot(payload.metrics)

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------

    def run(self, config: SimulationConfig) -> SimulationResult:
        return self.run_batch([config])[config]

    def run_batch(
        self, configs: Sequence[SimulationConfig]
    ) -> Dict[SimulationConfig, SimulationResult]:
        """Simulate every config, deduplicated, cached, and parallel.

        This is the runner's prefetch surface: experiment harnesses
        assemble every config a figure needs and submit them in one
        call, so captures and replays from different benchmarks fan out
        across the worker pool together.
        """
        pending: List[SimulationConfig] = []
        seen = set()
        for config in configs:
            if config in self._cache or config in seen:
                continue
            # ``is not None``, not truthiness: ResultStore has __len__,
            # so an empty (cold) store is falsy and would skip load().
            stored = (
                self._store.load(config) if self._store is not None else None
            )
            if stored is not None:
                self._cache[config] = stored
                continue
            seen.add(config)
            pending.append(config)

        if pending:
            get_progress().update_section(
                "runner",
                stage="simulate",
                configs=len(configs),
                pending=len(pending),
                jobs=self._jobs,
            )
            with span(
                "runner.run_batch",
                configs=len(configs),
                pending=len(pending),
                jobs=self._jobs,
            ):
                self._run_captured(pending)
            get_progress().update_section("runner", stage="idle", pending=0)
        return {config: self._cache[config] for config in configs}

    def _finish(
        self, config: SimulationConfig, result: SimulationResult
    ) -> None:
        self._cache[config] = result
        if self._store is not None:
            self._store.save(config, result)

    def _run_captured(self, pending: Sequence[SimulationConfig]) -> None:
        groups: Dict[SimulationConfig, List[SimulationConfig]] = {}
        for config in pending:
            groups.setdefault(scenario_config(config), []).append(config)

        if self._watchdog is not None and self._watchdog.should_abort():
            raise MemoryBudgetError(
                "memory watchdog exhausted its degradation ladder; "
                "refusing to start more simulation work"
            )
        rung = self._watchdog.degradation if self._watchdog else 0
        if rung >= DEGRADE_NO_PREFETCH and len(groups) > 1:
            # Rung 2: drop the cross-group prefetch. Scenario groups
            # run one at a time and their captured logs (the dominant
            # resident cost) are released before the next group starts.
            failure: Optional[TaskExecutionError] = None
            for key, group in groups.items():
                if self._watchdog.should_abort():
                    raise MemoryBudgetError(
                        "memory watchdog exhausted its degradation "
                        "ladder mid-batch; completed results are "
                        "checkpointed in the store"
                    )
                try:
                    self._run_groups({key: group})
                except TaskExecutionError as exc:
                    if failure is None:
                        failure = exc
                self._scenarios.clear()
            if failure is not None:
                raise failure
        else:
            self._run_groups(groups)

    def _run_groups(
        self,
        groups: Dict[SimulationConfig, List[SimulationConfig]],
    ) -> None:
        jobs = self._jobs
        if self._watchdog is not None:
            rung = self._watchdog.degradation
            if rung >= DEGRADE_SHRINK_POOL and jobs > 1:
                # Rung 1: halve the worker pool -- each live worker is
                # a full copy-on-write image of this process.
                jobs = max(1, jobs // 2)

        to_capture = [key for key in groups if key not in self._scenarios]
        machine = {key: aged_key(key) for key in to_capture}
        to_age: List[AgedKey] = []
        for aged in machine.values():
            if aged in self._aged or aged in to_age:
                continue
            stored = (
                self._store.load_snapshot(aged)
                if self._store is not None
                else None
            )
            if stored is not None:
                self._aged[aged] = stored
            else:
                to_age.append(aged)
        all_chunks: List[Tuple[SimulationConfig, List[SimulationConfig]]]
        all_chunks = []
        per_group = max(1, jobs // max(1, len(groups)))
        for key, group in groups.items():
            for chunk in _chunk(group, per_group):
                all_chunks.append((key, chunk))

        age_tasks = [
            TaskSpec(
                fn=_age_task,
                args=(aged, self._faults, index),
                site="age",
                index=index,
                context=_age_context(aged),
            )
            for index, aged in enumerate(to_age)
        ]
        # Run inline when there is no parallelism to exploit -- matches
        # the pre-resilience behaviour of not paying for a pool.
        tasks = len(age_tasks) + len(to_capture) + len(all_chunks)
        effective_jobs = jobs if tasks > 1 else 1
        # The initializer drops the tracer/registry state a forked
        # worker inherits from this process -- without it, the parent's
        # buffered events would be reported twice.
        with ResilientExecutor(
            jobs=effective_jobs,
            policy=self._policy,
            counters=self._resilience,
            initializer=reset_worker_obs,
            shutdown=self._shutdown,
            watchdog=self._watchdog,
            dump_dir=dump_dir_for(self._store),
        ) as executor:
            failure: Optional[TaskExecutionError] = None
            get_progress().update_section(
                "runner", stage="age", ages=len(age_tasks)
            )
            try:
                for task, (snapshot, payload) in executor.run(age_tasks):
                    aged = to_age[task.index]
                    self._aged[aged] = snapshot
                    if self._store is not None:
                        self._store.save_snapshot(aged, snapshot)
                    self._absorb(payload)
            except TaskExecutionError as exc:
                # Captures whose machine did age still run (and their
                # replays checkpoint) before the batch raises.
                failure = exc
            capture_tasks = [
                TaskSpec(
                    fn=_capture_task,
                    args=(key, self._aged[machine[key]], self._faults, index),
                    site="capture",
                    index=index,
                    context=_capture_context(key),
                )
                for index, key in enumerate(to_capture)
                if machine[key] in self._aged
            ]
            get_progress().update_section(
                "runner", stage="capture", captures=len(capture_tasks)
            )
            try:
                for task, (scenario, payload) in executor.run(capture_tasks):
                    self._scenarios[to_capture[task.index]] = scenario
                    self._absorb(payload)
            except TaskExecutionError as exc:
                # Keep going: scenarios that did capture can still
                # replay (and checkpoint) before the batch raises.
                if failure is None:
                    failure = exc
            replay_chunks = [
                (key, chunk)
                for key, chunk in all_chunks
                if key in self._scenarios
            ]
            replay_tasks = [
                TaskSpec(
                    fn=_replay_task,
                    args=(self._scenarios[key], chunk, self._faults, index),
                    site="replay",
                    index=index,
                    context=_replay_context(chunk),
                )
                for index, (key, chunk) in enumerate(replay_chunks)
            ]
            get_progress().update_section(
                "runner", stage="replay", replays=len(replay_tasks)
            )
            try:
                for task, (results, payload) in executor.run(replay_tasks):
                    self._absorb(payload)
                    _, chunk = replay_chunks[task.index]
                    for config, result in zip(chunk, results):
                        self._finish(config, result)
            except TaskExecutionError as exc:
                if failure is None:
                    failure = exc
            if failure is not None:
                raise failure

    # ------------------------------------------------------------------
    # Figure-level helpers.
    # ------------------------------------------------------------------

    def run_designs(
        self,
        base: SimulationConfig,
        designs: Sequence[CoLTDesign] = STANDARD_DESIGNS,
        mmu_overrides: Optional[Dict[CoLTDesign, MMUConfig]] = None,
    ) -> Dict[CoLTDesign, SimulationResult]:
        """Run the same scenario under each design (one capture total)."""
        configs = {
            design: base.with_updates(
                design=design,
                mmu=(mmu_overrides or {}).get(design),
            )
            for design in designs
        }
        results = self.run_batch(list(configs.values()))
        return {design: results[cfg] for design, cfg in configs.items()}

    def eliminations(
        self,
        base: SimulationConfig,
        designs: Sequence[CoLTDesign] = (
            CoLTDesign.COLT_SA,
            CoLTDesign.COLT_FA,
            CoLTDesign.COLT_ALL,
        ),
    ) -> List[EliminationRow]:
        """Figure 18-style rows: % of baseline misses eliminated."""
        all_designs = (CoLTDesign.BASELINE,) + tuple(designs)
        results = self.run_designs(base, all_designs)
        baseline = results[CoLTDesign.BASELINE]
        return [
            elimination_row(baseline, results[design]) for design in designs
        ]

    def performance_improvements(
        self,
        base: SimulationConfig,
        designs: Sequence[CoLTDesign] = (
            CoLTDesign.PERFECT,
            CoLTDesign.COLT_SA,
            CoLTDesign.COLT_FA,
            CoLTDesign.COLT_ALL,
        ),
    ) -> List[PerformanceRow]:
        """Figure 21-style rows: runtime improvement over baseline."""
        all_designs = (CoLTDesign.BASELINE,) + tuple(designs)
        results = self.run_designs(base, all_designs)
        baseline = results[CoLTDesign.BASELINE]
        return [
            performance_row(baseline, results[design]) for design in designs
        ]

    def clear(self) -> None:
        """Drop the in-process memo, captured scenarios and snapshots.

        The on-disk store (if any) is left intact; clear it explicitly
        with :meth:`repro.sim.store.ResultStore.clear`.
        """
        self._cache.clear()
        self._scenarios.clear()
        self._aged.clear()
