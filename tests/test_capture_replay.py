"""Capture/replay split: bit-equivalence, capture-once, store, schedules.

The two-phase executor (``repro.sim.scenario`` + ``repro.sim.replay`` +
``repro.sim.runner``) is only a valid optimisation if it is *invisible*
in the results: every design's replay must be bit-identical to the
legacy monolithic run, the OS must be captured exactly once per
scenario, and the disk store must hand equal results to concurrent
processes. These tests pin each of those properties.
"""

from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.analysis.determinism import check_replay_equivalence
from repro.common.errors import SimulationError
from repro.core.mmu import CoLTDesign
from repro.osmem.kernel import Kernel, KernelConfig
from repro.osmem.memhog import SIMULATION_AGING
from repro.sim.replay import replay_scenario
from repro.sim.runner import ExperimentRunner
from repro.sim.scenario import (
    LLCPollution,
    ScenarioEngine,
    aged_key,
    capture_scenario,
    scenario_config,
)
from repro.sim.store import SNAPSHOT_DIR, ResultStore, config_key
from repro.sim.system import SimulationConfig, simulate
from repro.experiments.environments import simulation_config
from repro.experiments.scale import QUICK

ALL_DESIGNS = (
    CoLTDesign.BASELINE,
    CoLTDesign.COLT_SA,
    CoLTDesign.COLT_FA,
    CoLTDesign.COLT_ALL,
    CoLTDesign.PERFECT,
)


def small_config(**overrides):
    defaults = dict(
        benchmark="gobmk",
        design=CoLTDesign.BASELINE,
        kernel=KernelConfig(num_frames=4096),
        accesses=4000,
        scale=0.25,
        seed=11,
        aging=SIMULATION_AGING,
        churn_every=48,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def _results_identical(a, b) -> bool:
    return (
        a.l1_misses == b.l1_misses
        and a.l2_misses == b.l2_misses
        and a.mmu_counters.values == b.mmu_counters.values
        and a.kernel_counters.values == b.kernel_counters.values
        and a.performance == b.performance
        and a.contiguity == b.contiguity
    )


@pytest.fixture(scope="module")
def quick_scenario():
    """One QUICK-scale capture, shared by every equivalence test."""
    return capture_scenario(simulation_config(QUICK.benchmarks[0], QUICK))


class TestReplayEquivalence:
    @pytest.mark.parametrize("design", ALL_DESIGNS, ids=lambda d: d.value)
    def test_quick_scale_bit_identical(self, quick_scenario, design):
        """Replays must match the monolithic run bit for bit, per design."""
        config = simulation_config(
            QUICK.benchmarks[0], QUICK
        ).with_updates(design=design)
        monolithic = simulate(config)
        replayed = replay_scenario(quick_scenario, config)
        assert replayed.l1_misses == monolithic.l1_misses
        assert replayed.l2_misses == monolithic.l2_misses
        assert replayed.mmu_counters.values == monolithic.mmu_counters.values
        assert _results_identical(replayed, monolithic)

    def test_equivalence_with_shootdowns(self):
        """Memhog pressure produces splits/reclaim; events must line up."""
        config = small_config(memhog_fraction=0.4, accesses=3000)
        scenario = capture_scenario(config)
        colt = config.with_updates(design=CoLTDesign.COLT_ALL)
        assert _results_identical(
            replay_scenario(scenario, colt), simulate(colt)
        )

    def test_determinism_harness_replay_mode(self):
        digests = check_replay_equivalence(
            small_config(accesses=2000),
            designs=(CoLTDesign.BASELINE, CoLTDesign.COLT_ALL),
        )
        assert set(digests) == {"baseline", "colt_all"}

    def test_replay_rejects_mismatched_scenario(self, quick_scenario):
        with pytest.raises(SimulationError):
            replay_scenario(quick_scenario, small_config())

    def test_scenario_config_is_design_independent(self):
        a = scenario_config(small_config(design=CoLTDesign.COLT_FA))
        b = scenario_config(small_config(design=CoLTDesign.PERFECT))
        assert a == b
        assert a.design is CoLTDesign.BASELINE
        assert a.mmu is None


class TestCaptureOnce:
    def test_run_designs_boots_one_kernel(self, monkeypatch):
        """The whole point of the split: 5 designs, 1 OS capture."""
        constructions = []
        original = Kernel.__init__

        def counting_init(self, *args, **kwargs):
            constructions.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Kernel, "__init__", counting_init)
        runner = ExperimentRunner(jobs=1)
        results = runner.run_designs(
            small_config(accesses=1500, scale=0.1), ALL_DESIGNS
        )
        assert len(results) == len(ALL_DESIGNS)
        assert len(constructions) == 1

    def test_each_aged_machine_is_booted_once(self, monkeypatch):
        """Captures that share an aged key restore one snapshot; a
        rerun on a warm store that needs new captures boots nothing."""
        constructions = []
        original = Kernel.__init__

        def counting_init(self, *args, **kwargs):
            constructions.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Kernel, "__init__", counting_init)
        base = small_config(accesses=1500, scale=0.1)
        configs = [
            base.with_updates(benchmark=benchmark, seed=seed)
            for benchmark in ("gobmk", "milc", "astar")
            for seed in (11, 12)
        ]
        runner = ExperimentRunner(jobs=1, store=ResultStore(self.store_dir))
        runner.run_batch(configs)
        assert len(constructions) == 2  # two seeds, two aged machines
        # A new runner on the warm store: new captures, no boot.
        rerun = ExperimentRunner(jobs=1, store=ResultStore(self.store_dir))
        rerun.run_batch([c.with_updates(accesses=1200) for c in configs])
        assert len(constructions) == 2

    @pytest.fixture(autouse=True)
    def _store_dir(self, tmp_path):
        self.store_dir = tmp_path / "store"

    def test_runner_memoises_identical_configs(self):
        runner = ExperimentRunner()
        config = small_config(accesses=1500, scale=0.1)
        assert runner.run(config) is runner.run(config)

    def test_runner_monolithic_mode_matches(self):
        config = small_config(accesses=1500, scale=0.1)
        split = ExperimentRunner().run(config)
        assert _results_identical(split, simulate(config))


def _store_worker(store_dir: str, config: SimulationConfig):
    """Run one config against a shared disk store (worker process)."""
    runner = ExperimentRunner(store=ResultStore(store_dir))
    return runner.run(config)


class TestResultStore:
    def test_two_processes_return_equal_results(self, tmp_path):
        config = small_config(accesses=1500, scale=0.1)
        with ProcessPoolExecutor(max_workers=2) as pool:
            futures = [
                pool.submit(_store_worker, str(tmp_path), config)
                for _ in range(2)
            ]
            first, second = [future.result() for future in futures]
        assert _results_identical(first, second)
        assert first == second
        # The store now serves later runners without simulating.
        assert ResultStore(tmp_path).load(config) == first

    def test_roundtrip_and_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        config = small_config(accesses=1500, scale=0.1)
        assert store.load(config) is None
        result = ExperimentRunner(store=store).run(config)
        assert store.load(config) == result
        assert len(store) == 1
        assert store.clear() == 1
        assert store.load(config) is None

    def test_key_covers_every_config_field(self):
        base = small_config()
        assert config_key(base) == config_key(small_config())
        for changed in (
            base.with_updates(design=CoLTDesign.COLT_SA),
            base.with_updates(seed=12),
            base.with_updates(kernel=KernelConfig(num_frames=8192)),
            base.with_updates(tick_every=1000),
        ):
            assert config_key(changed) != config_key(base)

    def test_snapshots_live_apart_from_results(self, tmp_path):
        store = ResultStore(tmp_path)
        config = small_config(accesses=1500, scale=0.1)
        ExperimentRunner(store=store).run(config)
        snapshots = list((tmp_path / SNAPSHOT_DIR).glob("*.pkl"))
        assert len(snapshots) == 1
        assert len(store) == 1
        counts = store.counters.as_dict()
        assert (counts["hits"], counts["misses"], counts["saves"]) == (0, 1, 1)
        assert store.load_snapshot(aged_key(config)) is not None
        assert store.clear() == 1
        assert not list((tmp_path / SNAPSHOT_DIR).glob("*.pkl"))
        assert store.load_snapshot(aged_key(config)) is None

    def test_corrupt_entry_is_recomputed(self, tmp_path):
        store = ResultStore(tmp_path)
        config = small_config(accesses=1500, scale=0.1)
        ExperimentRunner(store=store).run(config)
        for path in tmp_path.glob("*.pkl"):
            path.write_bytes(b"not a pickle")
        assert store.load(config) is None
        assert ExperimentRunner(store=store).run(config) is not None


class TestSchedules:
    """The churn/tick schedules start at their period, not at access 0."""

    def test_tick_count_is_floor_accesses_over_period(self, monkeypatch):
        config = small_config(
            accesses=1999, tick_every=1000, churn_every=0
        )
        engine = ScenarioEngine(config)
        engine.prepare()
        ticks = []
        original = Kernel.tick

        def counting_tick(self):
            ticks.append(1)
            return original(self)

        monkeypatch.setattr(Kernel, "tick", counting_tick)
        engine.run_loop(lambda index, vpn: None)
        # 1999 accesses at period 1000: one tick (after access 999).
        # The pre-fix schedule fired at access 0 and 1000 -- two ticks,
        # one of them before the benchmark's first reference.
        assert len(ticks) == 1999 // 1000

    def test_churn_count_is_floor_accesses_over_period(self, monkeypatch):
        config = small_config(accesses=100, churn_every=48, tick_every=0)
        engine = ScenarioEngine(config)
        engine.prepare()
        churns = []
        monkeypatch.setattr(
            ScenarioEngine,
            "_background_churn",
            lambda self, rng, live: churns.append(1),
        )
        engine.run_loop(lambda index, vpn: None)
        assert len(churns) == 100 // 48

    def test_pollution_cursor_initialised_in_init(self):
        class FakeLLC:
            num_sets = 1024

            def __init__(self):
                self.evicted = []

            def evict_lru_of_set(self, set_index):
                self.evicted.append(set_index)

        llc = FakeLLC()
        pollution = LLCPollution(llc, per_access=1.0)
        # Explicit state from construction -- no lazy getattr mid-run.
        assert pollution._cursor == 0
        for _ in range(3):
            pollution.after_access()
        assert llc.evicted == [101, 202, 303]

    def test_fractional_pollution_budget_accumulates(self):
        class FakeLLC:
            num_sets = 64

            def __init__(self):
                self.evicted = []

            def evict_lru_of_set(self, set_index):
                self.evicted.append(set_index)

        llc = FakeLLC()
        pollution = LLCPollution(llc, per_access=0.5)
        for _ in range(4):
            pollution.after_access()
        assert len(llc.evicted) == 2
