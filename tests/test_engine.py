"""Vectorized replay engine: bit-identity against the scalar oracle.

The vector engine is only a valid optimisation if it is *invisible* in
the results: every design, every MMU-override knob, every epoch
boundary and every fault-recovery path must produce results
bit-identical to ``repro.sim.replay.replay_scenario``. These tests pin
that contract, plus the runner's one replay dispatch around it.
"""

from dataclasses import replace

import pytest

from repro.analysis.sanitizers import SANITIZE_ENV
from repro.core.mmu import CoLTDesign, make_mmu_config
from repro.obs.registry import MetricsRegistry, get_registry, set_registry
from repro.obs.trace import PROFILE_ENV, reset_tracing
from repro.osmem.kernel import KernelConfig
from repro.osmem.memhog import SIMULATION_AGING
from repro.sim.engine import replay_with_engine, resolve_engine
from repro.sim.engine import vector as vector_module
from repro.sim.engine.vector import VectorMMU, vector_replay_scenario
from repro.sim.faults import FaultPlan
from repro.sim.replay import replay_scenario
from repro.sim.resilience import RetryPolicy
from repro.sim.runner import STANDARD_DESIGNS, ExperimentRunner
from repro.sim.scenario import capture_scenario
from repro.sim.system import SimulationConfig
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
        design=CoLTDesign.COLT_ALL,
        kernel=KernelConfig(num_frames=4096),
        accesses=4000,
        scale=0.25,
        seed=11,
        aging=SIMULATION_AGING,
        churn_every=48,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def assert_identical(scalar, vector):
    assert vector.accesses == scalar.accesses
    assert vector.l1_misses == scalar.l1_misses
    assert vector.l2_misses == scalar.l2_misses
    assert vector.mmu_counters.values == scalar.mmu_counters.values
    assert vector.performance == scalar.performance
    assert vector.contiguity == scalar.contiguity


def oracle_designs(base):
    """``run_designs`` computed on the scalar oracle: one capture."""
    scenario = capture_scenario(base)
    return {
        design: replay_scenario(
            scenario, base.with_updates(design=design, mmu=None)
        )
        for design in STANDARD_DESIGNS
    }


@pytest.fixture(scope="module")
def quick_scenario():
    """One QUICK-scale capture, shared by every equivalence test."""
    return capture_scenario(simulation_config(QUICK.benchmarks[0], QUICK))


@pytest.fixture(scope="module")
def small_scenario():
    """A churn-heavy small capture: shootdowns land mid-window."""
    return capture_scenario(small_config())


class TestBitIdentity:
    @pytest.mark.parametrize("design", ALL_DESIGNS, ids=lambda d: d.value)
    def test_quick_scale_all_designs(self, quick_scenario, design):
        config = simulation_config(
            QUICK.benchmarks[0], QUICK
        ).with_updates(design=design)
        scalar = replay_scenario(quick_scenario, config)
        vector = vector_replay_scenario(quick_scenario, config)
        assert_identical(scalar, vector)

    @pytest.mark.parametrize("design, overrides", [
        pytest.param(
            CoLTDesign.COLT_ALL, dict(graceful_invalidation=True),
            id="graceful-invalidation",
        ),
        pytest.param(
            CoLTDesign.COLT_ALL, dict(coalescing_aware_replacement=True),
            id="coalescing-aware-replacement",
        ),
        pytest.param(
            CoLTDesign.COLT_SA, dict(coalescing_window=4),
            id="coalescing-window",
        ),
        pytest.param(
            CoLTDesign.COLT_FA, dict(fa_fill_l2=False), id="no-l2-echo",
        ),
        pytest.param(
            CoLTDesign.COLT_FA, dict(max_fa_span=16), id="fa-span-16",
        ),
        pytest.param(CoLTDesign.COLT_ALL, dict(l2_ways=8), id="l2-8way"),
        pytest.param(CoLTDesign.COLT_SA, dict(sa_shift=3), id="sa-shift-3"),
    ])
    def test_mmu_override_knobs(self, small_scenario, design, overrides):
        """Every fill-policy/TLB-shape knob replays identically."""
        config = small_config().with_updates(
            design=design, mmu=make_mmu_config(design, **overrides)
        )
        assert_identical(
            replay_scenario(small_scenario, config),
            vector_replay_scenario(small_scenario, config),
        )

    def test_shootdowns_split_epochs(self, small_scenario):
        """Invalidation events mid-log must become epoch boundaries."""
        before = small_scenario.inval_before.tolist()
        assert before, "scenario must carry shootdowns"
        n = small_scenario.accesses
        assert any(0 < b < n for b in before), (
            "regression guard: the captured churn must land shootdowns "
            "strictly inside the access log"
        )
        for design in ALL_DESIGNS:
            config = small_config().with_updates(design=design)
            assert_identical(
                replay_scenario(small_scenario, config),
                vector_replay_scenario(small_scenario, config),
            )

    def test_tiny_epoch_chunks(self, small_scenario, monkeypatch):
        """Chunking the log into 8-access epochs changes nothing."""
        monkeypatch.setattr(vector_module, "EPOCH_MAX", 8)
        config = small_config()
        assert_identical(
            replay_scenario(small_scenario, config),
            vector_replay_scenario(small_scenario, config),
        )

    def test_coalescing_histograms_identical(
        self, small_scenario, monkeypatch
    ):
        """Batched observer callbacks aggregate to the scalar histogram."""
        monkeypatch.setenv(PROFILE_ENV, "1")
        reset_tracing()
        config = small_config()
        series = []
        try:
            for fn in (replay_scenario, vector_replay_scenario):
                set_registry(MetricsRegistry())
                fn(small_scenario, config)
                snapshot = get_registry().snapshot(reset=True)
                entry = snapshot.get("colt_coalesce_run_length")
                assert entry is not None
                series.append(entry["series"])
        finally:
            set_registry(None)
            monkeypatch.delenv(PROFILE_ENV)
            reset_tracing()
        assert series[0] == series[1]


class TestGracefulOverflow:
    def test_graceful_overflow_matches_scalar(self):
        """QUICK seed 4, mcf: both engines once raised LRU-full here."""
        base = simulation_config("mcf", QUICK.with_updates(seed=4))
        config = base.with_updates(
            design=CoLTDesign.COLT_ALL,
            mmu=make_mmu_config(
                CoLTDesign.COLT_ALL, graceful_invalidation=True
            ),
        )
        scenario = capture_scenario(base)
        assert_identical(
            replay_scenario(scenario, config),
            vector_replay_scenario(scenario, config),
        )

    def test_vector_back_invalidates_dropped_pages_from_l1(
        self, small_scenario
    ):
        """Mirror of the MMU-level check in ``test_future_work.py``."""
        config = make_mmu_config(
            CoLTDesign.COLT_SA, graceful_invalidation=True
        )
        config = replace(config, l2=replace(config.l2, entries=1, ways=1))
        vmmu = VectorMMU(config, small_scenario, 0.0)
        vmmu.l2.insert((8, 11, 100, 0))
        vmmu.l1.insert((8, 11, 100, 0))
        vmmu._invalidate_range(9, 1)
        assert vmmu.l2.covering(8) == (8, 8, 100, 0)
        assert vmmu.l1.covering(8) == (8, 8, 100, 0)
        for vpn in (10, 11):
            assert vmmu.l2.covering(vpn) is None
            assert vmmu.l1.covering(vpn) is None


class TestEngineSelection:
    def test_resolve_engine_names_the_sanitized_scalar_path(
        self, monkeypatch
    ):
        """The recorded engine is the one replays take: scalar iff
        sanitizers are on (config flag first, then the environment)."""
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        assert resolve_engine() == "vector"
        assert resolve_engine(True) == "scalar"
        monkeypatch.setenv(SANITIZE_ENV, "1")
        assert resolve_engine() == "scalar"
        assert resolve_engine(False) == "vector"

    def test_sanitized_runs_take_the_scalar_path(self):
        """Sanitizers attach to live TLB objects: vector must defer."""
        config = small_config(accesses=1500, sanitize=True)
        scenario = capture_scenario(config)
        assert_identical(
            replay_scenario(scenario, config),
            replay_with_engine(scenario, config),
        )


class TestRunnerIntegration:
    def test_vector_runner_matches_scalar_baseline(self):
        """The full fan-out path, vector engine end to end."""
        base = small_config(accesses=1500, design=CoLTDesign.BASELINE)
        vector = ExperimentRunner(jobs=1).run_designs(base)
        assert vector == oracle_designs(base)

    def test_faulted_vector_run_matches_scalar_baseline(self):
        """Chaos case: a faulted vector run recovers to the fault-free
        scalar results -- retries re-enter the vector engine, and the
        engines stay interchangeable under the resilience machinery."""
        base = small_config(accesses=1500, design=CoLTDesign.BASELINE)
        scalar = oracle_designs(base)
        runner = ExperimentRunner(
            jobs=2,
            policy=RetryPolicy(max_retries=3, backoff_s=0.01),
            faults=FaultPlan.parse("raise@replay:0"),
        )
        assert runner.run_designs(base) == scalar
        assert runner.resilience_counters.as_dict()["retries"] >= 1
