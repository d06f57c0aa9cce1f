"""Fault injection, crash-tolerant execution, and the hardened store.

The backbone is the chaos matrix: a seeded ``COLT_FAULTS`` plan kills
workers, raises in tasks, blows deadlines or corrupts store writes,
and every recovered run must produce results *bit-identical* to the
fault-free baseline -- injected faults only delay or destroy work,
they never feed a number into a simulation.
"""

import pickle
import time

import pytest

from repro.common.errors import (
    ConfigurationError,
    InjectedFaultError,
    TaskExecutionError,
)
from repro.obs.trace import PROFILE_ENV, TRACE_ENV, reset_tracing
from repro.obs.registry import set_registry
from repro.osmem.kernel import KernelConfig
from repro.osmem.memhog import SIMULATION_AGING
from repro.sim.faults import (
    EXECUTION_KINDS,
    FAULTS_ENV,
    STORE_KINDS,
    FaultPlan,
    corrupt_bytes,
)
from repro.sim.resilience import (
    ResilientExecutor,
    RetryPolicy,
    TaskSpec,
)
from repro.sim.runner import ExperimentRunner
from repro.sim.scenario import aged_key
from repro.sim.store import (
    QUARANTINE_DIR,
    SNAPSHOT_DIR,
    STORE_ENV,
    STORE_MAGIC,
    ResultStore,
    frame_payload,
    unframe_payload,
)
from repro.sim.system import SimulationConfig, simulate
from repro.sim.watchdog import dump_dir_for


@pytest.fixture
def obs_off(monkeypatch):
    """Guarantee observability is fully disabled and state reset."""
    monkeypatch.delenv(TRACE_ENV, raising=False)
    monkeypatch.delenv(PROFILE_ENV, raising=False)
    reset_tracing()
    set_registry(None)
    yield
    reset_tracing()
    set_registry(None)


#: One scenario group, four designs: 1 capture task, 2 replay chunks
#: at jobs=2 -- small enough for a parametrised matrix, structured
#: enough to give every fault site a target.
CHAOS_CONFIG = SimulationConfig(
    benchmark="gobmk",
    kernel=KernelConfig(num_frames=4096),
    accesses=1500,
    scale=0.1,
    seed=11,
    aging=SIMULATION_AGING,
    churn_every=48,
)


@pytest.fixture(scope="module")
def baseline():
    """Fault-free reference results for ``CHAOS_CONFIG``'s design set."""
    reset_tracing()
    set_registry(None)
    runner = ExperimentRunner(jobs=1, policy=RetryPolicy(max_retries=0))
    return runner.run_designs(CHAOS_CONFIG)


@pytest.fixture(scope="module")
def sim_pair():
    """One small real (config, result) pair for store round-trips."""
    config = CHAOS_CONFIG.with_updates(accesses=600)
    return config, simulate(config)


# ---------------------------------------------------------------------------
# Fault plan grammar and firing.
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_render_round_trip(self):
        text = (
            "crash@capture:0;raise@replay:1,3x2;"
            "delay@replay:0/0.5;torn@store.write:2"
        )
        assert FaultPlan.parse(text).render() == text

    def test_experiment_site_parses_and_fires_in_parent(self):
        # ``experiment`` faults always fire in the coordinating process,
        # so even ``crash`` demotes to a catchable exception -- the
        # chaos test stops the experiment loop, not the test runner.
        plan = FaultPlan.parse("crash@experiment:1")
        plan.fire("experiment", 0, 0)  # wrong index: no-op
        with pytest.raises(InjectedFaultError):
            plan.fire("experiment", 1, 0)
        assert plan.counters.as_dict()["crash"] == 1

    @pytest.mark.parametrize("bad", [
        "nonsense",
        "explode@capture:0",          # unknown kind
        "raise@store.write:0",        # execution kind at the store site
        "torn@capture:0",             # store kind at a task site
        "raise@capture:0x0",          # times must be >= 1
        "raise@boot:0",               # unknown site
        "worker-lost@dist:0",         # removed kind and site
        "torn@dist.journal:0",        # store kind at a removed site
    ])
    def test_parse_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            FaultPlan.parse(bad)

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv(FAULTS_ENV, "  ")
        assert FaultPlan.from_env() is None
        monkeypatch.setenv(FAULTS_ENV, "raise@capture:0")
        plan = FaultPlan.from_env()
        assert plan is not None and plan.render() == "raise@capture:0"

    def test_fire_matches_site_index_attempt(self):
        plan = FaultPlan.parse("raise@capture:0")
        plan.fire("capture", 1, 0)   # wrong index: no-op
        plan.fire("replay", 0, 0)    # wrong site: no-op
        plan.fire("capture", 0, 1)   # attempt past times: escaped
        with pytest.raises(InjectedFaultError):
            plan.fire("capture", 0, 0)
        assert plan.counters.as_dict()["raise"] == 1

    def test_crash_in_parent_degrades_to_exception(self):
        # Fired from the pid that built the plan (serial execution):
        # a hard exit would kill the experiment, so it raises instead.
        plan = FaultPlan.parse("crash@capture:0")
        with pytest.raises(InjectedFaultError):
            plan.fire("capture", 0, 0)
        assert plan.counters.as_dict()["crash"] == 1

    def test_delay_sleeps_then_continues(self):
        plan = FaultPlan.parse("delay@replay:0/0.01")
        started = time.monotonic()
        plan.fire("replay", 0, 0)
        assert time.monotonic() - started >= 0.01
        assert plan.counters.as_dict()["delay"] == 1

    def test_corruption_schedule(self):
        plan = FaultPlan.parse("torn@store.write:0;corrupt@store.write:2")
        assert plan.corruption(0) == "torn"
        assert plan.corruption(1) is None
        assert plan.corruption(2) == "corrupt"

    def test_fault_times_exhaustion_at_same_site(self):
        plan = FaultPlan.parse("raise@capture:0x2")
        for attempt in (0, 1):
            with pytest.raises(InjectedFaultError):
                plan.fire("capture", 0, attempt)
        # Attempt 2 exhausts x2: the site goes quiet, forever.
        plan.fire("capture", 0, 2)
        plan.fire("capture", 0, 3)
        assert plan.counters["raise"] == 2

    def test_overlapping_specs_first_wins(self):
        plan = FaultPlan.parse("torn@store.write:0;corrupt@store.write:0")
        assert plan.corruption(0) == "torn"
        # Both specs parsed; precedence is declaration order, every time.
        assert [spec.kind for spec in plan.specs] == ["torn", "corrupt"]
        assert plan.corruption(0) == "torn"

    def test_unknown_kind_lists_vocabulary(self):
        with pytest.raises(ConfigurationError) as excinfo:
            FaultPlan.parse("explode@capture:0")
        text = str(excinfo.value)
        assert "unknown fault kind" in text
        for kind in EXECUTION_KINDS + STORE_KINDS:
            assert kind in text

    def test_unparseable_spec_names_grammar(self):
        with pytest.raises(ConfigurationError,
                           match=r"cannot parse fault spec"):
            FaultPlan.parse("raise@capture")  # no index

    def test_corrupt_bytes(self):
        data = b"x" * 64
        assert corrupt_bytes(data, "torn") == b"x" * 32
        flipped = corrupt_bytes(data, "corrupt")
        assert len(flipped) == 64 and flipped != data
        with pytest.raises(ConfigurationError):
            corrupt_bytes(data, "sparkle")

    def test_plan_is_picklable(self):
        plan = FaultPlan.parse("crash@capture:0;torn@store.write:1")
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.render() == plan.render()


class TestRetryPolicy:
    def test_backoff_is_deterministic_exponential(self):
        policy = RetryPolicy(backoff_s=0.1, backoff_factor=2.0)
        assert policy.backoff(0) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.4)


# ---------------------------------------------------------------------------
# Store framing.
# ---------------------------------------------------------------------------


class TestFraming:
    def test_round_trip(self):
        payload = b"payload bytes" * 100
        frame = frame_payload(payload)
        assert frame.startswith(STORE_MAGIC)
        assert unframe_payload(frame) == payload

    def test_legacy_unframed_passthrough(self):
        raw = pickle.dumps({"legacy": True})
        assert unframe_payload(raw) == raw

    def test_rejects_bit_flip(self):
        frame = frame_payload(b"payload bytes" * 100)
        with pytest.raises(ValueError):
            unframe_payload(corrupt_bytes(frame, "corrupt"))

    def test_rejects_truncation(self):
        frame = frame_payload(b"payload bytes" * 100)
        with pytest.raises(ValueError):
            unframe_payload(corrupt_bytes(frame, "torn"))
        with pytest.raises(ValueError):
            unframe_payload(frame[:20])  # shorter than the header


# ---------------------------------------------------------------------------
# Hardened store: quarantine, degrade, fault-driven corruption.
# ---------------------------------------------------------------------------


class TestHardenedStore:
    def test_save_load_round_trip_is_framed(self, tmp_path, obs_off,
                                            sim_pair):
        config, result = sim_pair
        store = ResultStore(tmp_path / "cache")
        store.save(config, result)
        (entry,) = store.root.glob("*.pkl")
        assert entry.read_bytes().startswith(STORE_MAGIC)
        assert ResultStore(tmp_path / "cache").load(config) == result

    def test_legacy_raw_pickle_still_loads(self, tmp_path, obs_off,
                                           sim_pair):
        config, result = sim_pair
        store = ResultStore(tmp_path / "cache")
        store._path(config).write_bytes(pickle.dumps(result))
        assert store.load(config) == result
        assert store.counters.as_dict()["hits"] == 1

    @pytest.mark.parametrize("mutate, exc_counter", [
        (lambda blob: b"complete garbage", "corrupt_unpicklingerror"),
        (lambda blob: corrupt_bytes(blob, "corrupt"), "corrupt_valueerror"),
        (lambda blob: corrupt_bytes(blob, "torn"), "corrupt_valueerror"),
        (
            lambda blob: frame_payload(b"cmissing_mod\nMissingClass\n."),
            "corrupt_modulenotfounderror",
        ),
    ])
    def test_undecodable_entry_is_quarantined(self, tmp_path, obs_off,
                                              sim_pair, mutate, exc_counter):
        config, result = sim_pair
        store = ResultStore(tmp_path / "cache")
        store.save(config, result)
        path = store._path(config)
        path.write_bytes(mutate(path.read_bytes()))
        assert store.load(config) is None
        counts = store.counters.as_dict()
        assert counts["quarantines"] == 1
        assert counts[exc_counter] == 1
        assert not path.exists()
        assert (store.root / QUARANTINE_DIR / path.name).exists()
        # Quarantined entries are invisible to the live store.
        assert len(store) == 0

    def test_unwritable_root_degrades_to_storeless(self, tmp_path,
                                                   monkeypatch, obs_off,
                                                   sim_pair):
        config, result = sim_pair
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory should be")
        store = ResultStore(blocker / "cache")
        assert store.disabled
        store.save(config, result)       # no-op, no raise
        assert store.load(config) is None
        assert len(store) == 0
        assert store.clear() == 0
        monkeypatch.setenv(STORE_ENV, str(blocker / "cache"))
        assert ResultStore.from_env() is None

    def test_write_faults_corrupt_scheduled_entries(self, tmp_path,
                                                    obs_off, sim_pair):
        config, result = sim_pair
        plan = FaultPlan.parse("torn@store.write:0;corrupt@store.write:1")
        store = ResultStore(tmp_path / "cache", faults=plan)
        victim_a = config.with_updates(seed=777)
        victim_b = config.with_updates(seed=778)
        store.save(victim_a, result)     # write 0: torn
        store.save(victim_b, result)     # write 1: bit-flipped
        store.save(config, result)       # write 2: intact
        assert plan.counters.as_dict() == {
            "crash": 0, "raise": 0, "delay": 0, "torn": 1, "corrupt": 1,
        }
        fresh = ResultStore(tmp_path / "cache")
        assert fresh.load(victim_a) is None
        assert fresh.load(victim_b) is None
        assert fresh.load(config) == result
        counts = fresh.counters.as_dict()
        assert counts["quarantines"] == 2
        assert counts["hits"] == 1

    def test_corrupt_snapshot_is_quarantined_and_rebuilt(
        self, tmp_path, obs_off, baseline
    ):
        ExperimentRunner(
            jobs=1, store=ResultStore(tmp_path / "cache")
        ).run_designs(CHAOS_CONFIG)
        (snapshot,) = (tmp_path / "cache" / SNAPSHOT_DIR).glob("*.pkl")
        snapshot.write_bytes(corrupt_bytes(snapshot.read_bytes(), "corrupt"))
        for result in (tmp_path / "cache").glob("*.pkl"):
            result.unlink()  # force new captures
        store = ResultStore(tmp_path / "cache")
        rerun = ExperimentRunner(jobs=1, store=store)
        assert rerun.run_designs(CHAOS_CONFIG) == baseline
        assert store.counters.as_dict()["quarantines"] == 1
        assert (store.root / QUARANTINE_DIR / snapshot.name).exists()
        # The rebuilt snapshot replaced the quarantined one.
        assert store.load_snapshot(aged_key(CHAOS_CONFIG)) is not None

    def test_write_faults_index_result_writes_only(self, tmp_path, obs_off,
                                                   baseline):
        plan = FaultPlan.parse("corrupt@store.write:0")
        store = ResultStore(tmp_path / "cache", faults=plan)
        runner = ExperimentRunner(jobs=1, store=store)
        assert runner.run_designs(CHAOS_CONFIG) == baseline
        assert store._write_index == len(baseline)
        fresh = ResultStore(tmp_path / "cache")
        assert fresh.load_snapshot(aged_key(CHAOS_CONFIG)) is not None
        loaded = [fresh.load(result.config) for result in baseline.values()]
        assert sum(result is None for result in loaded) == 1
        assert fresh.counters.as_dict()["quarantines"] == 1

    def test_clear_purges_quarantine_too(self, tmp_path, obs_off, sim_pair):
        config, result = sim_pair
        store = ResultStore(tmp_path / "cache")
        store.save(config, result)
        store._path(config).write_bytes(b"junk")
        assert store.load(config) is None
        store.save(config, result)
        assert store.clear() == 2  # one live entry + one quarantined
        assert len(store) == 0
        assert not list((store.root / QUARANTINE_DIR).glob("*.pkl"))


# ---------------------------------------------------------------------------
# ResilientExecutor unit behaviour (synthetic picklable tasks).
# ---------------------------------------------------------------------------


def _double(value, attempt):
    return value * 2


def _fail_first(value, attempt):
    if attempt == 0:
        raise ValueError("first attempt always fails")
    return value


def _always_fail(value, attempt):
    raise ValueError("never works")


def _slow_first(value, attempt):
    if attempt == 0:
        time.sleep(0.8)
    return value


def _task(fn, value, index, site="capture"):
    return TaskSpec(
        fn=fn, args=(value,), site=site, index=index,
        context={"value": value},
    )


class TestResilientExecutor:
    def test_serial_yields_in_order(self):
        with ResilientExecutor(jobs=1) as executor:
            results = [
                result
                for _, result in executor.run(
                    [_task(_double, v, i) for i, v in enumerate((1, 2, 3))]
                )
            ]
        assert results == [2, 4, 6]

    def test_serial_retry_recovers(self):
        policy = RetryPolicy(max_retries=2, backoff_s=0.0)
        with ResilientExecutor(jobs=1, policy=policy) as executor:
            results = [r for _, r in executor.run([_task(_fail_first, 7, 0)])]
        assert results == [7]
        counts = executor.counters.as_dict()
        assert counts["retries"] == 1
        assert counts["task_errors"] == 1

    def test_exhaustion_yields_survivors_then_raises(self):
        policy = RetryPolicy(max_retries=1, backoff_s=0.0)
        tasks = [_task(_always_fail, 0, 0), _task(_double, 21, 1)]
        received = []
        with ResilientExecutor(jobs=1, policy=policy) as executor:
            with pytest.raises(TaskExecutionError) as exc_info:
                for _, result in executor.run(tasks):
                    received.append(result)
        assert received == [42]
        assert exc_info.value.context == {"value": 0}
        assert "capture task 0" in str(exc_info.value)

    def test_pool_deadline_triggers_retry(self, tmp_path):
        policy = RetryPolicy(max_retries=2, backoff_s=0.0, timeout_s=0.2)
        with ResilientExecutor(
            jobs=2, policy=policy, dump_dir=tmp_path
        ) as executor:
            results = [r for _, r in executor.run([_task(_slow_first, 9, 0)])]
        assert results == [9]
        counts = executor.counters.as_dict()
        assert counts["timeouts"] >= 1
        assert counts["retries"] >= 1


class TestNoAmbientFaults:
    """Only ``main()`` reads ``COLT_FAULTS``; the library never does."""

    def test_runner_ignores_ambient_fault_plan(self, obs_off, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "raise@capture:0")
        runner = ExperimentRunner(jobs=1)
        runner.run(CHAOS_CONFIG.with_updates(accesses=600))
        assert runner.resilience_summary() is None

    def test_store_ignores_ambient_fault_plan(self, tmp_path, sim_pair,
                                              monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "corrupt@store.write:0")
        config, result = sim_pair
        ResultStore(tmp_path).save(config, result)
        assert ResultStore(tmp_path).load(config) == result


# ---------------------------------------------------------------------------
# Chaos matrix: faulted runs == fault-free baseline, bit for bit.
# ---------------------------------------------------------------------------


class TestChaosMatrix:
    @pytest.mark.parametrize("plan_text", [
        pytest.param("crash@age:0", id="age-worker-crash"),
        pytest.param("raise@age:0", id="age-exception"),
        pytest.param("crash@capture:0", id="worker-crash"),
        pytest.param("raise@capture:0", id="capture-exception"),
        pytest.param("raise@replay:0;raise@replay:1", id="replay-exceptions"),
        pytest.param("delay@replay:0/1.0", id="deadline-blown"),
    ])
    def test_faulted_run_matches_baseline(self, obs_off, baseline,
                                          plan_text, tmp_path, monkeypatch):
        # A store-less runner dumps under ./.colt-cache/dumps: run in
        # tmp_path so deadline dumps stay out of the checkout.
        monkeypatch.chdir(tmp_path)
        deadline = "delay" in plan_text
        policy = RetryPolicy(
            max_retries=3, backoff_s=0.01,
            timeout_s=0.25 if deadline else None,
        )
        plan = FaultPlan.parse(plan_text)
        runner = ExperimentRunner(jobs=2, policy=policy, faults=plan)
        results = runner.run_designs(CHAOS_CONFIG)
        assert results == baseline
        counts = runner.resilience_counters.as_dict()
        assert counts["retries"] >= 1
        assert runner.resilience_summary() is not None
        if deadline:
            # The abandoned worker dumped its stacks at the deadline,
            # before the executor killed it on close.
            dumps = list((tmp_path / dump_dir_for()).glob("task-*.txt"))
            assert dumps and all(d.stat().st_size for d in dumps)

    def test_double_crash_rebuilds_then_downgrades(self, obs_off, baseline):
        plan = FaultPlan.parse("crash@capture:0x2")
        runner = ExperimentRunner(
            jobs=2,
            policy=RetryPolicy(max_retries=3, backoff_s=0.01),
            faults=plan,
        )
        results = runner.run_designs(CHAOS_CONFIG)
        assert results == baseline
        counts = runner.resilience_counters.as_dict()
        assert counts["pool_rebuilds"] == 1
        assert counts["serial_downgrades"] == 1
        assert counts["retries"] == 2

    def test_retry_exhaustion_names_the_config(self, obs_off):
        plan = FaultPlan.parse("raise@capture:0x99")
        runner = ExperimentRunner(
            jobs=1,
            policy=RetryPolicy(max_retries=1, backoff_s=0.0),
            faults=plan,
        )
        with pytest.raises(TaskExecutionError) as exc_info:
            runner.run_designs(CHAOS_CONFIG)
        assert "gobmk" in str(exc_info.value)
        assert exc_info.value.context["benchmark"] == "gobmk"
        assert exc_info.value.context["seed"] == 11

    def test_partial_batch_checkpoints_then_resumes(self, tmp_path, obs_off,
                                                    baseline):
        store = ResultStore(tmp_path / "cache")
        plan = FaultPlan.parse("raise@replay:1x99")
        runner = ExperimentRunner(
            jobs=2, store=store,
            policy=RetryPolicy(max_retries=0, backoff_s=0.0),
            faults=plan,
        )
        with pytest.raises(TaskExecutionError):
            runner.run_designs(CHAOS_CONFIG)
        # The surviving replay chunk checkpointed before the raise.
        assert len(store) >= 1
        resume_store = ResultStore(tmp_path / "cache")
        resume = ExperimentRunner(jobs=2, store=resume_store)
        assert resume.run_designs(CHAOS_CONFIG) == baseline
        assert resume_store.counters.as_dict()["hits"] >= 1

    def test_serial_crash_demotes_to_recoverable_exception(self, obs_off,
                                                           baseline):
        plan = FaultPlan.parse("crash@capture:0")
        runner = ExperimentRunner(
            jobs=1,
            policy=RetryPolicy(max_retries=2, backoff_s=0.0),
            faults=plan,
        )
        results = runner.run_designs(CHAOS_CONFIG)
        assert results == baseline
        assert plan.counters.as_dict()["crash"] == 1
        assert runner.resilience_counters.as_dict()["retries"] == 1
