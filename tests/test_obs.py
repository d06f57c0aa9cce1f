"""Tests for repro.obs: registry, tracer, exporters, report, and the
observe-only guarantee (traced runs bit-identical to untraced ones)."""

import json

import pytest

import repro.experiments.__main__ as cli
from repro.analysis.determinism import result_digest
from repro.common.errors import ConfigurationError
from repro.common.statistics import CounterSet
from repro.obs.export import (
    chrome_trace_dict,
    metrics_csv,
    parse_chrome_trace,
    span_names,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics_json,
    read_metrics_json,
)
from repro.obs.hooks import drain_worker_obs, reset_worker_obs
from repro.obs.registry import (
    MetricsRegistry,
    MetricsSnapshot,
    bind_counterset,
    get_registry,
    set_registry,
)
from repro.obs.report import RunReport
from repro.obs.trace import (
    PROFILE_ENV,
    TRACE_ENV,
    Tracer,
    current_tracer,
    obs_active,
    reset_tracing,
)
from repro.sim.replay import replay_scenario
from repro.sim.runner import ExperimentRunner
from repro.sim.scenario import capture_scenario, scenario_config
from repro.sim.store import ResultStore
from repro.sim.system import SimulationConfig, simulate
from repro.core.mmu import CoLTDesign
from repro.experiments.registry import get_experiment
from repro.experiments.scale import QUICK
from repro.osmem.kernel import KernelConfig
from repro.osmem.memhog import SIMULATION_AGING


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


@pytest.fixture
def obs_on(monkeypatch):
    """Enable tracing + metrics for this process; reset state around it."""
    monkeypatch.setenv(TRACE_ENV, "1")
    monkeypatch.setenv(PROFILE_ENV, "1")
    reset_tracing()
    set_registry(None)
    yield
    reset_tracing()
    set_registry(None)


def _small_config(**overrides):
    defaults = dict(
        benchmark="gobmk",
        design=CoLTDesign.COLT_ALL,
        kernel=KernelConfig(num_frames=4096),
        accesses=2000,
        scale=0.25,
        seed=11,
        aging=SIMULATION_AGING,
        churn_every=48,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_counter_labels_independent_series(self):
        registry = MetricsRegistry()
        counter = registry.counter("colt_test_events")
        counter.inc(design="colt_sa")
        counter.inc(2, design="colt_fa")
        counter.inc(design="colt_sa")
        assert counter.value(design="colt_sa") == 2
        assert counter.value(design="colt_fa") == 2
        assert counter.value(design="unknown") == 0
        snapshot = registry.snapshot()
        assert snapshot.counter_total("colt_test_events") == 4

    def test_counter_rejects_negative(self):
        counter = MetricsRegistry().counter("colt_test_events")
        with pytest.raises(ConfigurationError):
            counter.inc(-1)

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("colt_test_metric")
        with pytest.raises(ConfigurationError):
            registry.gauge("colt_test_metric")

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("colt_x") is registry.counter("colt_x")

    def test_histogram_buckets_and_sum(self):
        registry = MetricsRegistry()
        hist = registry.histogram("colt_runs", buckets=(1, 4, 8))
        for value in (1, 2, 5, 8, 100):
            hist.observe(value, design="colt_all")
        state = hist.state(design="colt_all")
        assert state.count == 5
        assert state.sum == 116
        # <=1, <=4, <=8, +inf
        assert state.counts == [1, 1, 2, 1]

    def test_snapshot_reset_drains(self):
        registry = MetricsRegistry()
        registry.counter("colt_n").inc(3)
        first = registry.snapshot(reset=True)
        assert first.counter_total("colt_n") == 3
        assert registry.snapshot().counter_total("colt_n") == 0

    def test_merge_snapshot_sums_counters_and_histograms(self):
        worker = MetricsRegistry()
        worker.counter("colt_n").inc(2, design="a")
        worker.histogram("colt_h", buckets=(2, 4)).observe(3)
        parent = MetricsRegistry()
        parent.counter("colt_n").inc(1, design="a")
        parent.histogram("colt_h", buckets=(2, 4)).observe(1)
        parent.merge_snapshot(worker.snapshot())
        merged = parent.snapshot()
        assert merged.counter_total("colt_n") == 3
        series = merged.get("colt_h")["series"]
        assert series[0]["count"] == 2
        assert series[0]["sum"] == 4

    def test_merge_snapshot_gauge_overwrites(self):
        worker = MetricsRegistry()
        worker.gauge("colt_free").set(10)
        parent = MetricsRegistry()
        parent.gauge("colt_free").set(99)
        parent.merge_snapshot(worker.snapshot())
        assert parent.gauge("colt_free").value() == 10

    def test_bound_counterset_sampled_lazily(self):
        registry = MetricsRegistry()
        counters = CounterSet(["hits", "misses"])
        bind_counterset(registry, "colt_thing", counters, design="a")
        counters.increment("hits", 5)
        snapshot = registry.snapshot()
        assert snapshot.counter_total("colt_thing_hits") == 5
        assert snapshot.counter_total("colt_thing_misses") == 0

    def test_bound_counterset_outlives_owner_until_reset(self):
        # Simulator components are short-lived (one MMU per replay):
        # the binding must keep reporting after the owner's last local
        # reference dies, and a reset drain must release it.
        registry = MetricsRegistry()
        counters = CounterSet(["hits"])
        bind_counterset(registry, "colt_gone", counters)
        counters.increment("hits")
        del counters
        assert registry.snapshot().counter_total("colt_gone_hits") == 1
        registry.snapshot(reset=True)
        assert registry.snapshot().counter_total("colt_gone_hits") == 0

    def test_bound_counterset_multiple_instances_sum(self):
        registry = MetricsRegistry()
        first, second = CounterSet(["hits"]), CounterSet(["hits"])
        bind_counterset(registry, "colt_multi", first)
        bind_counterset(registry, "colt_multi", second)
        first.increment("hits", 2)
        second.increment("hits", 3)
        assert registry.snapshot().counter_total("colt_multi_hits") == 5

    def test_snapshot_json_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("colt_n", unit="events").inc(7, design="x")
        registry.histogram("colt_h").observe(3)
        snapshot = registry.snapshot()
        recovered = MetricsSnapshot.from_json_dict(
            json.loads(json.dumps(snapshot.to_json_dict()))
        )
        assert recovered.instruments == snapshot.instruments

    def test_snapshot_rejects_wrong_schema(self):
        with pytest.raises(ConfigurationError):
            MetricsSnapshot.from_json_dict({"schema": "nope"})


# ---------------------------------------------------------------------------
# Tracer + exporters.
# ---------------------------------------------------------------------------


class TestTracer:
    def test_span_records_complete_event_with_args(self):
        tracer = Tracer(capacity=16)
        with tracer.span("capture", cat="phase", benchmark="mcf") as args:
            args["rows"] = 42
        (event,) = tracer.events()
        assert event.ph == "X"
        assert event.name == "capture"
        assert event.dur_us >= 0
        assert event.args == {"benchmark": "mcf", "rows": 42}

    def test_ring_buffer_drops_oldest(self):
        tracer = Tracer(capacity=2)
        for index in range(5):
            tracer.instant("e", index=index)
        assert tracer.dropped == 3
        assert [e.args["index"] for e in tracer.events()] == [3, 4]

    def test_drain_clears(self):
        tracer = Tracer(capacity=8)
        tracer.instant("e")
        assert len(tracer.drain()) == 1
        assert tracer.events() == []

    def test_disabled_by_default(self, obs_off):
        assert current_tracer() is None
        assert not obs_active()

    def test_env_enables(self, obs_on):
        assert current_tracer() is not None
        assert obs_active()


class TestChromeExport:
    def _sample_events(self):
        tracer = Tracer(capacity=64)
        with tracer.span("replay", cat="phase", design="colt_all"):
            tracer.instant("tlb.fill", cat="tlb", run_length=4)
        tracer.counter("buddy", cat="os", free_pages=100)
        return tracer.events()

    def test_round_trip_identity(self):
        events = self._sample_events()
        data = json.loads(json.dumps(chrome_trace_dict(events)))
        recovered = parse_chrome_trace(data)
        assert recovered == events

    def test_file_round_trip(self, tmp_path):
        events = self._sample_events()
        path = write_chrome_trace(tmp_path / "trace.json", events)
        assert parse_chrome_trace(path) == events

    def test_validate_accepts_own_output(self):
        data = chrome_trace_dict(self._sample_events())
        assert validate_chrome_trace(data) == []

    def test_validate_rejects_defects(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({}) != []
        assert validate_chrome_trace({"traceEvents": []}) != []
        bad_ph = {"traceEvents": [{"name": "x", "ph": "Z", "pid": 1}]}
        assert any("ph" in p for p in validate_chrome_trace(bad_ph))
        no_dur = {
            "traceEvents": [{"name": "x", "ph": "X", "pid": 1, "ts": 0.0}]
        }
        assert any("dur" in p for p in validate_chrome_trace(no_dur))

    def test_span_names_counts_complete_spans(self):
        names = span_names(self._sample_events())
        assert names == {"replay": 1}

    def test_metrics_json_and_csv(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("colt_n").inc(2, design="a")
        registry.histogram("colt_h").observe(3)
        snapshot = registry.snapshot()
        path = write_metrics_json(tmp_path / "metrics.json", snapshot)
        assert read_metrics_json(path).instruments == snapshot.instruments
        csv_text = metrics_csv(snapshot)
        assert "colt_n,counter" in csv_text
        assert "colt_h,histogram" in csv_text


# ---------------------------------------------------------------------------
# Worker hand-off.
# ---------------------------------------------------------------------------


class TestWorkerHandoff:
    def test_drain_none_when_disabled(self, obs_off):
        assert drain_worker_obs() is None

    def test_drain_resets_both_sinks(self, obs_on):
        tracer = current_tracer()
        tracer.instant("e")
        get_registry().counter("colt_n").inc(4)
        payload = drain_worker_obs()
        assert len(payload.events) == 1
        assert payload.metrics.counter_total("colt_n") == 4
        second = drain_worker_obs()
        assert second.events == []
        assert second.metrics.counter_total("colt_n") == 0

    def test_reset_worker_obs_drops_inherited_state(self, obs_on):
        current_tracer().instant("inherited")
        get_registry().counter("colt_n").inc(1)
        reset_worker_obs()
        assert current_tracer().events() == []
        assert get_registry().snapshot().counter_total("colt_n") == 0


# ---------------------------------------------------------------------------
# Observe-only guarantee: traced results bit-identical to untraced.
# ---------------------------------------------------------------------------


class TestTracedDeterminism:
    def test_monolithic_results_identical_traced(self, obs_off, monkeypatch):
        config = _small_config()
        untraced = result_digest(simulate(config))
        monkeypatch.setenv(TRACE_ENV, "1")
        monkeypatch.setenv(PROFILE_ENV, "1")
        reset_tracing()
        set_registry(None)
        traced = result_digest(simulate(config))
        assert traced == untraced

    def test_capture_replay_results_identical_traced(
        self, obs_off, monkeypatch
    ):
        config = _small_config()
        scenario = capture_scenario(config)
        untraced = result_digest(replay_scenario(scenario, config))
        monkeypatch.setenv(TRACE_ENV, "1")
        monkeypatch.setenv(PROFILE_ENV, "1")
        reset_tracing()
        set_registry(None)
        traced_scenario = capture_scenario(config)
        traced = result_digest(replay_scenario(traced_scenario, config))
        assert traced == untraced

    def test_traced_run_emits_phase_spans_and_instruments(self, obs_on):
        config = _small_config()
        runner = ExperimentRunner(jobs=1)
        runner.run_batch(
            [config, config.with_updates(design=CoLTDesign.BASELINE)]
        )
        names = span_names(runner.trace_events())
        for required in ("capture", "replay", "runner.run_batch",
                         "kernel.boot", "trace.generate"):
            assert names.get(required), f"missing span {required!r}"
        snapshot = get_registry().snapshot()
        assert len(snapshot) >= 15
        assert "colt_coalesce_run_length" in snapshot
        assert snapshot.counter_total("colt_mmu_l1_misses") > 0
        assert snapshot.counter_total("colt_kernel_faults") > 0


    def test_kernel_counters_match_in_place_after_restores(self, obs_on):
        """A traced jobs=2 fig18 run restores one aged snapshot per
        capture. The registry's kernel-side totals must equal the sum of
        the captures' kernel counters, and the buddy / compaction / THP
        totals those of the same captures booted and aged in place."""
        scale = QUICK.with_updates(
            accesses=1500, num_frames=4096, footprint_scale=0.1,
            benchmarks=("gobmk", "milc"),
        )
        runner = ExperimentRunner(jobs=2)
        simulated = {}
        run_batch = runner.run_batch

        def keep(configs):
            results = run_batch(configs)
            simulated.update(results)
            return results

        runner.run_batch = keep
        get_experiment("fig18").run(scale, runner)
        restored = get_registry().snapshot()
        scenarios = {
            scenario_config(config): result
            for config, result in simulated.items()
        }
        assert restored.counter_total("colt_aged_builds") == 1
        assert restored.counter_total("colt_aged_restores") == len(scenarios)
        for name in next(iter(scenarios.values())).kernel_counters.values:
            assert restored.counter_total(f"colt_kernel_{name}") == sum(
                result.kernel_counters[name] for result in scenarios.values()
            ), name

        set_registry(None)
        for config in scenarios:
            capture_scenario(config)
        in_place = get_registry().snapshot()
        prefixes = ("colt_kernel_", "colt_buddy_", "colt_compaction_",
                    "colt_thp_")
        names = [
            name for name in in_place.instruments
            if name.startswith(prefixes)
            and in_place.get(name)["kind"] == "counter"
        ]
        assert len(names) >= 20
        for name in names:
            assert restored.counter_total(name) == in_place.counter_total(
                name
            ), name

    def test_report_says_aging_was_skipped(self, obs_on):
        config = _small_config(accesses=1000)
        runner = ExperimentRunner(jobs=1)
        runner.run_batch([config, config.with_updates(benchmark="milc")])
        report = RunReport.build(
            runner.trace_events(), get_registry().snapshot()
        )
        assert report.aged == {"builds": 1, "restores": 2}
        assert "aged kernels: 1 built, 2 restored" in report.render()
        names = span_names(runner.trace_events())
        assert names.get("aging") == 1
        assert names.get("aging.restore") == 2


# ---------------------------------------------------------------------------
# Store counters + runner summary.
# ---------------------------------------------------------------------------


class TestStoreObservability:
    def test_cold_miss_then_warm_hit(self, tmp_path, obs_off):
        config = _small_config()
        store = ResultStore(tmp_path / "cache")
        cold = ExperimentRunner(jobs=1, store=store)
        cold.run_batch([config])
        counts = store.counters.as_dict()
        assert counts["hits"] == 0
        assert counts["misses"] == 1
        assert counts["evictions"] == 0
        assert counts["saves"] == 1
        assert counts["quarantines"] == 0
        warm = ExperimentRunner(jobs=1, store=store)
        warm.run_batch([config])
        counts = store.counters.as_dict()
        assert counts["hits"] == 1
        summary = warm.store_summary()
        assert summary["hit_ratio"] == pytest.approx(0.5)

    def test_torn_entry_is_quarantined(self, tmp_path, obs_off):
        config = _small_config()
        store = ResultStore(tmp_path / "cache")
        runner = ExperimentRunner(jobs=1, store=store)
        runner.run_batch([config])
        (entry,) = list(store.root.glob("*.pkl"))
        entry.write_bytes(b"torn")
        assert store.load(config) is None
        counts = store.counters.as_dict()
        assert counts["quarantines"] == 1
        assert not entry.exists()
        assert (store.root / "quarantine" / entry.name).exists()

    def test_store_summary_none_without_store(self, obs_off):
        assert ExperimentRunner(jobs=1).store_summary() is None

    def test_traced_store_spans(self, tmp_path, obs_on):
        config = _small_config()
        store = ResultStore(tmp_path / "cache")
        runner = ExperimentRunner(jobs=1, store=store)
        runner.run_batch([config])
        names = span_names(runner.trace_events())
        assert names.get("store.get") == 1
        assert names.get("store.put") == 1


# ---------------------------------------------------------------------------
# Report.
# ---------------------------------------------------------------------------


class TestRunReport:
    def test_report_aggregates_run(self, obs_on):
        config = _small_config(accesses=3000)
        runner = ExperimentRunner(jobs=1)
        runner.run_batch([config])
        snapshot = get_registry().snapshot()
        report = RunReport.build(runner.trace_events(), snapshot)
        rendered = report.render()
        assert report.wall_ms > 0
        assert any(p.name == "capture" for p in report.phases)
        assert "colt_all" in report.coalescing
        assert report.instrument_count >= 15
        assert "phase wall-time" in rendered
        assert "coalescing run lengths" in rendered

    def test_capture_span_encloses_its_phases(self, obs_on):
        capture_scenario(_small_config())
        events = current_tracer().events()
        (capture,) = [e for e in events if e.name == "capture"]
        start, end = capture.ts_us, capture.ts_us + capture.dur_us
        inner = [
            e for e in events
            if e.name in ("kernel.boot", "aging", "layout",
                          "trace.generate", "capture.dedup")
        ]
        assert {e.name for e in inner} >= {
            "kernel.boot", "layout", "trace.generate", "capture.dedup"
        }
        for event in inner:
            assert start <= event.ts_us
            assert event.ts_us + event.dur_us <= end, event.name

    def test_cli_report_alone_prints_phase_table(
        self, obs_off, monkeypatch, capsys
    ):
        """``--report`` without ``--trace`` still records the spans."""
        # QUICK scenarios, one benchmark: keeps the CLI run short.
        monkeypatch.setattr(
            cli, "scale_from_env",
            lambda: QUICK.with_updates(benchmarks=("mcf",)),
        )
        argv = ["fig21", "--no-cache", "--report", "--jobs", "1"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert "phase wall-time" in out
        assert any(
            line.split()[:1] == ["capture"] for line in out.splitlines()
        ), out

    def test_report_empty_inputs(self):
        report = RunReport.build([], None)
        assert report.wall_ms == 0.0
        assert "0 events" in report.render()
