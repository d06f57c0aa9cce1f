"""Interrupt and rerun: atomic writes, shutdown, watchdogs, the CLI loop.

The invariants pinned here are the robustness contract of
``repro.sim.resilience`` / ``repro.sim.watchdog`` /
``repro.common.atomicio`` and the ``python -m repro.experiments`` loop:

* an artifact write killed at any point leaves the old file intact;
* the first signal stops the run at a safe point with exit 75, and
  rerunning the same command on the same store is the resume: it
  prints byte-identical tables without recomputing anything;
* a permanent task failure fails only its experiment; the run still
  prints its summaries and appends a ``failed`` history record;
* a stall fires a stack dump and requeues through the ordinary retry
  machinery; memory pressure climbs the degradation ladder.
"""

import os
import re
import signal
import time
from dataclasses import dataclass

import pytest

from repro.common.atomicio import (
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
)
from repro.common.errors import ShutdownRequested
from repro.experiments.__main__ import _build_parser, build_watchdog, main
from repro.experiments.scale import QUICK, ExperimentScale
from repro.obs.history import history_path, load_history
from repro.obs.live import get_progress, reset_progress
from repro.obs.trace import PROFILE_ENV, TRACE_ENV, reset_tracing
from repro.obs.registry import set_registry
from repro.sim.faults import FAULTS_ENV
from repro.sim.resilience import (
    SHUTDOWN_EXIT_CODE,
    ResilientExecutor,
    RetryPolicy,
    ShutdownCoordinator,
    TaskSpec,
)
from repro.sim.store import run_fingerprint
from repro.sim.watchdog import (
    DEGRADE_ABORT,
    DEGRADE_NO_PREFETCH,
    DEGRADE_NONE,
    DEGRADE_SHRINK_POOL,
    Watchdog,
)


@pytest.fixture
def obs_off(monkeypatch):
    monkeypatch.delenv(TRACE_ENV, raising=False)
    monkeypatch.delenv(PROFILE_ENV, raising=False)
    reset_tracing()
    set_registry(None)
    yield
    reset_tracing()
    set_registry(None)


# ---------------------------------------------------------------------------
# Atomic writes.
# ---------------------------------------------------------------------------


class TestAtomicIO:
    def test_write_and_overwrite(self, tmp_path):
        path = tmp_path / "artifact.json"
        atomic_write_json(path, {"a": 1})
        assert path.read_text() == '{"a": 1}\n'
        atomic_write_text(path, "plain\n")
        assert path.read_text() == "plain\n"
        assert list(tmp_path.iterdir()) == [path]  # no temp litter

    def test_kill_between_write_and_replace_keeps_old_file(
        self, tmp_path, monkeypatch
    ):
        """Simulate dying mid-write: the visible file never changes."""
        path = tmp_path / "artifact.json"
        atomic_write_bytes(path, b"old and complete")

        def exploding_replace(src, dst):
            raise OSError("killed between write and replace")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError):
            atomic_write_bytes(path, b"new but doomed")
        monkeypatch.undo()
        assert path.read_bytes() == b"old and complete"
        # The raising writer cleaned its temp file up.
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_first_write_leaves_nothing(self, tmp_path, monkeypatch):
        path = tmp_path / "artifact.json"
        monkeypatch.setattr(
            os, "replace",
            lambda src, dst: (_ for _ in ()).throw(OSError("boom")),
        )
        with pytest.raises(OSError):
            atomic_write_text(path, "never lands")
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == []

    def test_nonexistent_directory_raises_untouched(self, tmp_path):
        with pytest.raises(OSError):
            atomic_write_text(tmp_path / "no" / "dir" / "f.txt", "x")


# ---------------------------------------------------------------------------
# The run fingerprint history records carry.
# ---------------------------------------------------------------------------


class TestRunFingerprint:
    def test_fingerprint_covers_scale_ids_and_constants(self):
        @dataclass(frozen=True)
        class FakeScale:
            accesses: int = 1000

        base = run_fingerprint(FakeScale(), ["a", "b"])
        assert base == run_fingerprint(FakeScale(), ["a", "b"])
        assert base != run_fingerprint(FakeScale(2000), ["a", "b"])
        assert base != run_fingerprint(FakeScale(), ["a"])

    def test_quick_fig18_value_is_pinned(self):
        # Existing history.jsonl records carry this value; a change to
        # the hashed payload would split every trend table in two.
        assert run_fingerprint(QUICK, ["fig18"]) == (
            "7f0d48fe4ae677f1fdc3ad6f8503955521d2b8435b82c98eb5bccd17f9641f15"
        )


# ---------------------------------------------------------------------------
# Shutdown coordinator.
# ---------------------------------------------------------------------------


class TestShutdownCoordinator:
    def test_programmatic_request(self):
        shutdown = ShutdownCoordinator()
        assert not shutdown.requested
        shutdown.check()  # no-op before a request
        shutdown.request("TEST")
        assert shutdown.requested
        with pytest.raises(ShutdownRequested) as exc_info:
            shutdown.check()
        assert exc_info.value.signal_name == "TEST"

    def test_real_signal_sets_flag_and_restore_uninstalls(self):
        shutdown = ShutdownCoordinator()
        with shutdown:
            os.kill(os.getpid(), signal.SIGINT)
            # Delivery is synchronous for a self-signal on the main
            # thread once any bytecode runs.
            for _ in range(100):
                if shutdown.requested:
                    break
                time.sleep(0.01)
            assert shutdown.requested
            assert shutdown.signal_name == "SIGINT"
        # Restored: a further SIGINT raises KeyboardInterrupt as usual.
        with pytest.raises(KeyboardInterrupt):
            os.kill(os.getpid(), signal.SIGINT)
            time.sleep(0.2)

    def test_exit_code_is_distinct(self):
        assert SHUTDOWN_EXIT_CODE == 75
        assert SHUTDOWN_EXIT_CODE not in (0, 1, 2)
        assert SHUTDOWN_EXIT_CODE != 128 + signal.SIGINT
        assert SHUTDOWN_EXIT_CODE != 128 + signal.SIGTERM


# ---------------------------------------------------------------------------
# Watchdog: stalls, dumps, and the memory ladder.
# ---------------------------------------------------------------------------


class TestWatchdog:
    def test_from_env_none_when_unconfigured(self, tmp_path):
        """The CLI builds a watchdog only for a non-zero flag."""
        def build(*flags):
            args = _build_parser().parse_args(["fig18", *flags])
            return build_watchdog(args, tmp_path)

        assert build() is None
        dog = build("--stall-timeout", "30")
        assert dog is not None and dog.stall_timeout_s == 30.0
        assert dog.dump_dir == tmp_path
        assert build("--stall-timeout", "0") is None

    def test_stall_dumps_stacks_and_fires_once(self, tmp_path, obs_off):
        dog = Watchdog(
            stall_timeout_s=0.05, dump_dir=tmp_path, poll_interval_s=0.02
        )
        with dog:
            dog.begin_work()
            deadline = time.monotonic() + 5.0
            while not dog.consume_stall():
                assert time.monotonic() < deadline, "stall never fired"
                time.sleep(0.01)
            dog.end_work()
        assert dog.counters.as_dict()["stalls"] >= 1
        assert dog.last_dump_path is not None
        dump = dog.last_dump_path.read_text()
        assert "colt watchdog: stall" in dump
        # faulthandler wrote actual stack frames, not just the header.
        assert "File " in dump or "Thread " in dump

    def test_no_stall_when_idle_or_heartbeating(self, tmp_path, obs_off):
        dog = Watchdog(
            stall_timeout_s=0.08, dump_dir=tmp_path, poll_interval_s=0.02
        )
        with dog:
            time.sleep(0.2)          # idle: no work outstanding
            assert not dog.consume_stall()
            dog.begin_work()
            for _ in range(10):      # busy but beating
                dog.heartbeat()
                time.sleep(0.02)
            assert not dog.consume_stall()
            dog.end_work()

    def test_memory_ladder_climbs_to_abort(self, tmp_path, obs_off):
        rss = {"value": 10 * 1024 * 1024}
        dog = Watchdog(
            mem_budget_bytes=5 * 1024 * 1024,
            dump_dir=tmp_path,
            poll_interval_s=0.02,
            rss_fn=lambda: rss["value"],
        )
        assert dog.degradation == DEGRADE_NONE
        with dog:
            deadline = time.monotonic() + 5.0
            while not dog.should_abort():
                assert time.monotonic() < deadline, "ladder never topped"
                time.sleep(0.01)
        counts = dog.counters.as_dict()
        assert counts["pool_shrinks"] == 1
        assert counts["prefetch_disables"] == 1
        assert counts["budget_aborts"] == 1
        assert counts["mem_breaches"] >= 3
        assert dog.degradation == DEGRADE_ABORT

    def test_under_budget_stays_on_the_ground(self, tmp_path, obs_off):
        dog = Watchdog(
            mem_budget_bytes=100 * 1024 * 1024,
            dump_dir=tmp_path,
            poll_interval_s=0.02,
            rss_fn=lambda: 1024,
        )
        with dog:
            time.sleep(0.1)
        assert dog.degradation == DEGRADE_NONE
        assert not dog.should_abort()
        assert DEGRADE_SHRINK_POOL < DEGRADE_NO_PREFETCH < DEGRADE_ABORT


def _sleepy(seconds, attempt):
    # Attempt 0 sleeps long enough to stall; the retry returns fast.
    if attempt == 0:
        time.sleep(seconds)
    return attempt


class TestExecutorIntegration:
    def test_stall_requeues_through_retry_machinery(self, tmp_path,
                                                    obs_off):
        dog = Watchdog(
            stall_timeout_s=0.15, dump_dir=tmp_path, poll_interval_s=0.03
        )
        policy = RetryPolicy(max_retries=2, backoff_s=0.0)
        task = TaskSpec(
            fn=_sleepy, args=(20.0,), site="capture", index=0,
            context={"kind": "stall-victim"},
        )
        started = time.monotonic()
        with dog, ResilientExecutor(
            jobs=2, policy=policy, watchdog=dog
        ) as executor:
            results = [r for _, r in executor.run([task])]
        # The stalled attempt 0 was abandoned; the retry (attempt 1)
        # returned immediately, and close() killed the still-sleeping
        # worker instead of joining it.
        assert time.monotonic() - started < 10.0
        assert results == [1]
        assert executor.counters.as_dict()["retries"] >= 1
        assert dog.counters.as_dict()["stalls"] >= 1
        assert dog.last_dump_path is not None

    def test_shutdown_interrupts_wave_and_raises(self, obs_off):
        shutdown = ShutdownCoordinator()
        tasks = [
            TaskSpec(fn=_sleepy, args=(0.0,), site="capture", index=i,
                     context={"i": i})
            for i in range(3)
        ]
        shutdown.request("TEST")
        with ResilientExecutor(jobs=1, shutdown=shutdown) as executor:
            with pytest.raises(ShutdownRequested):
                list(executor.run(tasks))


# ---------------------------------------------------------------------------
# The CLI loop: failures, interrupts, and rerun-as-resume.
# ---------------------------------------------------------------------------


_TINY = ExperimentScale(
    accesses=2_000,
    num_frames=1 << 13,
    footprint_scale=0.2,
    benchmarks=("mcf", "astar"),
)


@pytest.fixture
def tiny_cli(monkeypatch, obs_off):
    """``main()`` at the tiny scale with no fault plan and fresh progress."""
    monkeypatch.setattr(
        "repro.experiments.__main__.scale_from_env", lambda: _TINY
    )
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    reset_progress()
    yield main
    reset_progress()


def _tables(out: str) -> str:
    """The printed tables, minus the elapsed-time stamps in headers."""
    tables = out.split("\nstore:")[0]
    return re.sub(r" \(\d+\.\ds\) ===", " ===", tables)


class TestCliRun:
    def test_permanent_failure_fails_the_experiment_not_the_run(
        self, tiny_cli, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv(FAULTS_ENV, "raise@replay:0x9")
        cache = tmp_path / "cache"
        code = tiny_cli([
            "fig18", "fig19", "--jobs", "1", "--retries", "0",
            "--cache-dir", str(cache),
        ])
        assert code == 1
        out = capsys.readouterr().out
        # Every requested experiment was attempted.
        assert "fig18 failed:" in out and "fig19 failed:" in out
        assert "2 of 2 experiment(s) failed" in out
        assert "\nstore: " in out and "\nresilience: " in out
        records = load_history(history_path(cache))
        assert [r["status"] for r in records] == ["failed"]
        assert get_progress().snapshot()["experiments"] == {
            "current": None, "done": 0, "failed": 2, "total": 2,
        }

    def test_rerun_is_the_resume(self, tiny_cli, tmp_path, capsys):
        argv = ["fig18", "--jobs", "1", "--cache-dir", str(tmp_path)]
        assert tiny_cli(argv) == 0
        first = capsys.readouterr().out
        assert tiny_cli(argv) == 0
        second = capsys.readouterr().out
        assert "=== " in first
        assert _tables(second) == _tables(first)
        assert re.search(r"store: \d+ hits, 0 misses", second)
        records = load_history(history_path(tmp_path))
        assert [r["status"] for r in records] == ["ok", "ok"]
        assert records[0]["fingerprint"] == records[1]["fingerprint"]

    def test_signal_between_experiments_exits_resumable(
        self, tiny_cli, tmp_path, monkeypatch, capsys
    ):
        ran = []

        class _Result:
            @staticmethod
            def format_table():
                return "table"

        class _Experiment:
            def __init__(self, exp_id, interrupt):
                self.id = exp_id
                self.title = exp_id
                self._interrupt = interrupt

            def run(self, scale, runner):
                ran.append(self.id)
                if self._interrupt:
                    # The installed coordinator only sets its flag; a
                    # store-warm next experiment never reaches the
                    # executor, so the loop itself must stop.
                    os.kill(os.getpid(), signal.SIGINT)
                return _Result()

        monkeypatch.setattr(
            "repro.experiments.__main__.resolve_experiments",
            lambda ids: (_Experiment("a", True), _Experiment("b", False)),
        )
        code = tiny_cli(["a", "b", "--cache-dir", str(tmp_path)])
        assert code == SHUTDOWN_EXIT_CODE
        assert ran == ["a"]
        out = capsys.readouterr().out
        assert "interrupted by SIGINT; rerun the same command" in out
        assert str(tmp_path) in out
        records = load_history(history_path(tmp_path))
        assert [r["status"] for r in records] == ["interrupted"]
