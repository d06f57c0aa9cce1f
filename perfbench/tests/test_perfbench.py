"""Tests of the benchmark's own machinery (not of the simulator).

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types
from itertools import count
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402
from layers import RUN_LOOP, TIME_METRICS, entry_points, layer_metrics  # noqa: E402
from spans import (  # noqa: E402
    EntryPoint,
    SpanRecorder,
    install,
    self_times_ns,
    summarize,
    uninstall,
)


def _ticking_recorder(step: int = 10) -> SpanRecorder:
    clock = count(0, step)
    return SpanRecorder(clock=lambda: next(clock))


def _synthetic_tree() -> SpanRecorder:
    """root -> a -> 3 folded leaves; root -> b -> c -> a (nested name)."""
    rec = _ticking_recorder()
    root = rec.open("root")
    a = rec.open("a")
    for _ in range(3):
        rec.fold("leaf", rec.clock(), rec.clock())
    rec.close(a)
    b = rec.open("b")
    c = rec.open("c")
    inner = rec.open("a")
    rec.close(inner)
    rec.close(c)
    rec.close(b)
    rec.close(root)
    return rec


def test_self_and_inclusive_arithmetic_on_a_nested_tree():
    rec = _synthetic_tree()
    by_name = {}
    for node in rec.nodes:
        by_name.setdefault(node.name, []).append(node)
    root = by_name["root"][0]

    # Nesting follows parents: every child interval lies in its parent's.
    by_id = {node.id: node for node in rec.nodes}
    for node in rec.nodes:
        if node.parent is not None:
            parent = by_id[node.parent]
            assert parent.start <= node.start <= node.end <= parent.end
    assert by_name["leaf"][0].parent == by_name["a"][0].id
    assert by_name["leaf"][0].calls == 3
    assert by_name["c"][0].parent == by_name["b"][0].id
    assert by_name["a"][1].parent == by_name["c"][0].id

    selfs = self_times_ns(rec.nodes)
    assert all(value >= 0 for value in selfs.values())
    # Self times partition the root's interval exactly.
    assert sum(selfs.values()) == root.incl_ns

    stats = summarize(rec.nodes)
    assert stats["leaf"].incl_ns == stats["leaf"].self_ns == 3 * 10
    outer_a, inner_a = by_name["a"]
    # The inner "a" sits under c, not under another "a", so both count.
    assert stats["a"].incl_ns == outer_a.incl_ns + inner_a.incl_ns
    assert stats["a"].self_ns == (outer_a.incl_ns - 30) + inner_a.incl_ns
    assert stats["b"].self_ns == (
        by_name["b"][0].incl_ns - by_name["c"][0].incl_ns
    )


def test_same_name_nesting_is_counted_once_in_inclusive_time():
    rec = _ticking_recorder()
    outer = rec.open("x")
    inner = rec.open("x")
    rec.close(inner)
    rec.close(outer)
    stats = summarize(rec.nodes)
    assert stats["x"].incl_ns == outer.incl_ns
    assert stats["x"].self_ns == outer.incl_ns
    assert stats["x"].calls == 2


def test_spans_must_close_in_order():
    rec = _ticking_recorder()
    outer = rec.open("outer")
    rec.open("inner")
    with pytest.raises(RuntimeError):
        rec.close(outer)


def test_wrappers_filter_by_parent_and_never_double_count_leaves():
    calls = []

    class Target:
        def loop(self):
            self.leaf()
            self.inner_leaf_caller()

        def leaf(self):
            calls.append("leaf")

        def inner_leaf_caller(self):
            self.leaf()  # a leaf inside a leaf is not recorded

        @classmethod
        def factory(cls):
            return cls()

    module = types.SimpleNamespace(helper=lambda: Target().leaf())
    originals = dict(vars(Target))
    rec = _ticking_recorder()
    saved = install(
        rec,
        (
            EntryPoint(Target, "loop", "loop"),
            EntryPoint(Target, "leaf", "leaf", leaf=True, only_under="loop"),
            EntryPoint(Target, "inner_leaf_caller", "outer_leaf", leaf=True),
            EntryPoint(Target, "factory", "factory", leaf=True),
            EntryPoint(module, "helper", "helper"),
        ),
    )
    try:
        Target.factory().loop()
        module.helper()  # leaf under "helper", not "loop": not recorded
    finally:
        uninstall(saved)
    stats = summarize(rec.nodes)
    assert stats["leaf"].calls == 1
    assert stats["outer_leaf"].calls == 1
    assert stats["factory"].calls == 1
    assert stats["helper"].calls == 1
    assert len(calls) == 3
    assert all(vars(Target)[name] is value for name, value in originals.items())


def test_layer_metrics_map_every_row():
    metrics = layer_metrics({})
    for metric, _span, _kind, calls_metric in TIME_METRICS:
        assert metrics[metric] == 0
        if calls_metric is not None:
            assert metrics[calls_metric] == 0


def _outputs():
    return check.PassOutputs(
        tables={"fig18": "aa" * 8, "fig21": "bb" * 8},
        configs=["c1" * 8, "c2" * 8, "c2" * 8],
    )


def test_reference_check_passes_on_identical_outputs():
    outputs = _outputs()
    result = check.check_pass(outputs, check.reference_entry(outputs))
    assert (result.status, result.failed, result.attempted) == ("checked", 0, 3)


def test_perturbed_config_digest_fails_the_check():
    outputs = _outputs()
    expected = check.reference_entry(outputs)
    expected["configs"][0] = "ff" * 8
    result = check.check_pass(outputs, expected)
    assert result.failed == 1
    assert result.messages


def test_perturbed_table_digest_fails_the_check():
    outputs = _outputs()
    expected = check.reference_entry(outputs)
    expected["tables"]["fig21"] = "ff" * 8
    assert check.check_pass(outputs, expected).failed == 1


def test_missing_config_and_exceptions_fail_the_check():
    outputs = _outputs()
    expected = check.reference_entry(outputs)
    outputs.configs.pop()
    outputs.errors.append("fig21: TaskExecutionError: boom")
    result = check.check_pass(outputs, expected)
    assert result.failed == 2


def test_seed_without_reference_is_reported_unchecked():
    result = check.check_pass(_outputs(), None)
    assert result.status == "unchecked"
    assert result.failed == 0
    reference = check.load_reference()
    assert check.reference_for(reference, 123456789, "tlb-figs") is None


def test_committed_reference_covers_every_workload_for_two_seeds():
    seeds = check.load_reference()["seeds"]
    assert len(seeds) >= 2
    for per_workload in seeds.values():
        assert set(per_workload) == set(run.WORKLOADS)


def test_leaked_colt_engine_is_scrubbed(monkeypatch):
    monkeypatch.setenv("COLT_ENGINE", "vector")
    monkeypatch.setenv("COLT_EPOCH_MAX", "8")
    monkeypatch.setenv("REPRO_SCALE", "default")
    clean, removed = run.scrub_env(dict(os.environ))
    assert removed == ["COLT_ENGINE", "COLT_EPOCH_MAX", "REPRO_SCALE"]
    assert not any(name.startswith("COLT_") for name in clean)
    resolved = subprocess.run(
        [
            sys.executable, "-c",
            "import sys; sys.path.insert(0, 'src');"
            "from repro.sim.engine import resolve_engine;"
            "print(resolve_engine(None))",
        ],
        cwd=ROOT, env=clean, capture_output=True, text=True, check=True,
    )
    assert resolved.stdout.strip() == "scalar"


def test_entry_points_resolve_on_the_current_simulator():
    sys.path.insert(0, str(ROOT / "src"))
    points = entry_points()
    assert any(point.name == RUN_LOOP for point in points)
    for point in points:
        assert point.attr in vars(point.owner), point


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_simulator_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tlb-figs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
