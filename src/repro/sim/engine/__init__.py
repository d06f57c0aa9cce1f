"""Replay engines: the vectorized run-time engine and the scalar oracle.

``repro.sim.replay.replay_scenario`` is the bit-exact scalar oracle: one
Python-interpreted ``MMU.access`` per simulated access. The vectorized
engine (``repro.sim.engine.vector``) replays the same captured scenario
as an epoch-batched array program: the access log is partitioned into
epochs bounded by shootdown events (the loop-carried state of the
scalar loop), each epoch's TLB hits are
resolved by one NumPy coverage scan over a structure-of-arrays export of
the TLB state, and only the misses (and epoch boundaries) fall back to a
lean scalar step. The two engines produce bit-identical
``SimulationResult`` tables, MMU counters and coalescing histograms --
enforced by ``tests/test_engine.py`` and the CI bench gate.

Every run replays through the vectorized engine. The scalar oracle
stays as the reference in tests and ``tools/bench_runner.py``, and as
the sanitized path: sanitized runs (``COLT_SANITIZE`` /
``sanitize=True``) replay on the scalar engine, because the sanitizers
attach to the live TLB objects, which the vectorized engine does not
materialise.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.sanitizers import resolve_sanitize
from repro.sim.engine.vector import vector_replay_scenario
from repro.sim.scenario import CapturedScenario
from repro.sim.system import SimulationConfig, SimulationResult


def resolve_engine(explicit: Optional[bool] = None) -> str:
    """Name the engine a replay takes: ``"scalar"`` when sanitized.

    ``explicit`` is a config's ``sanitize`` field; ``None`` defers to
    ``COLT_SANITIZE``, as :func:`resolve_sanitize` does.
    """
    return "scalar" if resolve_sanitize(explicit) else "vector"


def replay_with_engine(
    scenario: CapturedScenario, config: SimulationConfig
) -> SimulationResult:
    """Replay ``scenario`` under ``config``: the runner's one dispatch."""
    return vector_replay_scenario(scenario, config)
