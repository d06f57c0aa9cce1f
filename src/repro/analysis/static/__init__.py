"""Project-wide static analysis for the CoLT reproduction repo.

The single-file determinism rules (``lint_rules``) run here as one
pass beside the *cross-file* checks:

``model``
    One shared :class:`~repro.analysis.static.model.ProjectModel` --
    per-module ASTs, a symbol index, and a lightweight call graph with
    "reachable from a ProcessPool task / signal handler / monitor
    thread" coloring -- parsed once and handed to every pass.

``passes``
    The pass framework (:class:`Finding`, pragma suppression,
    fingerprints) the lint rules are refactored onto.

``registries``
    The single declarative source of truth for every ``COLT_*`` env
    knob, metric/counter name, fault site, and trace span.

``coherence`` / ``concurrency`` / ``hygiene``
    The three cross-file analyzers (registry coherence, concurrency
    safety, exception hygiene).

``cli``
    The ``colt-analyze`` entry point: text/JSON/SARIF output, a
    checked-in baseline so CI fails only on *new* findings, and
    ``--check-docs`` to keep generated doc sections fresh.
"""

from repro.analysis.static.model import ProjectModel, iter_python_files
from repro.analysis.static.passes import AnalysisPass, Finding, run_passes

__all__ = [
    "AnalysisPass",
    "Finding",
    "ProjectModel",
    "iter_python_files",
    "run_passes",
]
