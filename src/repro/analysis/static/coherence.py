"""Registry coherence: code and the declarative registry must agree.

Extraction is *call-shape based* -- names are read from the argument
positions where they mean something (environment-lookup literals and
``*_ENV`` constants for knobs, ``registry.counter(...)`` /
``bind_counterset(...)`` first-name arguments for metrics,
``span(...)``/``.instant(...)``/``.counter(..., cat=...)`` for trace
events, ``faults.fire(site, ...)`` / ``site=`` keywords for fault
sites) -- so prose in docstrings and unrelated string constants cannot
produce false positives.

Both directions are checked. Used-but-undeclared names fail closed
(every new surface must be registered); declared-but-dead checks are
gated on the declaring consumer module actually being part of the scan,
so analyzing a single file never produces spurious "dead knob" noise.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.static import registries
from repro.analysis.static.model import ModuleInfo, ProjectModel
from repro.analysis.static.passes import AnalysisPass, Finding

#: Environment names the knob registry governs.
_ENV_NAME = re.compile(r"(COLT|REPRO)_[A-Z][A-Z0-9_]*")

#: The module whose reads define "reported" for metrics.
REPORT_MODULE_SUFFIX = "repro/obs/report.py"


@dataclass
class _Extraction:
    """Names one module uses, keyed by surface."""

    env_uses: List[Tuple[str, ast.AST]] = field(default_factory=list)
    metric_emits: List[Tuple[str, bool, ast.AST]] = field(default_factory=list)
    span_emits: List[Tuple[str, bool, ast.AST]] = field(default_factory=list)
    fault_sites: List[Tuple[str, ast.AST]] = field(default_factory=list)
    report_refs: Set[str] = field(default_factory=set)
    report_prefixes: Set[str] = field(default_factory=set)


def _literal(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _fstring_head(node: ast.AST) -> Optional[str]:
    """Leading literal part of an f-string, e.g. ``f"colt_x_{n}"``."""
    if (
        isinstance(node, ast.JoinedStr)
        and node.values
        and isinstance(node.values[0], ast.Constant)
        and isinstance(node.values[0].value, str)
    ):
        return node.values[0].value
    return None


def _docstring_nodes(tree: ast.Module) -> Set[int]:
    """ids of Constant nodes that are module/class/function docstrings."""
    ids: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                ids.add(id(body[0].value))
    return ids


def extract_module(module: ModuleInfo) -> _Extraction:
    """Pull every registry-governed name out of one module's AST."""
    extraction = _Extraction()
    tree = module.tree
    if tree is None:
        return extraction
    docstrings = _docstring_nodes(tree)
    is_report = module.path_matches((REPORT_MODULE_SUFFIX,))
    in_faults_module = module.path_matches(("repro/sim/faults.py",))

    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docstrings and _ENV_NAME.fullmatch(node.value):
                extraction.env_uses.append((node.value, node))
            if is_report:
                if node.value.startswith("colt_"):
                    extraction.report_refs.add(node.value)
        elif isinstance(node, ast.JoinedStr) and is_report:
            head = _fstring_head(node)
            if head is not None and head.startswith("colt_"):
                extraction.report_prefixes.add(head)
        elif isinstance(node, ast.Assign) and in_faults_module:
            # TASK_SITES / STORE_SITE declarations inside the grammar
            # module are authoritative use-sites for fault-site names.
            targets = [
                t.id for t in node.targets if isinstance(t, ast.Name)
            ]
            if any(t in ("TASK_SITES", "STORE_SITE") for t in targets):
                for element in ast.walk(node.value):
                    site = _literal(element)
                    if site is not None:
                        extraction.fault_sites.append((site, element))
        elif isinstance(node, ast.Call):
            _extract_call(node, extraction)
    return extraction


def _extract_call(node: ast.Call, extraction: _Extraction) -> None:
    func = node.func
    attr = func.attr if isinstance(func, ast.Attribute) else None
    name = func.id if isinstance(func, ast.Name) else None

    if attr in ("counter", "gauge", "histogram") and node.args:
        literal = _literal(node.args[0])
        if literal is not None and literal.startswith("colt_"):
            extraction.metric_emits.append((literal, False, node))
        elif (
            attr == "counter"
            and literal is not None
            and any(kw.arg == "cat" for kw in node.keywords)
        ):
            extraction.span_emits.append((literal, False, node))
    if (name == "bind_counterset" or attr == "bind_counterset") and (
        len(node.args) >= 2
    ):
        prefix = _literal(node.args[1])
        if prefix is not None:
            extraction.metric_emits.append((prefix, True, node))
    if (name == "span" or attr in ("span", "instant")) and node.args:
        literal = _literal(node.args[0])
        if literal is not None:
            extraction.span_emits.append((literal, False, node))
        else:
            head = _fstring_head(node.args[0])
            if head is not None:
                extraction.span_emits.append((head, True, node))
    if attr == "fire" and node.args:
        site = _literal(node.args[0])
        if site is not None:
            extraction.fault_sites.append((site, node))
    for keyword in node.keywords:
        if keyword.arg == "site":
            site = _literal(keyword.value)
            if site is not None:
                extraction.fault_sites.append((site, keyword.value))


class RegistryCoherencePass(AnalysisPass):
    """Diff AST-extracted names against the declarative registry."""

    name = "coherence"
    rules = (
        "undeclared-env-knob", "dead-env-knob",
        "undeclared-metric", "unemitted-metric", "unreported-metric",
        "undeclared-span", "unemitted-span",
        "undeclared-fault-site", "unemitted-fault-site",
    )

    def __init__(
        self,
        knobs: Sequence[registries.EnvKnob] = registries.KNOBS,
        metrics: Sequence[registries.MetricDecl] = registries.METRICS,
        spans: Sequence[registries.SpanDecl] = registries.SPANS,
        fault_sites: Sequence[registries.FaultSiteDecl] = (
            registries.FAULT_SITES
        ),
    ) -> None:
        self.knobs = tuple(knobs)
        self.metrics = tuple(metrics)
        self.spans = tuple(spans)
        self.fault_sites = tuple(fault_sites)

    def run(self, project: ProjectModel) -> List[Finding]:
        per_module: Dict[str, _Extraction] = {
            module.path: extract_module(module) for module in project.modules
        }
        findings: List[Finding] = []
        findings.extend(self._check_env(project, per_module))
        findings.extend(self._check_metrics(project, per_module))
        findings.extend(self._check_spans(project, per_module))
        findings.extend(self._check_fault_sites(project, per_module))
        return findings

    # -- helpers -------------------------------------------------------

    @staticmethod
    def _finding(
        module_path: str, node: Optional[ast.AST], rule: str, message: str
    ) -> Finding:
        line = getattr(node, "lineno", 1) if node is not None else 1
        col = getattr(node, "col_offset", 0) if node is not None else 0
        return Finding(module_path, line, col, rule, message)

    def _module_present(
        self, project: ProjectModel, consumer: str
    ) -> Optional[ModuleInfo]:
        matches = project.modules_matching((consumer,))
        return matches[0] if matches else None

    # -- env knobs -----------------------------------------------------

    def _check_env(
        self, project: ProjectModel, per_module: Dict[str, _Extraction]
    ) -> List[Finding]:
        declared = {knob.name: knob for knob in self.knobs}
        used_by_module: Dict[str, Set[str]] = {}
        findings: List[Finding] = []
        for module in project.modules:
            extraction = per_module[module.path]
            for env_name, node in extraction.env_uses:
                used_by_module.setdefault(env_name, set()).add(module.relpath)
                if env_name not in declared:
                    findings.append(self._finding(
                        module.path, node, "undeclared-env-knob",
                        f"environment knob '{env_name}' is read here but "
                        f"not declared in repro.analysis.static.registries; "
                        f"declare it (with default + consumer) so the docs "
                        f"table stays complete",
                    ))
        for knob in self.knobs:
            consumer = self._module_present(project, knob.consumer)
            if consumer is None:
                continue
            uses = used_by_module.get(knob.name, set())
            if not any(
                path.endswith(knob.consumer.replace("\\", "/"))
                for path in uses
            ):
                findings.append(self._finding(
                    consumer.path, None, "dead-env-knob",
                    f"registry declares env knob '{knob.name}' with "
                    f"consumer {knob.consumer}, but this module never "
                    f"references it; the knob is dead or the registry "
                    f"is stale",
                ))
        return findings

    # -- metrics -------------------------------------------------------

    def _check_metrics(
        self, project: ProjectModel, per_module: Dict[str, _Extraction]
    ) -> List[Finding]:
        exact = {m.name: m for m in self.metrics if m.kind != "counterset-prefix"}
        prefixes = {
            m.name: m for m in self.metrics if m.kind == "counterset-prefix"
        }
        findings: List[Finding] = []
        emitted_names: Set[str] = set()
        emitted_prefixes: Set[str] = set()
        report_refs: Set[str] = set()
        report_heads: Set[str] = set()
        report_present = (
            self._module_present(project, REPORT_MODULE_SUFFIX) is not None
        )
        for module in project.modules:
            extraction = per_module[module.path]
            report_refs.update(extraction.report_refs)
            report_heads.update(extraction.report_prefixes)
            for metric_name, is_prefix, node in extraction.metric_emits:
                if is_prefix:
                    emitted_prefixes.add(metric_name)
                    if metric_name not in prefixes:
                        findings.append(self._finding(
                            module.path, node, "undeclared-metric",
                            f"counterset prefix '{metric_name}' is bound "
                            f"here but not declared in the metric registry",
                        ))
                else:
                    emitted_names.add(metric_name)
                    if metric_name not in exact:
                        findings.append(self._finding(
                            module.path, node, "undeclared-metric",
                            f"metric '{metric_name}' is emitted here but "
                            f"not declared in the metric registry",
                        ))
        for metric in self.metrics:
            emitter = self._module_present(project, metric.module)
            if emitter is None:
                continue
            is_prefix = metric.kind == "counterset-prefix"
            emitted = (
                metric.name in emitted_prefixes
                if is_prefix
                else metric.name in emitted_names
            )
            if not emitted:
                findings.append(self._finding(
                    emitter.path, None, "unemitted-metric",
                    f"registry declares metric '{metric.name}' emitted by "
                    f"{metric.module}, but no emission site was found; the "
                    f"metric is dead or the registry is stale",
                ))
                continue
            if metric.reported and report_present:
                if is_prefix:
                    wanted = metric.name + "_"
                    seen = (
                        any(r.startswith(wanted) for r in report_refs)
                        or any(h == wanted for h in report_heads)
                    )
                else:
                    seen = metric.name in report_refs or any(
                        metric.name.startswith(h) for h in report_heads
                    )
                if not seen:
                    findings.append(self._finding(
                        emitter.path, None, "unreported-metric",
                        f"metric '{metric.name}' is declared reported=True "
                        f"but {REPORT_MODULE_SUFFIX} never reads it; report "
                        f"it or declare reported=False with a reason",
                    ))
        return findings

    # -- spans ---------------------------------------------------------

    def _check_spans(
        self, project: ProjectModel, per_module: Dict[str, _Extraction]
    ) -> List[Finding]:
        exact = {s.name: s for s in self.spans if s.kind != "span-prefix"}
        prefixes = {s.name: s for s in self.spans if s.kind == "span-prefix"}
        findings: List[Finding] = []
        emitted: Set[str] = set()
        emitted_prefix: Set[str] = set()
        for module in project.modules:
            for span_name, is_prefix, node in per_module[
                module.path
            ].span_emits:
                if is_prefix:
                    emitted_prefix.add(span_name)
                    if span_name not in prefixes:
                        findings.append(self._finding(
                            module.path, node, "undeclared-span",
                            f"trace event prefix '{span_name}' is emitted "
                            f"here but not declared in the span registry",
                        ))
                else:
                    emitted.add(span_name)
                    declared = span_name in exact or any(
                        span_name.startswith(p) for p in prefixes
                    )
                    if not declared:
                        findings.append(self._finding(
                            module.path, node, "undeclared-span",
                            f"trace event '{span_name}' is emitted here "
                            f"but not declared in the span registry",
                        ))
        for span in self.spans:
            emitter = self._module_present(project, span.module)
            if emitter is None:
                continue
            present = (
                span.name in emitted_prefix
                if span.kind == "span-prefix"
                else span.name in emitted
            )
            if not present:
                findings.append(self._finding(
                    emitter.path, None, "unemitted-span",
                    f"registry declares trace event '{span.name}' in "
                    f"{span.module}, but no emission site was found",
                ))
        return findings

    # -- fault sites ---------------------------------------------------

    def _check_fault_sites(
        self, project: ProjectModel, per_module: Dict[str, _Extraction]
    ) -> List[Finding]:
        declared = {site.name: site for site in self.fault_sites}
        findings: List[Finding] = []
        used_by_module: Dict[str, Set[str]] = {}
        for module in project.modules:
            for site_name, node in per_module[module.path].fault_sites:
                used_by_module.setdefault(site_name, set()).add(
                    module.relpath
                )
                if site_name not in declared:
                    findings.append(self._finding(
                        module.path, node, "undeclared-fault-site",
                        f"fault site '{site_name}' is used here but not "
                        f"declared in the fault-site registry",
                    ))
        for site in self.fault_sites:
            module = self._module_present(project, site.module)
            if module is None:
                continue
            uses = used_by_module.get(site.name, set())
            if not any(
                path.endswith(site.module.replace("\\", "/"))
                for path in uses
            ):
                findings.append(self._finding(
                    module.path, None, "unemitted-fault-site",
                    f"registry declares fault site '{site.name}' fired by "
                    f"{site.module}, but no use was found there",
                ))
        return findings
