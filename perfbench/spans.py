"""In-memory span tree recorded by timing wrappers around entry points.

A :class:`SpanRecorder` holds the tree; :func:`install` replaces an
entry point, at the name its caller looks it up by, with a wrapper that
opens a span around every call. Nothing inside the simulator is
modified: the wrappers live here and are removed again by
:func:`uninstall`.

Two kinds of span:

* a **full span** becomes one node per call (name, start, end, parent,
  ``calls == 1``); spans opened while it runs become its children;
* a **leaf span** is for hot calls that open no spans themselves (page
  table lookups run once per simulated access). Calls with the same
  name under the same parent fold into one node: ``calls`` counts them,
  ``start``/``end`` are the first start and the last end, and
  ``incl_ns`` is the sum of their durations. A leaf may be restricted
  to calls made directly under a span of a given name.

While a leaf runs, nothing else records, so a leaf's time is never
counted twice. Times are integer nanoseconds from
``time.perf_counter_ns``, so self time -- a node's inclusive time minus
its children's -- is exact and never negative for properly nested
calls.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass
class Node:
    """One span, or a fold of same-named leaf calls under one parent."""

    id: int
    name: str
    parent: Optional[int]
    start: int
    end: int = 0
    calls: int = 1
    incl_ns: int = 0


class SpanRecorder:
    """The span tree of one traced run."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.nodes: List[Node] = []
        self._stack: List[Node] = []
        self._folds: Dict[Tuple[Optional[int], str], Node] = {}
        self._in_leaf = False

    def current_name(self) -> Optional[str]:
        return self._stack[-1].name if self._stack else None

    def open(self, name: str) -> Node:
        parent = self._stack[-1].id if self._stack else None
        node = Node(len(self.nodes), name, parent, self.clock())
        self.nodes.append(node)
        self._stack.append(node)
        return node

    def close(self, node: Node) -> None:
        if not self._stack or self._stack[-1] is not node:
            raise RuntimeError(f"span {node.name!r} closed out of order")
        self._stack.pop()
        node.end = self.clock()
        node.incl_ns = node.end - node.start

    @contextmanager
    def span(self, name: str):
        """Record the ``with`` block as one full span."""
        node = self.open(name)
        try:
            yield node
        finally:
            self.close(node)

    def fold(self, name: str, start: int, end: int) -> None:
        """Account one leaf call of ``[start, end)`` under the open span."""
        parent = self._stack[-1].id if self._stack else None
        node = self._folds.get((parent, name))
        if node is None:
            node = Node(len(self.nodes), name, parent, start, calls=0)
            self.nodes.append(node)
            self._folds[(parent, name)] = node
        node.calls += 1
        node.end = end
        node.incl_ns += end - start

    def timed(
        self,
        name: str,
        fn: Callable,
        leaf: bool = False,
        only_under: Optional[str] = None,
    ) -> Callable:
        """``fn`` wrapped to record a span named ``name`` per call."""
        if leaf:
            @functools.wraps(fn, updated=())
            def leaf_wrapper(*args, **kwargs):
                if self._in_leaf or (
                    only_under is not None
                    and self.current_name() != only_under
                ):
                    return fn(*args, **kwargs)
                self._in_leaf = True
                start = self.clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = self.clock()
                    self._in_leaf = False
                    self.fold(name, start, end)

            return leaf_wrapper

        @functools.wraps(fn, updated=())
        def span_wrapper(*args, **kwargs):
            if self._in_leaf:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return span_wrapper


@dataclass(frozen=True)
class EntryPoint:
    """One callable to time: ``owner.attr`` recorded as span ``name``.

    ``owner`` is the module or class the caller resolves the name
    through (``repro.sim.runner`` for the runner's ``capture_scenario``,
    ``Kernel`` for ``kernel.tick()``).
    """

    owner: object
    attr: str
    name: str
    leaf: bool = False
    only_under: Optional[str] = None


def install(recorder: SpanRecorder, points) -> List[Tuple[object, str, object]]:
    """Wrap every entry point; returns what :func:`uninstall` restores."""
    saved = []
    for point in points:
        original = vars(point.owner)[point.attr]
        if isinstance(original, (classmethod, staticmethod)):
            wrapped = type(original)(
                recorder.timed(
                    point.name, original.__func__, point.leaf, point.only_under
                )
            )
        else:
            wrapped = recorder.timed(
                point.name, original, point.leaf, point.only_under
            )
        saved.append((point.owner, point.attr, original))
        setattr(point.owner, point.attr, wrapped)
    return saved


def uninstall(saved) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


@dataclass(frozen=True)
class SpanStats:
    """Per-name totals: calls, inclusive and self nanoseconds."""

    calls: int
    incl_ns: int
    self_ns: int


def summarize(nodes: List[Node]) -> Dict[str, SpanStats]:
    """Calls, inclusive and self time per span name.

    Self time is a node's inclusive time minus its children's. The
    inclusive time of a name counts only its outermost nodes, so a span
    nested inside a span of the same name is not counted twice.
    """
    by_id = {node.id: node for node in nodes}
    self_ns = self_times_ns(nodes)

    def nested_in_same_name(node: Node) -> bool:
        parent = node.parent
        while parent is not None:
            if by_id[parent].name == node.name:
                return True
            parent = by_id[parent].parent
        return False

    totals: Dict[str, List[int]] = {}
    for node in nodes:
        entry = totals.setdefault(node.name, [0, 0, 0])
        entry[0] += node.calls
        if not nested_in_same_name(node):
            entry[1] += node.incl_ns
        entry[2] += self_ns[node.id]
    return {name: SpanStats(*entry) for name, entry in totals.items()}


def self_times_ns(nodes: List[Node]) -> Dict[int, int]:
    """Self time of every node, keyed by node id."""
    child_ns: Dict[int, int] = {}
    for node in nodes:
        if node.parent is not None:
            child_ns[node.parent] = child_ns.get(node.parent, 0) + node.incl_ns
    return {node.id: node.incl_ns - child_ns.get(node.id, 0) for node in nodes}
