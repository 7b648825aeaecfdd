"""Per-layer spans around calls into dinitz, recorded from outside the program.

``Tracer.install`` swaps selected module and class attributes of the
``dinitz`` package for wrappers that record one span per call: its name,
start and end (``perf_counter_ns``), the span that was open when it began,
and the request it belongs to.  ``uninstall`` puts the originals back, so
untraced solves in the same process run the unmodified code.  Spans stay
in memory until the run ends; ``per_layer`` turns them into self times
and counts.

This module must not import dinitz at import time: the worker times
``import dinitz`` as part of set-up.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import NamedTuple

# Every module whose namespace may hold an alias of a traced function
# (``from .galvin import solve_dinitz`` binds a second name).
MODULES = (
    "dinitz",
    "dinitz.cli",
    "dinitz.galvin",
    "dinitz.matching",
    "dinitz.kernel",
    "dinitz.digraph",
)

# (module, attribute path, span name).  A dotted path wraps a method,
# classmethod or cached property on a class, or a function of a module
# the package imported (``json.load`` as seen by the cli).
TARGETS = (
    ("dinitz.cli", "main", "cli.main"),
    ("dinitz.cli", "json.load", "cli.json_load"),
    ("dinitz.cli", "json.dump", "cli.json_dump"),
    ("dinitz.galvin", "DinitzInstance.from_labels", "galvin.intern"),
    ("dinitz.galvin", "DinitzInstance.intern_grid", "galvin.intern_grid"),
    ("dinitz.galvin", "DinitzInstance.label_grid", "galvin.label"),
    ("dinitz.galvin", "solve_dinitz", "galvin.solve"),
    ("dinitz.galvin", "build_square_orientation", "galvin.orient"),
    ("dinitz.galvin", "list_color_with_kernels", "galvin.loop"),
    ("dinitz.galvin", "square_kernel_oracle", "galvin.oracle"),
    ("dinitz.galvin", "verify_generalized_latin", "galvin.verify"),
    ("dinitz.matching", "PreferenceProfile.__init__", "matching.profile"),
    ("dinitz.matching", "deferred_acceptance", "matching.da"),
    ("dinitz.kernel", "is_kernel", "kernel.is_kernel"),
    ("dinitz.digraph", "Digraph.out_masks", "digraph.masks"),
    ("dinitz.digraph", "Digraph.adj_masks", "digraph.masks"),
)

# metric -> (span name, statistic); "incl" is wall time including child
# spans, "self" excludes them, "calls" counts spans, "size" sums the
# candidate-set sizes passed to the oracle.
SPAN_METRICS = {
    "cli.json_load_s": ("cli.json_load", "incl"),
    "cli.json_dump_s": ("cli.json_dump", "incl"),
    "cli.self_s": ("cli.main", "self"),
    "galvin.intern_s": ("galvin.intern", "incl"),
    "galvin.intern_grid_s": ("galvin.intern_grid", "incl"),
    "galvin.label_s": ("galvin.label", "incl"),
    "galvin.solve_self_s": ("galvin.solve", "self"),
    "galvin.orient_s": ("galvin.orient", "incl"),
    "galvin.loop_self_s": ("galvin.loop", "self"),
    "galvin.oracle_self_s": ("galvin.oracle", "self"),
    "galvin.verify_s": ("galvin.verify", "incl"),
    "galvin.passes": ("galvin.oracle", "calls"),
    "galvin.candidates": ("galvin.oracle", "size"),
    "matching.profile_s": ("matching.profile", "incl"),
    "matching.da_s": ("matching.da", "incl"),
    "matching.da_calls": ("matching.da", "calls"),
    "kernel.is_kernel_s": ("kernel.is_kernel", "self"),
    "kernel.is_kernel_calls": ("kernel.is_kernel", "calls"),
    "digraph.masks_s": ("digraph.masks", "incl"),
}

# Counts that must repeat exactly for every traced solve of one instance.
COUNTS = ("galvin.passes", "galvin.candidates", "matching.da_calls", "kernel.is_kernel_calls")


class Span(NamedTuple):
    sid: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    request: int
    size: int


def graph_bytes(g) -> int:
    """Computed size of a digraph's successor sets and cached bitmasks."""
    total = sys.getsizeof(g.succ) + sum(sys.getsizeof(s) for s in g.succ)
    for attr in ("out_masks", "adj_masks"):
        masks = g.__dict__.get(attr)
        if masks is not None:
            total += sys.getsizeof(masks) + sum(sys.getsizeof(m) for m in masks)
    return total


class Tracer:
    """Records spans for calls made while installed."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.request = 0
        self.graph_bytes: dict[int, int] = {}
        self._stack: list[int] = []
        self._graphs: list = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        is_oracle, is_orient = name == "galvin.oracle", name == "galvin.orient"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                size = len(args[1]) if is_oracle else 0
                spans[sid] = Span(sid, name, start, end, parent, self.request, size)
            if is_orient:
                self._graphs.append(result)
            return result

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every target and every module-level alias of it."""
        modules = [importlib.import_module(m) for m in MODULES]
        for module_name, path, name in TARGETS:
            *owner_path, attr = path.split(".")
            owner = importlib.import_module(module_name)
            for part in owner_path:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                self._patch(owner, attr, classmethod(self._wrap(raw.__func__, name)))
            elif isinstance(raw, functools.cached_property):
                prop = functools.cached_property(self._wrap(raw.func, name))
                prop.__set_name__(owner, attr)
                self._patch(owner, attr, prop)
            else:
                wrapped = self._wrap(raw, name)
                self._patch(owner, attr, wrapped)
                for module in modules:
                    for alias, value in list(vars(module).items()):
                        if value is raw:
                            self._patch(module, alias, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def end_request(self) -> None:
        """Record the computed size of the graphs this request oriented."""
        self.graph_bytes[self.request] = sum(graph_bytes(g) for g in self._graphs)
        self._graphs.clear()

    def dump(self) -> dict:
        return {
            "spans": [list(s) for s in self.spans if s is not None],
            "graph_bytes": self.graph_bytes,
        }


def load_spans(doc: dict, request: int, first_sid: int) -> list[Span]:
    """Spans from a dump of one single-request process, renumbered to follow
    ``first_sid`` and assigned to ``request``."""
    out = []
    for sid, name, start, end, parent, _request, size in doc["spans"]:
        out.append(
            Span(
                sid + first_sid,
                name,
                start,
                end,
                None if parent is None else parent + first_sid,
                request,
                size,
            )
        )
    return out


def per_layer(spans: list[Span], graph_bytes: dict[int, int], n: int) -> dict[int, dict]:
    """Per-request layer metrics: self times, inclusive times and counts."""
    child_ns: dict[int, int] = {}
    for s in spans:
        if s.parent is not None:
            child_ns[s.parent] = child_ns.get(s.parent, 0) + s.end_ns - s.start_ns
    stats: dict[int, dict[str, dict[str, float]]] = {}
    for s in spans:
        by_name = stats.setdefault(s.request, {})
        entry = by_name.setdefault(s.name, {"incl": 0.0, "self": 0.0, "calls": 0, "size": 0})
        dur = s.end_ns - s.start_ns
        entry["incl"] += dur / 1e9
        entry["self"] += (dur - child_ns.get(s.sid, 0)) / 1e9
        entry["calls"] += 1
        entry["size"] += s.size
    out = {}
    for request, by_name in stats.items():
        metrics = {}
        for metric, (name, stat) in SPAN_METRICS.items():
            metrics[metric] = by_name.get(name, {}).get(stat, 0)
        cand = metrics["galvin.candidates"]
        metrics["galvin.kernel_yield"] = n * n / cand if cand else 0.0
        metrics["digraph.graph_mb"] = graph_bytes.get(request, 0) / 2**20
        out[request] = metrics
    return out
