"""Traced mode: spans around each layer's public entry points.

The program is not changed.  :class:`Tracer` replaces the entry points
named in :data:`ENTRY_POINTS` with timing wrappers for the duration of
one lifecycle and puts the originals back afterwards.  Functions are
patched in every ``repro`` module that binds them, so callers that did
``from repro.parsing.lcs import token_similarity`` are seen too;
methods are patched on their defining class.

Every call records one span (layer, start, end, parent) in flat arrays
kept in memory and written out once the run ends.  A layer's self time
is its spans' duration minus the part their child spans cover; its
``calls`` count entries into the layer from outside it, so a layer
function calling another of the same layer counts once.  The
benchmark's own phases are spans of the ``bench`` layer, whose self
time is the share of the lifecycle no layer accounts for.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

#: Layer -> (module, qualified name) of each wrapped public entry point.
ENTRY_POINTS: dict[str, tuple[tuple[str, str], ...]] = {
    "framework": (
        ("repro.framework", "MintFramework.__init__"),
        ("repro.framework", "MintFramework.warm_up"),
        ("repro.framework", "MintFramework.process_trace"),
        ("repro.framework", "MintFramework.finalize"),
        ("repro.framework", "MintFramework.query"),
        ("repro.framework", "MintFramework.query_many"),
        ("repro.framework", "MintFramework.execute"),
    ),
    "parsing.learn": (
        ("repro.parsing.span_parser", "SpanParser.warm_up"),
        ("repro.parsing.attribute_parser", "StringAttributeParser.warm_up"),
        ("repro.parsing.attribute_parser", "NumericAttributeParser.warm_up"),
        ("repro.parsing.clustering", "cluster_strings"),
    ),
    "parsing.lcs": (
        ("repro.parsing.lcs", "lcs_tokens"),
        ("repro.parsing.lcs", "token_similarity"),
        ("repro.parsing.lcs", "lcs_length"),
    ),
    "parsing.span_parse": (("repro.parsing.span_parser", "SpanParser.parse"),),
    "parsing.attr_parse": (
        ("repro.parsing.attribute_parser", "StringAttributeParser.parse"),
        ("repro.parsing.attribute_parser", "NumericAttributeParser.parse"),
    ),
    "parsing.topo_extract": (("repro.parsing.trace_parser", "extract_topo_pattern"),),
    "agent.topo_mount": (
        ("repro.agent.pattern_library", "MountedTopoLibrary.register_and_mount"),
    ),
    "agent.params_buffer": (
        ("repro.agent.params_buffer", "ParamsBuffer.add"),
        ("repro.agent.params_buffer", "ParamsBuffer.pop"),
    ),
    "agent.sample": (
        ("repro.agent.samplers", "SymptomSampler.observe"),
        ("repro.agent.samplers", "EdgeCaseSampler.observe"),
    ),
    "agent.ingest": (("repro.agent.agent", "MintAgent.ingest"),),
    "agent.collector": (
        ("repro.agent.collector", "MintCollector.process"),
        ("repro.agent.collector", "MintCollector.mark_sampled"),
        ("repro.agent.collector", "MintCollector.flush"),
    ),
    "transport.deliver": (
        ("repro.transport.transport", "LocalTransport.deliver"),
        ("repro.net.transport", "NetTransport.deliver"),
    ),
    "transport.notify": (("repro.transport.plane", "BackendPlane.notify_sampled"),),
    "transport.sync_storage": (
        ("repro.transport.transport", "LocalTransport.sync_storage"),
        ("repro.net.transport", "NetTransport.sync_storage"),
    ),
    "net.drain": (("repro.net.transport", "NetTransport.drain"),),
    "backend.commit": (("repro.transport.plane", "BackendPlane.receive"),),
    "query.plan": (("repro.query.planner", "QueryPlanner.plan"),),
    "query.reconstruct": (("repro.backend.querier", "Querier.query"),),
    # Batch and predicate plans do their Bloom pre-screen lazily, while
    # the cursor is drained: without this layer that work would show as
    # unattributed.
    "query.cursor": (
        ("repro.query.cursor", "QueryCursor.all"),
        ("repro.query.cursor", "QueryCursor.one"),
        ("repro.query.cursor", "QueryCursor.__next__"),
    ),
}

#: The benchmark's own phases; their self time is the unattributed time.
BENCH_LAYER = "bench"

#: Instances whose public counters the per-layer table reads.
INSTANCE_CLASSES = (
    ("repro.agent.params_buffer", "ParamsBuffer"),
    ("repro.parsing.attribute_parser", "StringAttributeParser"),
)


class Tracer:
    """Span recorder and per-layer self-time accounting."""

    def __init__(self) -> None:
        self.layers: list[str] = [BENCH_LAYER, *ENTRY_POINTS]
        self._layer_index = {name: i for i, name in enumerate(self.layers)}
        self.self_s = [0.0] * len(self.layers)
        self.layer_calls = [0] * len(self.layers)
        self.entry_calls: dict[str, int] = {}
        self.plan_candidates = 0
        self.instances: dict[str, list[Any]] = {cls: [] for _, cls in INSTANCE_CLASSES}
        # One span per row: layer index, parent row (-1 for a root),
        # start and end in perf_counter seconds.
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # Open spans: [layer index, child time so far, row].
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []
        self._functions: dict[Callable, Callable] = {}
        self._phase_names: dict[int, str] = {}

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _enter(self, layer: int) -> list:
        stack = self._stack
        parent = stack[-1] if stack else None
        row = len(self.span_layer)
        self.span_layer.append(layer)
        self.span_parent.append(parent[2] if parent is not None else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        if parent is None or parent[0] != layer:
            self.layer_calls[layer] += 1
        frame = [layer, 0.0, row]
        stack.append(frame)
        return frame

    def _exit(self, frame: list, start: float, end: float) -> None:
        stack = self._stack
        stack.pop()
        duration = end - start
        self.self_s[frame[0]] += duration - frame[1]
        if stack:
            stack[-1][1] += duration
        row = frame[2]
        self.span_start[row] = start
        self.span_end[row] = end

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """A span of the benchmark's own layer around one phase."""
        frame = self._enter(self._layer_index[BENCH_LAYER])
        self._phase_names[frame[2]] = name
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(frame, start, perf_counter())

    def _wrap(self, layer_name: str, key: str, fn: Callable) -> Callable:
        layer = self._layer_index[layer_name]
        enter = self._enter
        exit_ = self._exit
        calls = self.entry_calls
        calls.setdefault(key, 0)
        counts_candidates = key == "QueryPlanner.plan"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(layer)
            calls[key] += 1
            if counts_candidates:
                self.plan_candidates += len(args[1].trace_ids)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame, start, perf_counter())

        return wrapper

    # ------------------------------------------------------------------
    # Installing and removing the wrappers
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point; call :meth:`uninstall` to undo."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for layer, entries in ENTRY_POINTS.items():
            for module_name, qualname in entries:
                module = importlib.import_module(module_name)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, self._wrap(layer, qualname, original))
                else:
                    original = getattr(module, qualname)
                    wrapper = self._wrap(layer, qualname, original)
                    self._functions[wrapper] = original
                    for bound in _modules_binding(original):
                        for attr, value in list(vars(bound).items()):
                            if value is original:
                                self._patch(bound, attr, wrapper)
        for module_name, cls_name in INSTANCE_CLASSES:
            owner = getattr(importlib.import_module(module_name), cls_name)
            self._patch(owner, "__init__", self._register(cls_name, owner.__init__))

    def _register(self, cls_name: str, init: Callable) -> Callable:
        instances = self.instances[cls_name]

        @functools.wraps(init)
        def wrapper(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            instances.append(obj)

        return wrapper

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every original back, in reverse order of patching."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        # A module first imported while the wrappers were installed bound
        # a wrapper itself; point it back at the original too.
        for wrapper, original in self._functions.items():
            for module in _modules_binding(wrapper):
                for attr, value in list(vars(module).items()):
                    if value is wrapper:
                        setattr(module, attr, original)
        self._functions.clear()

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def layer_self_s(self) -> dict[str, float]:
        return dict(zip(self.layers, self.self_s))

    def layer_call_counts(self) -> dict[str, int]:
        return dict(zip(self.layers, self.layer_calls))

    def root_seconds(self) -> float:
        """Total duration of the root spans (the traced lifecycles)."""
        return sum(
            end - start
            for parent, start, end in zip(self.span_parent, self.span_start, self.span_end)
            if parent == -1
        )

    def write(self, path: Path) -> None:
        """Write every span as gzip'd tab-separated rows."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\tlayer\tstart_s\tend_s\n")
            layers = self.layers
            phases = self._phase_names
            for row, (layer, parent, start, end) in enumerate(
                zip(self.span_layer, self.span_parent, self.span_start, self.span_end)
            ):
                name = f"{BENCH_LAYER}.{phases[row]}" if row in phases else layers[layer]
                out.write(f"{row}\t{parent}\t{name}\t{start - t0:.9f}\t{end - t0:.9f}\n")


def _modules_binding(fn: Callable) -> list[object]:
    """Every loaded ``repro`` module with a global bound to ``fn``."""
    return [
        module
        for name, module in list(sys.modules.items())
        if (name == "repro" or name.startswith("repro."))
        and module is not None
        and any(value is fn for value in vars(module).values())
    ]
