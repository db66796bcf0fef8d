"""Outside-in layer tracing for the benchmark harness.

The harness times the library from the outside: :class:`Tracer` patches
timing wrappers onto public callables (:data:`TARGETS`) for the length of
one traced phase and restores the originals afterwards.  Nothing inside
``src/`` knows it is being traced.

Two kinds of wrapper exist:

* **spans** -- coarse calls (a dictionary build, a plan pass, an analysis)
  record a span each: name, layer, start, end and parent span;
* **accumulators** -- per-row, per-batch and iterator ``__next__`` calls
  only add to a (calls, busy, self) triple per callable, so a stream of a
  hundred thousand elems costs a few float additions per call instead of
  a span each.  A span's trace event carries the accumulator deltas that
  happened while it was open.

Every wrapper keeps the self time of its frame (duration minus the time
its traced children took), so layer self times add up to the traced wall
time minus what no wrapper covered.  Forked worker processes inherit the
wrappers, but what they record stays in the child and is lost.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from dataclasses import dataclass
from typing import Callable

__all__ = ["LAYER_OF", "TARGETS", "Target", "Tracer"]

#: Wrapper kinds.
SPAN = "span"
CALL = "call"
ITER = "iter"


@dataclass(frozen=True)
class Target:
    """Public callables of one class (or module, when ``owner`` is empty).

    ``bytes_of`` names what a call's byte count is taken from -- its
    ``data`` argument or its ``result`` -- and adds it to the tracer's
    ``<layer>.bytes`` count.
    """

    module: str
    owner: str
    attributes: tuple[str, ...]
    layer: str
    kind: str
    bytes_of: str = ""

    def resolve(self):
        module = importlib.import_module(self.module)
        return getattr(module, self.owner) if self.owner else module

    def name(self, attribute: str) -> str:
        return f"{self.owner or self.module.rsplit('.', 1)[-1]}.{attribute}"


_STREAM_ITERATORS = (
    "rib_elems", "update_stream", "all_elems", "rib_specs", "update_specs", "row_specs",
    "batches",
)

#: Every callable the tracer patches, grouped into the harness's layers.
TARGETS: tuple[Target, ...] = (
    Target("repro.workload.simulation", "ScenarioSimulator", ("generate",),
           "workload.generate", SPAN),
    Target("repro.mrt.writer", "", ("write_rib", "write_updates"), "mrt.encode", SPAN,
           bytes_of="result"),
    Target("repro.mrt.reader", "MrtReader", ("messages", "row_specs"), "mrt.decode", ITER,
           bytes_of="data"),
    Target("repro.stream.merger", "BgpStream",
           ("elems", "rib_elems", "updates", "row_specs", "batches"), "stream", ITER),
    Target("repro.stream.source", "CollectorSource", _STREAM_ITERATORS, "stream", ITER),
    Target("repro.stream.source", "MrtSource", _STREAM_ITERATORS, "stream", ITER),
    Target("repro.core.inference", "BlackholingInferenceEngine", ("run", "finalise"),
           "core.engine", SPAN),
    Target("repro.core.inference", "BlackholingInferenceEngine",
           ("process", "process_batch"), "core.engine", CALL),
    Target("repro.core.cleaning", "BgpCleaner",
           ("accept", "accept_batch", "verdict_column"), "core.cleaning", CALL),
    Target("repro.core.grouping", "GroupingAccumulator", ("add", "add_all", "merge"),
           "core.grouping", CALL),
    Target("repro.core.grouping", "GroupingAccumulator", ("events",), "core.grouping", SPAN),
    Target("repro.core.report", "InferenceReport",
           ("__init__", "for_project", "projects", "providers", "users", "prefixes",
            "ipv4_prefixes", "host_route_fraction", "unique_providers_per_project",
            "unique_users_per_project", "unique_prefixes_per_project",
            "direct_feed_fraction", "prefixes_per_provider", "prefixes_per_user",
            "detection_method_counts", "as_distance_histogram", "bundled_fraction",
            "daily_activity", "by_provider_type"), "core.report", SPAN),
    Target("repro.dictionary.builder", "DictionaryBuilder",
           ("build", "build_non_blackhole_dictionary"), "dictionary.build", SPAN),
    Target("repro.dictionary.inference", "CommunityUsageStats", ("observe", "observe_batch"),
           "dictionary.usage_stats", CALL),
    Target("repro.dictionary.inference", "CommunityUsageStats", ("observe_stream", "merge"),
           "dictionary.usage_stats", SPAN),
    Target("repro.dictionary.inference", "ExtendedDictionaryInference", ("as_dictionary",),
           "dictionary.infer", SPAN),
    Target("repro.exec.plan", "ExecutionPlan",
           ("run_usage_stats", "run_inference", "run_inference_many"), "exec.plan", SPAN),
    Target("repro.exec.store", "DiskStore", ("lookup",), "exec.store_read", SPAN),
    Target("repro.exec.campaign", "StudyCampaign", ("run", "run_distributed"),
           "exec.campaign", SPAN),
    # Analysis spans are named after the analysis they run (analysis.table3).
    Target("repro.analysis.registry", "Analysis", ("run",), "analysis", SPAN),
    Target("repro.analysis.registry", "AnalysisResult", ("to_dict",), "analysis.to_dict", SPAN),
)

#: Layer of every accumulator name the patched callables record.
LAYER_OF: dict[str, str] = {
    target.name(attribute): target.layer
    for target in TARGETS
    for attribute in target.attributes
}


class _Frame:
    """One open traced call: the time its traced children took."""

    __slots__ = ("child", "layer")

    def __init__(self, layer: str) -> None:
        self.child = 0.0
        self.layer = layer


class _TracedIterator:
    """An iterator whose every ``__next__`` is timed into an accumulator."""

    __slots__ = ("_inner", "_timed", "_stack", "_entry", "_layer")

    def __init__(self, inner, timed: Callable, stack: list, entry: list, layer: str) -> None:
        self._inner = inner
        self._timed = timed
        self._stack = stack
        self._entry = entry
        self._layer = layer

    def __iter__(self):
        return self

    def __next__(self):
        stack = self._stack
        outermost = not stack or stack[-1].layer != self._layer
        item = self._timed(next, self._inner)
        if outermost:
            # Items are counted once, where they leave the layer: a source
            # iterator nested inside a merged-stream iterator yields the
            # same elem the merged stream yields.
            self._entry[3] += 1
        return item


class Tracer:
    """Records spans and accumulators while it is installed.

    Use one tracer per traced phase (set-up, op), as a context manager
    around it; :meth:`span` opens a harness-level span (the phase root) by
    hand.
    """

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.stack: list[_Frame] = []
        #: Closed and open spans, in start order.
        self.spans: list[dict] = []
        #: name -> [calls, busy seconds, self seconds, items that left the layer]
        self.accumulators: dict[str, list] = {}
        #: Byte counts per layer (``mrt.decode.bytes``, ``mrt.encode.bytes``).
        self.counts: dict[str, int] = {}
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Patch every target callable."""
        for target in TARGETS:
            owner = target.resolve()
            for attribute in target.attributes:
                original = vars(owner)[attribute]
                self._saved.append((owner, attribute, original))
                setattr(owner, attribute, self._wrap(target, attribute, original))

    def uninstall(self) -> None:
        """Restore every patched callable to the original object."""
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _count_bytes(self, layer: str, size: int) -> None:
        key = f"{layer}.bytes"
        self.counts[key] = self.counts.get(key, 0) + size

    def _wrap(self, target: Target, attribute: str, original: Callable) -> Callable:
        name = target.name(attribute)
        layer = target.layer
        tracer = self
        if target.kind == SPAN:
            if layer == "analysis":
                def analysis_span(analysis, *args, **kwargs):
                    with tracer.span(f"analysis.{analysis.name}", layer):
                        return original(analysis, *args, **kwargs)
                return analysis_span

            def span(*args, **kwargs):
                with tracer.span(name, layer):
                    result = original(*args, **kwargs)
                if target.bytes_of == "result":
                    tracer._count_bytes(layer, len(result))
                return result
            return span

        entry = self.accumulators.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self.stack
        clock = self.clock

        def timed(function, /, *args, **kwargs):
            frame = _Frame(layer)
            stack.append(frame)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame.child
                if stack:
                    stack[-1].child += duration

        if target.kind == ITER:
            def iterate(*args, **kwargs):
                if target.bytes_of == "data":
                    tracer._count_bytes(layer, len(args[1]))  # (self, data, ...)
                return _TracedIterator(original(*args, **kwargs), timed, stack, entry, layer)
            return iterate

        def call(*args, **kwargs):
            return timed(original, *args, **kwargs)
        return call

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #
    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """A span around a block; ``as`` binds its index in :attr:`spans`."""
        index = len(self.spans)
        record = {"name": name, "layer": layer, "parent": self._open[-1] if self._open else None,
                  "start": 0.0, "end": None, "self": 0.0}
        self.spans.append(record)
        before = {key: (entry[0], entry[1]) for key, entry in self.accumulators.items()}
        self._open.append(index)
        frame = _Frame(layer)
        stack = self.stack
        stack.append(frame)
        record["start"] = start = self.clock()
        try:
            yield index
        finally:
            record["end"] = end = self.clock()
            stack.pop()
            if stack:
                stack[-1].child += end - start
            self._open.pop()
            record["self"] = end - start - frame.child
            record["accumulated"] = {
                key: {"count": entry[0] - before.get(key, (0, 0.0))[0],
                      "busy_s": entry[1] - before.get(key, (0, 0.0))[1]}
                for key, entry in self.accumulators.items()
                if entry[0] > before.get(key, (0, 0.0))[0]
            }

    # ------------------------------------------------------------------ #
    # Read-out
    # ------------------------------------------------------------------ #
    def layer_self(self) -> dict[str, float]:
        """Self seconds per layer, over closed spans and accumulators."""
        totals: dict[str, float] = {}
        for record in self.spans:
            if record["end"] is not None:
                totals[record["layer"]] = totals.get(record["layer"], 0.0) + record["self"]
        for name, entry in self.accumulators.items():
            layer = LAYER_OF[name]
            totals[layer] = totals.get(layer, 0.0) + entry[2]
        return totals

    def span_seconds(self, name: str, inclusive: bool = False) -> float:
        """Summed self (or whole) seconds of the closed spans called ``name``."""
        return sum(
            (record["end"] - record["start"]) if inclusive else record["self"]
            for record in self.spans
            if record["name"] == name and record["end"] is not None
        )

    def items(self, layer: str) -> int:
        """Items that left the layer (see :class:`_TracedIterator`)."""
        return sum(
            entry[3] for name, entry in self.accumulators.items() if LAYER_OF[name] == layer
        )

    def trace_events(self, origin: float, phase: str) -> list[dict]:
        """The closed spans as Chrome Trace Event ``X`` events (µs)."""
        events = []
        for index, record in enumerate(self.spans):
            if record["end"] is None:
                continue
            args = {"layer": record["layer"], "phase": phase, "span": index,
                    "parent": record["parent"], "self_ms": round(record["self"] * 1e3, 3)}
            if record["accumulated"]:
                args["accumulated"] = {
                    name: {"count": value["count"], "busy_ms": round(value["busy_s"] * 1e3, 3)}
                    for name, value in record["accumulated"].items()
                }
            events.append(
                {
                    "name": record["name"],
                    "cat": record["layer"],
                    "ph": "X",
                    "ts": round((record["start"] - origin) * 1e6, 1),
                    "dur": round((record["end"] - record["start"]) * 1e6, 1),
                    "tid": 0,
                    "args": args,
                }
            )
        return events
