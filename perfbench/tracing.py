"""The traced run: spans per layer, with self time next to inclusive time.

The library already emits spans at most layer boundaries (``query.*``,
``serve.request``, ``plan.*``/``op.*``, ``ctable.execute``,
``backend.*``, ``world.evaluate``, ``prob.*``).  Where it emits none, the
benchmark wraps the layer's public function from here, for the traced
run only (:class:`LayerHooks`): world generation
(``repro.semantics.worlds``) and the condition kernel's public
constructors (``ConditionKernel.intern``/``and_``/...).  Both are called
thousands of times per op, so they add timed *slices* to the enclosing
span instead of spans of their own.

:class:`LayerSink` is the tracer's sink.  It keeps every span's name,
parent and duration folded into per-layer totals as spans end (children
always end before their parents), plus the first :data:`KEPT_SPANS`
spans themselves, which are written out once when the run ends.
"""

from __future__ import annotations

import json
import math
import threading
import time
from typing import Any, Dict, Iterator, List

from repro.backends.sqlite import SQLiteBackend
from repro.datamodel import ConditionKernel
from repro.obs import current_span, current_tracer
from repro.semantics import certain as certain_module
from repro.semantics import count_cwa_worlds, default_domain

#: Spans kept verbatim for the trace file; later ones are only aggregated.
KEPT_SPANS = 20_000

#: Span-name prefix -> layer (the repository's module names).
LAYER_OF_PREFIX = {
    "bench": "bench",
    "serve": "serve",
    "query": "session",
    "degrade": "session",
    "plan": "engine",
    "op": "engine",
    "ctable": "engine",
    "backend": "backends",
    "retry": "backends",
    "world": "semantics",
    "enumerate": "semantics",
    "kernel": "datamodel",
    "prob": "prob",
}

LAYERS = ("serve", "session", "engine", "backends", "semantics", "datamodel", "prob")

#: ConditionKernel methods that build or intern conditions.
KERNEL_METHODS = ("intern", "eq", "not_", "and_", "or_", "conjunction", "disjunction", "row_equality")


def layer_of(name: str) -> str:
    return LAYER_OF_PREFIX.get(name.split(".", 1)[0], "other")


class LayerSink:
    """Aggregate each op's span tree into per-name and per-layer totals.

    Spans are held until their root (a ``bench.*`` span, which ends last)
    arrives; the tree is then folded bottom-up, because spans recorded
    after the fact (``op.*``) reach the sink parent-first.  For a span
    ``s`` of layer ``L``: its self time is its duration minus its
    children's durations; its subtree's *inclusive* time for layer ``L``
    is ``s``'s duration, and for any other layer the sum over its
    children's subtrees.  Summing subtree inclusive times at the roots
    counts each layer's outermost spans once, however deeply they nest.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pending: Dict[int, List[Any]] = {}  # parent span id -> child spans
        self._slices: Dict[int, Dict[str, List[float]]] = {}  # span id -> {name: [count, seconds]}
        self.by_name: Dict[str, List[float]] = {}  # name -> [count, seconds, self seconds]
        self.self_by_layer: Dict[str, float] = {}
        self.incl_by_layer: Dict[str, float] = {}
        self.memo_hits = 0
        self.roots: Dict[str, List[float]] = {}  # root name -> [count, seconds]
        #: Per root name: seconds inside its outermost session entry spans.
        self.root_session: Dict[str, float] = {}
        self.kept: List[Dict[str, Any]] = []
        self.dropped = 0

    def emit(self, span: Any) -> None:
        with self._lock:
            if span.parent_id is not None:
                self._pending.setdefault(span.parent_id, []).append(span)
                return
            incl = self._fold(span)
            root = self.roots.setdefault(span.name, [0, 0.0])
            root[0] += 1
            root[1] += span.duration
            self.root_session[span.name] = self.root_session.get(span.name, 0.0) + incl.get("session", 0.0)
            for layer, seconds in incl.items():
                self.incl_by_layer[layer] = self.incl_by_layer.get(layer, 0.0) + seconds

    def add_slice(self, parent_id: int, name: str, seconds: float) -> None:
        """Time spent in a hooked call directly under span ``parent_id``.

        Hooks on functions called thousands of times per op add a slice
        instead of a span: a span per call would cost more than the call.
        """
        with self._lock:
            slices = self._slices.setdefault(parent_id, {})
            entry = slices.get(name)
            if entry is None:
                slices[name] = [1, seconds]
            else:
                entry[0] += 1
                entry[1] += seconds

    def _account(self, name: str, count: int, seconds: float, own: float) -> str:
        layer = layer_of(name)
        entry = self.by_name.get(name)
        if entry is None:
            entry = self.by_name[name] = [0, 0.0, 0.0]
        entry[0] += count
        entry[1] += seconds
        entry[2] += own
        self.self_by_layer[layer] = self.self_by_layer.get(layer, 0.0) + own
        return layer

    def _fold(self, span: Any) -> Dict[str, float]:
        """Account ``span`` and its subtree; return the subtree's inclusive times."""
        incl: Dict[str, float] = {}
        child_seconds = 0.0
        for child in self._pending.pop(span.span_id, ()):
            child_seconds += child.duration
            for layer, seconds in self._fold(child).items():
                incl[layer] = incl.get(layer, 0.0) + seconds
        for name, (count, seconds) in self._slices.pop(span.span_id, {}).items():
            child_seconds += seconds
            layer = self._account(name, count, seconds, seconds)
            incl[layer] = incl.get(layer, 0.0) + seconds
        name = span.name
        layer = self._account(name, 1, span.duration, max(0.0, span.duration - child_seconds))
        incl[layer] = span.duration
        if name == "prob.confidence":
            self.memo_hits += span.attrs.get("memo_hits", 0)
        if len(self.kept) < KEPT_SPANS:
            self.kept.append(span.to_dict())
        else:
            self.dropped += 1
        return incl

    @property
    def orphans(self) -> int:
        """Spans whose root never arrived (not part of any measured op)."""
        return sum(len(children) for children in self._pending.values())

    def count(self, name: str) -> float:
        entry = self.by_name.get(name)
        return entry[0] if entry else 0

    def seconds(self, *names: str) -> float:
        return sum(self.by_name[name][1] for name in names if name in self.by_name)

    def write(self, path: str) -> None:
        """Write the kept spans as JSON lines, once, at the end of the run."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.kept:
                handle.write(json.dumps(record, default=repr) + "\n")


class WorldTally:
    """Worlds generated vs valuations enumerated, across traced ops."""

    def __init__(self) -> None:
        self.distinct = 0
        self.valuations = 0


class LayerHooks:
    """Install the benchmark's own timing where the library has none.

    Used as a context manager around the traced part of a run; every
    patched attribute is restored on exit.
    """

    def __init__(self) -> None:
        self.worlds = WorldTally()
        self.loaded_rows = 0
        self._saved: List[Any] = []

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._saved.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def __enter__(self) -> "LayerHooks":
        self._patch(certain_module, "worlds", self._traced_worlds(certain_module.worlds))
        self._patch(SQLiteBackend, "replace_database", self._counted_replace(SQLiteBackend.replace_database))
        for method in KERNEL_METHODS:
            self._patch(ConditionKernel, method, _sliced("kernel", getattr(ConditionKernel, method)))
        return self

    def __exit__(self, *exc_info: Any) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def _traced_worlds(self, original: Any) -> Any:
        hooks = self

        def worlds(database, semantics="cwa", domain=None, extra_constants=None, max_extra_facts=1):
            tally = hooks.worlds
            resolved = domain if domain is not None else default_domain(database, extra_constants=extra_constants)
            candidates = count_cwa_worlds(database, resolved)
            if semantics == "owa":
                pool = sum(len(resolved) ** relation.arity for relation in database.schema)
                candidates *= sum(math.comb(pool, k) for k in range(max_extra_facts + 1))
            tally.valuations += candidates
            inner = original(database, semantics, resolved, extra_constants, max_extra_facts)
            return _timed_generation(inner, tally)

        return worlds

    def _counted_replace(self, original: Any) -> Any:
        hooks = self

        def replace_database(backend, database, *args, **kwargs):
            hooks.loaded_rows += len(database)
            return original(backend, database, *args, **kwargs)

        return replace_database


def _timed_generation(inner: Iterator[Any], tally: WorldTally) -> Iterator[Any]:
    """Yield ``inner``'s worlds, adding the time to produce each one as a slice."""
    tracer = current_tracer()
    parent = current_span()
    add = tracer.sink.add_slice if tracer is not None and parent is not None else None
    while True:
        started = time.perf_counter()
        try:
            world = next(inner)
        except StopIteration:
            if add is not None:
                add(parent.span_id, "world.generate", time.perf_counter() - started)
            return
        if add is not None:
            add(parent.span_id, "world.generate", time.perf_counter() - started)
        tally.distinct += 1
        yield world


_IN_HOOK = threading.local()


def _sliced(name: str, original: Any) -> Any:
    """Wrap a method so its outermost calls add a slice to the current span."""

    def method(self, *args, **kwargs):
        tracer = current_tracer()
        parent = current_span()
        if tracer is None or parent is None or getattr(_IN_HOOK, "active", False):
            return original(self, *args, **kwargs)
        _IN_HOOK.active = True
        started = time.perf_counter()
        try:
            return original(self, *args, **kwargs)
        finally:
            tracer.sink.add_slice(parent.span_id, name, time.perf_counter() - started)
            _IN_HOOK.active = False

    method.__name__ = original.__name__
    method.__doc__ = original.__doc__
    return method


def counter_delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {name: value - before.get(name, 0) for name, value in after.items()}


def per_layer_metrics(
    sink: LayerSink,
    hooks: LayerHooks,
    counters: Dict[str, float],
    kernel: Dict[str, int],
    setup_sink: LayerSink,
    ops: int,
    reads: int,
    writes: int,
    untraced_throughput: float,
    traced_throughput: float,
) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric of the traced window, with its unit.

    Times are milliseconds per op of the window unless the name says
    otherwise; a layer the workload never reaches reads 0.
    """

    def per(value: float, count: int) -> float:
        return value / count if count else 0.0

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    ms = 1000.0
    metrics: Dict[str, Any] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (per(sink.self_by_layer.get(layer, 0.0), ops) * ms, "ms")
        metrics[f"{layer}.incl_ms"] = (per(sink.incl_by_layer.get(layer, 0.0), ops) * ms, "ms")

    read_root = sink.roots.get("bench.read", [0, 0.0])
    metrics["serve.queue_wait_ms"] = (
        per(counters.get("serve.queue_wait.sum", 0.0), int(counters.get("serve.queue_wait.count", 0))) * ms, "ms"
    )
    metrics["serve.overhead_ms"] = (
        per(read_root[1] - sink.root_session.get("bench.read", 0.0), int(read_root[0])) * ms
        if sink.count("serve.request") else 0.0,
        "ms",
    )
    metrics["engine.compile_ms"] = (setup_sink.seconds("plan.compile") * ms, "ms")
    metrics["engine.execute_ms"] = (per(sink.seconds("plan.execute"), ops) * ms, "ms")
    hits = counters.get("plan_cache.hits", 0)
    metrics["engine.plan_cache_hit_ratio"] = (ratio(hits, hits + counters.get("plan_cache.misses", 0)), "ratio")
    metrics["engine.ctable_execute_ms"] = (per(sink.seconds("ctable.execute"), ops) * ms, "ms")

    load_seconds = sink.seconds("backend.replace_database")
    metrics["backends.load_ms"] = (per(load_seconds, writes) * ms, "ms")
    metrics["backends.load_rows_per_s"] = (ratio(hooks.loaded_rows, load_seconds), "rows/s")
    metrics["backends.evaluate_ms"] = (per(sink.seconds("backend.evaluate"), reads) * ms, "ms")
    fallbacks = sum(v for k, v in counters.items() if k.startswith("backend.fallbacks."))
    evaluations = sink.count("backend.evaluate") + sink.count("backend.cursor.open")
    metrics["backends.fallback_ratio"] = (ratio(fallbacks, evaluations + fallbacks), "ratio")
    metrics["backends.cursor_ms"] = (
        per(sink.seconds("backend.cursor.open", "backend.cursor.batch"), int(sink.count("backend.cursor.open"))) * ms,
        "ms",
    )
    metrics["backends.retries"] = (counters.get("retry.attempts", 0), "count")

    metrics["semantics.worlds_per_op"] = (per(counters.get("worlds.evaluated", 0), ops), "count")
    metrics["semantics.world_eval_ms"] = (per(sink.seconds("world.evaluate"), ops) * ms, "ms")
    metrics["semantics.world_gen_ms"] = (per(sink.seconds("world.generate"), ops) * ms, "ms")
    metrics["semantics.distinct_world_ratio"] = (ratio(hooks.worlds.distinct, hooks.worlds.valuations), "ratio")

    metrics["kernel.interned"] = (kernel.get("interned", 0), "count")
    memo = kernel.get("and_memo", 0) + kernel.get("or_memo", 0) + kernel.get("confidence_memo", 0)
    metrics["kernel.memo_entries"] = (memo, "count")

    decompositions = sum(v for k, v in counters.items() if k.startswith("prob.decompositions."))
    memo_hits = sink.memo_hits
    metrics["prob.confidence_ms"] = (per(sink.seconds("prob.confidence"), ops) * ms, "ms")
    metrics["prob.shannon_expansions"] = (per(counters.get("prob.decompositions.shannon", 0), ops), "count")
    metrics["prob.memo_hit_ratio"] = (ratio(memo_hits, memo_hits + decompositions), "ratio")

    metrics["obs.trace_overhead_ratio"] = (ratio(untraced_throughput, traced_throughput), "ratio")
    root_seconds = sum(seconds for _, seconds in sink.roots.values())
    metrics["obs.span_coverage"] = (ratio(root_seconds - sink.self_by_layer.get("bench", 0.0), root_seconds), "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
