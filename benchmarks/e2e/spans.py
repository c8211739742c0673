"""Per-layer spans recorded from outside the program.

A traced repetition wraps the public functions and methods listed in
:data:`LAYERS` before the netlist is loaded, runs the analysis, and
restores every original afterwards.  A wrapped module-level function is
rebound wherever the same object is bound across ``sys.modules``, so
``from module import name`` sites see the wrapper too; methods are
replaced on their class.

Spans live in memory.  Repeated calls of one function under the same
parent span add into one record (``calls``/``total_s``) instead of one
record per call, so per-pair and per-solve hot loops stay cheap.  A
span's self time is its total minus the totals of its children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: Layer name -> ``module:qualname`` targets timed as that layer.
LAYERS: dict[str, tuple[str, ...]] = {
    "bench": ("repro.circuit.bench:load",),
    "topology": (
        "repro.circuit.topology:connected_ff_pairs",
        "repro.circuit.topology:sink_reach",
        "repro.circuit.topology:launch_group_stats",
        "repro.circuit.topology:iter_launch_groups",
    ),
    "timeframe": (
        "repro.circuit.timeframe:expand_cached",
        "repro.circuit.timeframe:expand",
    ),
    "random_filter": (
        "repro.core.random_filter:random_filter",
        "repro.core.random_filter:random_filter_k",
        "repro.core.random_filter:random_filter_packed",
    ),
    "bitsim": ("repro.logic.bitsim:BitSimulator.comb_eval",),
    "session": ("repro.core.session:DecisionSession.decide_group",),
    "packed": (
        "repro.atpg.packed_implication:packed_plan",
        "repro.atpg.packed_implication:PackedImplicationEngine.close_matrix",
        "repro.atpg.packed_implication:PackedImplicationEngine.extend",
    ),
    "justify": ("repro.atpg.justify:justify",),
    "sensitization": ("repro.core.sensitization:find_sensitizable_path",),
    "hazard": ("repro.analysis.hazard_exact:ExactHazardChecker.check_pairs",),
    "sat": ("repro.sat.solver:CdclSolver.solve",),
    "store": (
        "repro.store.artifact_store:ArtifactStore.load",
        "repro.store.artifact_store:ArtifactStore.save",
    ),
    "structhash": (
        "repro.circuit.structhash:launch_cone_hashes",
        "repro.circuit.structhash:capture_cone_hashes",
    ),
    "incremental": ("repro.core.incremental:IncrementalStage.run",),
    "workqueue": (
        "repro.core.workqueue:WorkStealingPool.__init__",
        "repro.core.workqueue:WorkStealingPool.next_result",
        "repro.core.workqueue:WorkStealingPool.worker_summary",
    ),
    "backplane": ("repro.store.backplane:publish",),
}

#: Name of the root span around the timed analysis call; its layer is
#: "pipeline" and its self time is ``pipeline.self_s``.
ANALYZE = "analyze"


class Span:
    """One coalesced span: every call of ``name`` under one parent."""

    __slots__ = ("id", "parent", "name", "layer", "start", "end", "calls",
                 "total", "counters")

    def __init__(self, span_id: int, parent: int | None, name: str,
                 layer: str, start: float) -> None:
        self.id = span_id
        self.parent = parent
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.calls = 0
        self.total = 0.0
        self.counters: dict[str, float] = {}

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount


class Recorder:
    """In-memory span tree of one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.t0 = clock()
        self.spans: list[Span] = []
        #: return values kept whole (e.g. the per-worker queue summary).
        self.captured: dict[str, Any] = {}
        self._index: dict[tuple[int | None, str], Span] = {}
        self._stack: list[Span] = []

    def enter(self, name: str, layer: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = self._index.get((parent, name))
        if span is None:
            span = Span(len(self.spans), parent, name, layer,
                        self.clock() - self.t0)
            self.spans.append(span)
            self._index[(parent, name)] = span
        self._stack.append(span)
        return span

    def leave(self, span: Span, started: float) -> None:
        now = self.clock()
        self._stack.pop()
        span.calls += 1
        span.total += now - started
        span.end = now - self.t0

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[Span]:
        opened = self.enter(name, layer)
        started = self.clock()
        try:
            yield opened
        finally:
            self.leave(opened, started)

    def self_seconds(self) -> dict[int, float]:
        """Self time per span id: total minus the children's totals."""
        own = {span.id: span.total for span in self.spans}
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.total
        return own

    def records(self) -> list[dict[str, Any]]:
        """The spans as JSON-ready dicts, in creation order."""
        own = self.self_seconds()
        return [
            {
                "id": span.id,
                "parent": span.parent,
                "name": span.name,
                "layer": span.layer,
                "start": round(span.start, 6),
                "end": round(span.end, 6),
                "calls": span.calls,
                "total_s": round(span.total, 6),
                "self_s": round(own[span.id], 6),
                **span.counters,
            }
            for span in self.spans
        ]


# ----------------------------------------------------------------------
# Counters read from arguments and return values at the boundary.
# ----------------------------------------------------------------------
def _count_pairs(span: Span, args: tuple, result: Any) -> None:
    span.count("pairs", len(args[1]))


def _count_lanes(span: Span, args: tuple, result: Any) -> None:
    span.count("lanes", len(args[1]))


def _count_filter(span: Span, args: tuple, result: Any) -> None:
    span.count("rounds", result.rounds)
    span.count("dropped", result.dropped)
    initial = getattr(result, "initial", None)
    if initial is None:
        initial = result.dropped + len(result.survivors)
    span.count("initial", initial)


def _count_status(value: str, key: str) -> Callable[[Span, tuple, Any], None]:
    def count(span: Span, args: tuple, result: Any) -> None:
        status = getattr(result, "status", result)
        if getattr(status, "value", None) == value:
            span.count(key)
    return count


def _count_hits(span: Span, args: tuple, result: Any) -> None:
    if result is not None:
        span.count("hits")


def _count_bytes(span: Span, args: tuple, result: Any) -> None:
    span.count("bytes", result.nbytes)


_COUNTERS: dict[str, Callable[[Span, tuple, Any], None]] = {
    "DecisionSession.decide_group": _count_pairs,
    "PackedImplicationEngine.close_matrix": _count_lanes,
    "random_filter": _count_filter,
    "random_filter_k": _count_filter,
    "random_filter_packed": _count_filter,
    "justify": _count_status("aborted", "aborts"),
    "CdclSolver.solve": _count_status("unknown", "unknown"),
    "ArtifactStore.load": _count_hits,
    "publish": _count_bytes,
}

#: Return values kept whole in :attr:`Recorder.captured`, by key.
_CAPTURED: dict[str, str] = {"WorkStealingPool.worker_summary": "per_worker"}


# ----------------------------------------------------------------------
# Wrapping and restoring.
# ----------------------------------------------------------------------
def _wrap(fn: Callable, name: str, layer: str, recorder: Recorder) -> Callable:
    counter = _COUNTERS.get(name)
    capture = _CAPTURED.get(name)
    clock = recorder.clock

    if inspect.isgeneratorfunction(fn):
        # Time each resume of the generator, not the caller's loop body.
        @functools.wraps(fn)
        def generator_wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            iterator = fn(*args, **kwargs)
            while True:
                span = recorder.enter(name, layer)
                started = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    recorder.leave(span, started)
                yield item

        return generator_wrapper

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        span = recorder.enter(name, layer)
        started = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.leave(span, started)
        if counter is not None:
            counter(span, args, result)
        if capture is not None:
            recorder.captured[capture] = result
        return result

    return wrapper


class Installation:
    """Wrappers installed for one traced run; :meth:`restore` undoes them."""

    def __init__(self) -> None:
        #: (owner, attribute, original) in installation order.
        self.patches: list[tuple[Any, str, Any]] = []
        #: id(wrapper) -> (wrapper, original), for the final sys.modules
        #: sweep; holding the wrapper keeps its id from being reused.
        self.originals: dict[int, tuple[Callable, Any]] = {}
        #: targets that could not be resolved, and their layers.
        self.missing: list[str] = []
        self.missing_layers: set[str] = set()

    def restore(self) -> None:
        for owner, attribute, original in reversed(self.patches):
            setattr(owner, attribute, original)
        # Modules imported during the run may have bound a wrapper with
        # ``from … import``; point them back at the original too.
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for key, value in list(namespace.items()):
                entry = self.originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, key, entry[1])
        self.patches.clear()


def _resolve(target: str) -> tuple[Any, str, Any]:
    """``module:Class.method`` / ``module:function`` -> (owner, attr, obj)."""
    module_name, _, qualname = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if inspect.isclass(owner):
        return owner, attribute, owner.__dict__[attribute]
    return owner, attribute, getattr(owner, attribute)


def import_modules(layers: dict[str, tuple[str, ...]] = LAYERS) -> None:
    """Import the module of every target; a missing one is skipped."""
    for targets in layers.values():
        for target in targets:
            try:
                importlib.import_module(target.partition(":")[0])
            except ImportError:
                pass


def install(recorder: Recorder,
            layers: dict[str, tuple[str, ...]] = LAYERS) -> Installation:
    """Wrap every target; a missing one is reported, never fatal."""
    installation = Installation()
    module_level: dict[int, Any] = {}
    for layer, targets in layers.items():
        for target in targets:
            try:
                owner, attribute, original = _resolve(target)
            except (ImportError, AttributeError, KeyError):
                installation.missing.append(target)
                installation.missing_layers.add(layer)
                print(f"warning: trace target {target} not found; "
                      f"layer {layer!r} reports null", file=sys.stderr)
                continue
            name = target.partition(":")[2]
            wrapper = _wrap(original, name, layer, recorder)
            installation.originals[id(wrapper)] = (wrapper, original)
            if inspect.isclass(owner):
                installation.patches.append((owner, attribute, original))
                setattr(owner, attribute, wrapper)
            else:
                module_level[id(original)] = (original, wrapper)
    # Rebind module-level functions wherever the same object is bound.
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for key, value in list(namespace.items()):
            entry = module_level.get(id(value))
            if entry is not None and entry[0] is value:
                installation.patches.append((module, key, value))
                setattr(module, key, entry[1])
    return installation


# ----------------------------------------------------------------------
# Per-layer metrics.
# ----------------------------------------------------------------------
def _within(recorder: Recorder, root: str) -> set[int]:
    """Ids of the spans named ``root`` and of all their descendants."""
    inside: set[int] = set()
    for span in recorder.spans:  # parents are always created first
        if span.name == root or span.parent in inside:
            inside.add(span.id)
    return inside


def layer_totals(recorder: Recorder,
                 root: str | None = None) -> dict[str, dict[str, float]]:
    """Per layer: busy seconds, self seconds, calls and summed counters.

    Busy seconds count only the outermost spans of a layer, so a layer
    function calling another of the same layer is not counted twice.
    With ``root``, only spans under the span of that name count.
    """
    by_id = {span.id: span for span in recorder.spans}
    own = recorder.self_seconds()
    inside = _within(recorder, root) if root is not None else None
    totals: dict[str, dict[str, float]] = {}
    for span in recorder.spans:
        if inside is not None and span.id not in inside:
            continue
        entry = totals.setdefault(span.layer, {"s": 0.0, "self_s": 0.0, "calls": 0})
        entry["self_s"] += own[span.id]
        for key, value in span.counters.items():
            entry[key] = entry.get(key, 0) + value
        ancestor = span.parent
        nested = False
        while ancestor is not None:
            if by_id[ancestor].layer == span.layer:
                nested = True
                break
            ancestor = by_id[ancestor].parent
        if not nested:
            entry["s"] += span.total
            entry["calls"] += span.calls
    return totals


def _span_calls(recorder: Recorder, name: str) -> tuple[float, int]:
    spans = [s for s in recorder.spans if s.name == name]
    return sum(s.total for s in spans), sum(s.calls for s in spans)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(recorder: Recorder, result: Any,
                  missing_layers: set[str]) -> dict[str, float | None]:
    """The per-layer metric values of one traced repetition.

    ``result`` is the run's ``DetectionResult``; counts the program
    already reports there (packed lanes resolved, exact-hazard bounds,
    incremental inheritance, backplane attachment) are read from it.  A
    layer with a missing target reports ``None`` for each of its metrics.
    """
    totals = layer_totals(recorder)

    def layer(name: str) -> dict[str, float]:
        return totals.get(name, {"s": 0.0, "self_s": 0.0, "calls": 0})

    packed_block = getattr(result, "packed_implication", None) or {}
    exact = getattr(result, "hazard_exact", None) or {}
    incremental = getattr(result, "incremental", None) or {}
    backplane = getattr(result, "backplane", None) or {}
    per_worker = recorder.captured.get("per_worker") or []
    busy = [float(row["seconds"]) for row in per_worker]
    spawn_s, _ = _span_calls(recorder, "WorkStealingPool.__init__")
    wait_s, units = _span_calls(recorder, "WorkStealingPool.next_result")
    close_s, closures = _span_calls(
        recorder, "PackedImplicationEngine.close_matrix")
    extend_s, extends = _span_calls(recorder, "PackedImplicationEngine.extend")
    cone_s = sum(_span_calls(recorder, name)[0] for name in (
        "launch_cone_hashes", "capture_cone_hashes"))
    load_s, loads = _span_calls(recorder, "ArtifactStore.load")
    save_s, saves = _span_calls(recorder, "ArtifactStore.save")
    filt = layer("random_filter")
    session = layer("session")
    justify = layer("justify")
    sat = layer("sat")
    store = layer("store")
    packed = layer("packed")

    metrics: dict[str, tuple[str, float]] = {
        "bench.load_s": ("bench", layer("bench")["s"]),
        "topology.s": ("topology", layer("topology")["s"]),
        "topology.pairs": ("topology", float(getattr(result, "connected_pairs", 0))),
        "timeframe.expand_s": ("timeframe", layer("timeframe")["s"]),
        "random_filter.s": ("random_filter", filt["s"]),
        "random_filter.rounds": ("random_filter", filt.get("rounds", 0)),
        "random_filter.drop_ratio": ("random_filter", _ratio(
            filt.get("dropped", 0), filt.get("initial", 0))),
        "bitsim.comb_eval_s": ("bitsim", layer("bitsim")["s"]),
        "bitsim.comb_eval_calls": ("bitsim", layer("bitsim")["calls"]),
        "session.decide_s": ("session", session["s"]),
        "session.self_s": ("session", session["self_s"]),
        "session.groups": ("session", session["calls"]),
        "session.pairs": ("session", session.get("pairs", 0)),
        "packed.close_s": ("packed", close_s + extend_s),
        "packed.closures": ("packed", closures + extends),
        "packed.lanes": ("packed", packed.get("lanes", 0)),
        "packed.resolved_ratio": ("packed", _ratio(
            packed_block.get("resolved", 0), packed_block.get("lanes", 0))),
        "justify.s": ("justify", justify["s"]),
        "justify.calls": ("justify", justify["calls"]),
        "justify.aborts": ("justify", justify.get("aborts", 0)),
        "sensitization.s": ("sensitization", layer("sensitization")["s"]),
        "sensitization.calls": ("sensitization", layer("sensitization")["calls"]),
        "hazard.s": ("hazard", layer("hazard")["s"]),
        "hazard_exact.disagreements": ("hazard", float(exact.get("disagreement", 0))),
        "hazard_exact.resolution_fraction": (
            "hazard", float(exact.get("resolution_fraction", 0.0))),
        "sat.solve_s": ("sat", sat["s"]),
        "sat.solves": ("sat", sat["calls"]),
        "sat.unknown": ("sat", sat.get("unknown", 0)),
        "store.load_s": ("store", load_s),
        "store.loads": ("store", loads),
        "store.hit_ratio": ("store", _ratio(store.get("hits", 0), loads)),
        "store.save_s": ("store", save_s),
        "store.saves": ("store", saves),
        "structhash.cone_hash_s": ("structhash", cone_s),
        "incremental.s": ("incremental", layer("incremental")["s"]),
        "incremental.re_decided": (
            "incremental", float(incremental.get("re_decided", 0))),
        "incremental.re_decide_ratio": ("incremental", _ratio(
            incremental.get("re_decided", 0), incremental.get("survivors", 0))),
        "workqueue.spawn_s": ("workqueue", spawn_s),
        "workqueue.wait_s": ("workqueue", wait_s),
        "workqueue.units": ("workqueue", units),
        "workqueue.worker_busy_s": ("workqueue", sum(busy)),
        "workqueue.imbalance": ("workqueue", _ratio(
            max(busy, default=0.0), sum(busy) / len(busy) if busy else 0.0)),
        "backplane.publish_s": ("backplane", layer("backplane")["s"]),
        "backplane.bytes": ("backplane", layer("backplane").get("bytes", 0)),
        "backplane.attached": ("backplane", float(backplane.get("attached", 0))),
        # The analysis call's own span is the pipeline layer: its self
        # time is what no wrapped layer covers (fold, assembly, emit).
        "pipeline.self_s": ("pipeline", layer("pipeline")["self_s"]),
    }
    return {
        name: (None if layer_name in missing_layers else float(value))
        for name, (layer_name, value) in metrics.items()
    }


def top_self(recorder: Recorder, count: int = 3) -> list[tuple[str, float]]:
    """The ``count`` layers with the most self time inside ``analyze``."""
    totals = layer_totals(recorder, root=ANALYZE)
    rows = sorted(((layer, entry["self_s"]) for layer, entry in totals.items()),
                  key=lambda row: -row[1])
    return [(layer, round(seconds, 6)) for layer, seconds in rows[:count]]
