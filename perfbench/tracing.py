"""Per-layer tracing for the traced benchmark run.

Everything here lives outside the program: :class:`LayerTracer` wraps
the public functions and methods of the ``repro`` modules that make up
each layer, records one span per call (name, start, end, parent span,
unit id) in memory, and turns the spans of a unit into exclusive
(self) seconds per layer.  Nothing is installed unless the benchmark
runs with ``--trace 1``, and :meth:`LayerTracer.uninstall` restores
every patched attribute.

Time spent in a module that is not wrapped (``repro.mr.api``,
``repro.mr.storage``, ``repro.mr.segment``, ``repro.mr.cost``,
``repro.obs.metrics`` ...) is charged to the nearest wrapped caller;
time inside a unit that no wrapped call covers is ``unattributed``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import pkgutil
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable

#: Layer of every span recorded outside the program: the unit itself
#: and the benchmark's own work inside it (output checks, the function
#: the job service runs for a served job).
BENCH = "bench"
UNIT = "unit"

#: Module → layer for modules whose every public callable is one layer.
MODULE_LAYERS = {
    "repro.core.anti_mapper": "anti_mapper",
    "repro.core.anti_reducer": "anti_reducer",
    "repro.core.shared": "shared",
    "repro.mr.buffer": "buffer",
    "repro.mr.merge": "merge",
    "repro.mr.maptask": "maptask",
    "repro.mr.reducetask": "reducetask",
    "repro.mr.shm": "shm",
    "repro.mr.scheduler": "scheduler",
    "repro.mr.engine": "engine",
    "repro.obs.flightrecorder": "obs",
    "repro.obs.run_store": "obs",
    "repro.obs.jobservice": "jobservice",
}

#: ``repro.mr.executor`` splits by method: pool start-up, dispatch,
#: waiting for results (future ``result``/``done`` polls) and shutdown.
#: Constructing an executor is start-up; constructing a future is
#: dispatch.
EXECUTOR_LAYERS = {
    "create_executor": "executor.start",
    "submit": "executor.submit",
    "submit_many": "executor.submit",
    "check_picklable": "executor.submit",
    "result": "executor.wait",
    "outcomes": "executor.wait",
    "done": "executor.wait",
    "close": "executor.close",
    "rebuild": "executor.close",
    "abandon": "executor.close",
}

#: Every layer a span can be charged to, in report order.
LAYERS = (
    "workloads.map_udf",
    "workloads.reduce_udf",
    "workloads.partition_udf",
    "anti_mapper",
    "anti_reducer",
    "shared",
    "serde.encode",
    "serde.decode",
    "buffer",
    "merge",
    "maptask",
    "reducetask",
    "executor.start",
    "executor.submit",
    "executor.wait",
    "executor.close",
    "shm",
    "scheduler",
    "engine",
    "obs",
    "jobservice",
    BENCH,
)


def _executor_layer(name: str, cls: type | None) -> str | None:
    if name == "__init__":
        return "executor.start" if cls.__name__.endswith("Executor") else "executor.submit"
    return EXECUTOR_LAYERS.get(name)


def _serde_layer(name: str) -> str:
    return "serde.decode" if name.startswith(("decode", "read_")) else "serde.encode"


def _workload_layer(cls: type) -> str | None:
    from repro.mr.api import Combiner, Mapper, Partitioner, Reducer

    if issubclass(cls, Mapper):
        return "workloads.map_udf"
    if issubclass(cls, (Reducer, Combiner)):
        return "workloads.reduce_udf"
    if issubclass(cls, Partitioner):
        return "workloads.partition_udf"
    return None


class LayerTracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.on = False
        #: ``(span id, parent id, name, layer, start, end, unit id)``.
        self.spans: list[tuple] = []
        self.unit_id: int | None = None
        self.unit_span: int | None = None
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []
        # Forked pool workers inherit the wrappers but must not record
        # (their spans would be lost with the process); the parent sees
        # worker time as executor waits.
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.on = False

    # -- spans -------------------------------------------------------------
    def begin_unit(self, unit_id: int) -> None:
        self.unit_id = unit_id
        self.unit_span = next(self._ids)
        self._unit_start = self.clock()

    def end_unit(self) -> tuple:
        end = self.clock()
        record = (self.unit_span, None, UNIT, UNIT, self._unit_start, end, self.unit_id)
        self.spans.append(record)
        self.unit_span = None
        return record

    def traced(self, name: str, layer: str, fn: Callable) -> Callable:
        """``fn`` wrapped so each call (or generator resumption) is a span."""
        spans_append = self.spans.append
        clock = self.clock
        next_id = self._ids.__next__
        local = self._local
        tracer = self

        def enter() -> list[int]:
            try:
                return local.stack
            except AttributeError:
                local.stack = []
                return local.stack

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        if not tracer.on:
                            item = next(gen)
                        else:
                            stack = enter()
                            sid = next_id()
                            stack.append(sid)
                            start = clock()
                            try:
                                item = next(gen)
                            finally:
                                end = clock()
                                stack.pop()
                                parent = stack[-1] if stack else tracer.unit_span
                                spans_append((sid, parent, name, layer, start, end, tracer.unit_id))
                        yield item
                except StopIteration:
                    return
                finally:
                    gen.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            try:
                stack = local.stack
            except AttributeError:
                stack = enter()
            sid = next_id()
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                parent = stack[-1] if stack else tracer.unit_span
                spans_append((sid, parent, name, layer, start, end, tracer.unit_id))

        return wrapper

    # -- installing the wrappers ---------------------------------------------
    def install(self) -> int:
        """Wrap every layer's public callables; returns how many."""
        targets = list(self._targets())
        originals = {id(fn): wrapped for fn, wrapped in self._wrap_functions(targets)}
        # Functions are also reached through names other modules imported
        # (``from repro.mr.serde import decode_stream``): rebind those too.
        for module in [m for name, m in sys.modules.items() if name.startswith("repro") and m]:
            for attr, value in list(vars(module).items()):
                wrapped = originals.get(id(value))
                if wrapped is not None:
                    self._patch(module, attr, wrapped)
        self.on = True
        return len(targets)

    def uninstall(self) -> None:
        self.on = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_functions(self, targets) -> Iterable[tuple[Callable, Callable]]:
        for owner, attr, raw, layer in targets:
            name = f"{getattr(owner, '__qualname__', owner.__name__)}.{attr}"
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self.traced(name, layer, raw.__func__))
                self._patch(owner, attr, wrapped)
                continue
            wrapped = self.traced(name, layer, raw)
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapped)
            else:
                yield raw, wrapped

    def _targets(self) -> Iterable[tuple[Any, str, Any, str]]:
        """``(owner, attribute, raw callable, layer)`` for every target."""
        for module_name, layer in MODULE_LAYERS.items():
            module = self._import(module_name)
            if module is not None:
                yield from self._module_targets(module, lambda attr, cls, layer=layer: layer)
        executor = self._import("repro.mr.executor")
        if executor is not None:
            yield from self._module_targets(executor, _executor_layer)
        serde = self._import("repro.mr.serde")
        if serde is not None:
            yield from self._module_targets(
                serde, lambda attr, cls: None if cls else _serde_layer(attr)
            )
        import repro.workloads as workloads

        for info in pkgutil.iter_modules(workloads.__path__):
            module = self._import(f"repro.workloads.{info.name}")
            if module is not None:
                yield from self._module_targets(
                    module,
                    lambda attr, cls: _workload_layer(cls) if cls and attr != "__init__" else None,
                )

    def _import(self, name: str):
        try:
            return importlib.import_module(name)
        except ImportError:
            self.missing.append(name)
            return None

    @staticmethod
    def _module_targets(module, layer_of) -> Iterable[tuple[Any, str, Any, str]]:
        """Public functions and public methods defined in ``module``.

        Private classes count when they implement a public interface
        (the executor's future types); ``__init__`` counts for public
        classes, so object construction is charged to its layer.
        """
        for attr, value in vars(module).items():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value) and not attr.startswith("_"):
                layer = layer_of(attr, None)
                if layer is not None:
                    yield module, attr, value, layer
            elif inspect.isclass(value):
                public_class = not attr.startswith("_")
                for method, raw in vars(value).items():
                    if method.startswith("_") and not (public_class and method == "__init__"):
                        continue
                    func = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                    if not inspect.isfunction(func):
                        continue
                    layer = layer_of(method, value)
                    if layer is not None:
                        yield value, method, raw, layer


def union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[tuple], root: tuple) -> dict:
    """Exclusive seconds per layer for the spans of one unit.

    A span's self time is its duration minus the part of it that its
    child spans cover.  Returns ``layers`` (self seconds per layer),
    ``unattributed`` (the root's self time), ``reexec`` (map-UDF self
    time spent under the anti reducer, i.e. LazySH re-execution),
    ``inclusive`` (summed durations per span name), ``calls`` (span
    count per name) and ``layer_of`` (layer per span name).
    """
    by_id = {span[0]: span for span in spans}
    by_id[root[0]] = root
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        children[span[1]].append((span[4], span[5]))

    under_anti: dict[int, bool] = {}

    def is_under_anti_reducer(sid: int | None) -> bool:
        chain = []
        while sid is not None and sid not in under_anti:
            span = by_id.get(sid)
            if span is None or span[3] == "anti_reducer":
                under_anti[sid] = span is not None
                break
            chain.append(sid)
            sid = span[1]
        answer = under_anti.get(sid, False)
        for item in chain:
            under_anti[item] = answer
        return answer

    layers = dict.fromkeys(LAYERS, 0.0)
    inclusive: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    layer_of: dict[str, str] = {}
    reexec = 0.0
    for sid, parent, name, layer, start, end, _ in spans:
        own = (end - start) - union_length(children.get(sid, []), start, end)
        layers[layer] = layers.get(layer, 0.0) + own
        inclusive[name] += end - start
        calls[name] += 1
        layer_of[name] = layer
        if layer == "workloads.map_udf" and is_under_anti_reducer(parent):
            reexec += own
    _, _, _, _, start, end, _ = root
    unattributed = (end - start) - union_length(children.get(root[0], []), start, end)
    return {
        "layers": layers,
        "unattributed": unattributed,
        "reexec": reexec,
        "inclusive": dict(inclusive),
        "calls": dict(calls),
        "layer_of": layer_of,
        "wall": end - start,
    }
