"""In-memory spans around calls into the program's layers.

The traced run installs wrappers on the public functions of each layer
(from this file only; the program itself is unchanged) and records one
span per call: name, start, end, parent span and request id. Spans stay
in memory and are written out when the run ends. :func:`span_totals`
and :func:`detection_layers` turn them into the per-layer figures of
``BENCHMARK.json``.

Layers and the calls wrapped:

* ``parallel``: ``ParallelRuntime.parallel_for``, ``make_schedule`` as the
  runtime calls it, ``ProcessPoolBackend.map`` / ``SerialBackend.map``;
* ``community``: the ``kernel`` and ``commit`` callables each
  ``parallel_for`` receives, ``DynamicPLM.update``;
* ``graph``: ``coarsen`` as PLM, DPLM and EPP call it,
  ``DynamicGraph.apply_events`` / ``freeze``;
* ``serve``: ``GraphRegistry.pin`` / ``share``, the protocol codec
  (``dumps_line``, ``loads_line``, ``encode_labels``, ``decode_labels``)
  where the server, client and job queue call it, ``JobQueue.submit``.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from contextlib import contextmanager
from typing import Any, Callable

from common import now

#: Span names of the wrapped calls.
PARALLEL_FOR = "parallel.parallel_for"
KERNEL = "community.kernel"
COMMIT = "community.commit"
SCHEDULE = "parallel.schedule"
COARSEN = "graph.coarsen"
BACKEND_MAP = "parallel.backend_map"
REGISTRY = "serve.registry"
CODEC = "serve.codec"
SUBMIT = "serve.submit"
APPLY = "graph.apply_events"
FREEZE = "graph.freeze"
UPDATE = "community.update"
#: Prefix of the benchmark's own span around one detection.
DETECT = "detect."


class Tracer:
    """Span recorder plus the wrappers it installs and removes."""

    def __init__(self) -> None:
        # (id, name, start, end, parent id, request id)
        self.spans: list[tuple] = []
        self.tasks = 0
        self._tasks_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, rid: Any = None):
        stack = self._stack()
        parent = stack[-1] if stack else (0, None)
        sid = next(self._ids)
        rid = parent[1] if rid is None else rid
        stack.append((sid, rid))
        start = now()
        try:
            yield
        finally:
            end = now()
            stack.pop()
            self.spans.append((sid, name, start, end, parent[0], rid))

    def record(self, name: str, start: float, end: float, rid: Any = None) -> None:
        """A span measured by the caller (for coroutines, which interleave
        on one thread and so cannot use the thread's span stack)."""
        self.spans.append((next(self._ids), name, start, end, 0, rid))

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` recording a span per call (the :meth:`span` bookkeeping
        inlined, since kernels are called tens of thousands of times)."""
        ids, stack_of = self._ids, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent, rid = stack[-1] if stack else (0, None)
            sid = next(ids)
            stack.append((sid, rid))
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                self.spans.append((sid, name, start, end, parent, rid))

        return traced

    def clear(self) -> None:
        self.spans = []
        self.tasks = 0

    # -- installing -----------------------------------------------------
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        from repro.community import dplm, epp, plm
        from repro.community.dplm import DynamicPLM
        from repro.graph.dynamic import DynamicGraph
        from repro.parallel import runtime
        from repro.parallel.backend import ProcessPoolBackend, SerialBackend
        from repro.parallel.runtime import ParallelRuntime
        from repro.serve import client, jobs, protocol, server
        from repro.serve.jobs import JobQueue
        from repro.serve.registry import GraphRegistry

        tracer = self
        parallel_for = ParallelRuntime.parallel_for

        @functools.wraps(parallel_for)
        def traced_parallel_for(rt, items, kernel, *args, **kwargs):
            kernel = tracer.wrap(kernel, KERNEL)
            if args and args[0] is not None:
                args = (tracer.wrap(args[0], COMMIT),) + args[1:]
            elif kwargs.get("commit") is not None:
                kwargs["commit"] = tracer.wrap(kwargs["commit"], COMMIT)
            with tracer.span(PARALLEL_FOR):
                return parallel_for(rt, items, kernel, *args, **kwargs)

        self._patch(ParallelRuntime, "parallel_for", traced_parallel_for)
        self._patch(runtime, "make_schedule", self.wrap(runtime.make_schedule, SCHEDULE))
        for module in (plm, dplm, epp):
            self._patch(module, "coarsen", self.wrap(module.coarsen, COARSEN))

        for backend in (ProcessPoolBackend, SerialBackend):
            mapper = backend.__dict__["map"]

            def traced_map(be, fn, tasks, _map=mapper):
                with tracer._tasks_lock:
                    tracer.tasks += len(tasks)
                with tracer.span(BACKEND_MAP):
                    return _map(be, fn, tasks)

            self._patch(backend, "map", traced_map)

        for method in ("pin", "share"):
            self._patch(
                GraphRegistry, method, self.wrap(GraphRegistry.__dict__[method], REGISTRY)
            )
        for module in (protocol, server, client, jobs):
            for fn in ("dumps_line", "loads_line", "encode_labels", "decode_labels"):
                if fn in module.__dict__:
                    self._patch(module, fn, self.wrap(module.__dict__[fn], CODEC))

        submit = JobQueue.submit

        @functools.wraps(submit)
        async def traced_submit(queue, graph_id, algorithm, *args, **kwargs):
            start = now()
            try:
                return await submit(queue, graph_id, algorithm, *args, **kwargs)
            finally:
                tracer.record(SUBMIT, start, now(), rid=f"{graph_id}/{algorithm}")

        self._patch(JobQueue, "submit", traced_submit)
        self._patch(DynamicGraph, "apply_events", self.wrap(DynamicGraph.apply_events, APPLY))
        self._patch(DynamicGraph, "freeze", self.wrap(DynamicGraph.freeze, FREEZE))
        self._patch(DynamicPLM, "update", self.wrap(DynamicPLM.update, UPDATE))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def dump(self, path) -> None:
        """Write the spans as JSON (one list per span)."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["id", "name", "start", "end", "parent", "request"],
                    "spans": self.spans,
                },
                fh,
            )


def _children(spans) -> dict[int, list[tuple]]:
    kids: dict[int, list[tuple]] = {}
    for s in spans:
        kids.setdefault(s[4], []).append(s)
    return kids


def _dur(span) -> float:
    return span[3] - span[2]


def span_totals(spans) -> dict[str, Any]:
    """Sums over the spans of one traced run.

    ``runtime_self_s`` is each ``parallel_for`` minus its kernel, commit
    and schedule children; ``driver_s`` is each detection or update span
    minus the outermost ``parallel_for``, ``coarsen`` and backend map
    spans inside it, so the children of a detection sum to its wall;
    ``queue_wait_s`` is each submit span minus the backend map of its own
    batch.
    """
    kids = _children(spans)
    by_name: dict[str, list[tuple]] = {}
    for s in spans:
        by_name.setdefault(s[1], []).append(s)

    def total(name: str) -> float:
        return sum(_dur(s) for s in by_name.get(name, ()))

    runtime_self = 0.0
    for s in by_name.get(PARALLEL_FOR, ()):
        inner = sum(_dur(c) for c in kids.get(s[0], ()) if c[1] in (KERNEL, COMMIT, SCHEDULE))
        runtime_self += _dur(s) - inner

    def outermost(sid: int) -> float:
        acc = 0.0
        for c in kids.get(sid, ()):
            if c[1] in (PARALLEL_FOR, COARSEN, BACKEND_MAP):
                acc += _dur(c)
            else:
                acc += outermost(c[0])
        return acc

    ops = [s for s in spans if s[1].startswith(DETECT) or s[1] == UPDATE]
    op_ids = {s[0] for s in ops}
    top_ops = [s for s in ops if s[4] not in op_ids]
    driver = sum(_dur(s) - outermost(s[0]) for s in top_ops)

    ids = {s[0]: s for s in spans}
    registry = sum(
        _dur(s) for s in by_name.get(REGISTRY, ())
        if ids.get(s[4], (0, ""))[1] != REGISTRY
    )
    maps = sorted((s[2], s[3]) for s in by_name.get(BACKEND_MAP, ()))
    queue_wait = 0.0
    for s in by_name.get(SUBMIT, ()):
        # The submit's own batch is the last map that ran inside it; a
        # cache hit has none.
        own = [b - a for a, b in maps if a >= s[2] and b <= s[3]]
        queue_wait += _dur(s) - (own[-1] if own else 0.0)
    return {
        "kernel_s": total(KERNEL),
        "kernel_calls": len(by_name.get(KERNEL, ())),
        "commit_s": total(COMMIT),
        "commit_calls": len(by_name.get(COMMIT, ())),
        "runtime_self_s": runtime_self,
        "schedule_s": total(SCHEDULE),
        "coarsen_s": total(COARSEN),
        "coarsen_calls": len(by_name.get(COARSEN, ())),
        "driver_s": driver,
        "backend_map_s": total(BACKEND_MAP),
        "registry_pin_s": registry,
        "codec_s": total(CODEC),
        "submit_s": total(SUBMIT),
        "queue_wait_s": queue_wait,
        "apply_events_s": total(APPLY),
        "freeze_s": total(FREEZE),
        "update_s": total(UPDATE),
    }


def _speculation(info: dict) -> tuple[int, int]:
    """``(validated, invalidated)`` blocks of a PLM-family result (EPP
    reports its final PLM's counters under ``info["final"]``)."""
    spec = info.get("speculation") or (info.get("final") or {}).get("speculation") or {}
    return int(spec.get("validated", 0)), int(spec.get("invalidated", 0))


#: Per-layer metrics that are times or counts per operation of the
#: workload (a detection pass, a request, an event batch).
PER_OP = {
    "community.kernel_s": "kernel_s",
    "community.kernel_calls": "kernel_calls",
    "community.commit_s": "commit_s",
    "community.commit_calls": "commit_calls",
    "parallel.runtime_self_s": "runtime_self_s",
    "parallel.schedule_s": "schedule_s",
    "graph.coarsen_s": "coarsen_s",
    "graph.coarsen_calls": "coarsen_calls",
    "community.driver_s": "driver_s",
    "parallel.loops": "loops",
    "parallel.chunks": "chunks",
    "parallel.blocks": "blocks",
    "community.spec_validated": "spec_validated",
    "community.spec_invalidated": "spec_invalidated",
    "sim_s": "sim_s",
}


def detection_layers(spans, runtimes, results, ops: int) -> tuple[dict[str, float], dict]:
    """The community, parallel and coarsening metrics, each per operation.

    ``runtimes`` are the runtimes the traced detections ran on (their
    ``loop_records`` give loops, chunks and blocks) and ``results`` the
    detection results (speculation counters and ``sim_s``). Returns the
    metrics and the :func:`span_totals` they came from.
    """
    totals = span_totals(spans)
    records = [r for rt in runtimes for r in rt.loop_records]
    totals["loops"] = len(records)
    totals["chunks"] = sum(r.chunks for r in records)
    totals["blocks"] = sum(r.blocks for r in records)
    spec = [_speculation(r.info) for r in results]
    totals["spec_validated"] = sum(v for v, _ in spec)
    totals["spec_invalidated"] = sum(i for _, i in spec)
    totals["sim_s"] = sum(float(r.timing.total) for r in results)
    out = {name: totals[key] / ops for name, key in PER_OP.items()}
    attempts = totals["spec_validated"] + totals["spec_invalidated"]
    out["community.spec_hit_ratio"] = totals["spec_validated"] / attempts if attempts else 0.0
    return out, totals
