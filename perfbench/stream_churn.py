"""``stream_churn``: incremental detection under community-local churn.

Why this workload: it writes to the graph layer as well as reading it.
PLM runs masked and incremental (``DynamicPLM.update``), unlike the full,
read-only runs of the other workloads, and the delta-CSR freeze rebuilds
only the dirty rows.

Load: one caller in a closed loop. A ``DynamicGraph.from_graph`` over a
20k-node planted partition (about 180k edges) is fed
``planted_churn_batches`` of 300 events inside 3 communities. Each batch
runs apply, freeze, drain and ``DynamicPLM.update`` back to back; the cold
``run`` is part of set-up. Graph and churn come from the workload seed.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from common import (
    Ledger,
    graph_info,
    host_block,
    label_digest,
    median,
    now,
    peak_rss_mb,
    same_graph,
    timed_setup,
    timing_line,
)

NAME = "stream_churn"
WHY = "writes the graph layer: delta freeze plus masked incremental PLM per 300-event community-local batch"
FULL = {
    "n": 20000, "k": 50, "p_in": 0.04, "p_out": 0.0001,
    "batch_events": 300, "churn_communities": 3, "batches": 250,
}
TINY = {
    "n": 600, "k": 6, "p_in": 0.15, "p_out": 0.004,
    "batch_events": 40, "churn_communities": 2, "batches": 40,
}


def make_inputs(seed: int, cfg: dict):
    """The planted graph, its ground truth and the churn batches."""
    from repro.bench.streambench import planted_churn_batches
    from repro.graph.generators import planted_partition

    rng = np.random.default_rng(seed)
    graph_seed, churn_seed = (int(s) for s in rng.integers(0, 2**31 - 1, size=2))
    graph, truth = planted_partition(
        cfg["n"], cfg["k"], cfg["p_in"], cfg["p_out"], seed=graph_seed,
        name=f"planted{cfg['n']}",
    )
    batches = planted_churn_batches(
        graph, truth, cfg["batches"], cfg["batch_events"],
        churn_communities=cfg["churn_communities"], seed=churn_seed,
    )
    return graph, batches


class Pipeline:
    """A dynamic graph plus its incremental detector, cold-run."""

    def __init__(self, graph, runtimes=None) -> None:
        from repro.community.factory import make_detector
        from repro.graph.dynamic import DynamicGraph

        self.dyn = DynamicGraph.from_graph(graph)
        self.detector = make_detector("dplm")
        self.detector.run(graph)
        self.runtimes = runtimes

    def step(self, batch):
        """apply -> freeze -> drain -> update; returns the snapshot, the
        drained events and the update's result."""
        us, vs, ws, kinds = batch
        self.dyn.apply_events(us, vs, ws, kinds)
        snap = self.dyn.freeze()
        events = self.dyn.drain_events()
        if self.runtimes is None:
            return snap, events, self.detector.update(snap, events)
        from repro.parallel.machine import PAPER_MACHINE
        from repro.parallel.runtime import ParallelRuntime

        runtime = ParallelRuntime(PAPER_MACHINE, threads=self.detector.threads)
        self.runtimes.append(runtime)
        return snap, events, self.detector.update(snap, events, runtime=runtime)


def pin_key(b: int) -> str:
    return f"b{b}"


def run(seed: int, seconds: float, trace: bool, pins: dict, cfg: dict = FULL) -> dict[str, Any]:
    from repro.graph.dynamic import DynamicGraph
    from repro.partition.quality import modularity

    def build():
        graph, batches = make_inputs(seed, cfg)
        return graph, batches, Pipeline(graph)

    (graph, batches, pipe), setup_s = timed_setup(build, lambda _: None)
    # The twin always rebuilds its snapshot fully: delta_threshold=0.0
    # turns off the delta-CSR splice the timed pipeline uses.
    twin = DynamicGraph.from_graph(graph, delta_threshold=0.0)
    ledger = Ledger(pins)
    walls: list[float] = []
    qualities: list[float] = []
    events_done = 0
    tracer = traced_pipe = None
    traced_walls: list[float] = []
    runtimes: list = []
    results: list = []
    freezes: list[dict] = []
    if trace:
        from spans import Tracer

        tracer = Tracer()
        traced_pipe = Pipeline(graph, runtimes)

    measured = 0.0
    for b, batch in enumerate(batches):
        if measured >= seconds:
            break
        op = f"batch{b}"
        ledger.attempt()
        try:
            t0 = now()
            snap, events, result = pipe.step(batch)
            wall = now() - t0
        except Exception as exc:  # a failed batch is a failed op
            ledger.fail(op, f"{type(exc).__name__}: {exc}")
            break
        measured += wall
        walls.append(wall)
        events_done += len(events)
        us, vs, ws, kinds = batch
        twin.apply_events(us, vs, ws, kinds)
        full = twin.freeze()
        twin.drain_events()
        digest = label_digest(result.labels)
        sim_s = float(result.timing.total)
        q = float(modularity(snap, result.partition))
        qualities.append(q)
        ledger.expect(
            op, same_graph(snap, full),
            "delta freeze differs from the full-rebuild twin",
        )
        ledger.check_pin(op, pin_key(b), digest, sim_s, q)
        if tracer is not None:
            try:
                with tracer:
                    t0 = now()
                    tsnap, _, traced = traced_pipe.step(batch)
                    traced_walls.append(now() - t0)
            except Exception as exc:
                ledger.fail(op, f"traced: {type(exc).__name__}: {exc}")
                break
            measured += traced_walls[-1]
            results.append(traced)
            freezes.append(traced_pipe.dyn.last_freeze)
            ledger.expect(op, label_digest(traced.labels) == digest,
                          "traced labels differ from untraced labels")
            ledger.expect(op, float(traced.timing.total) == sim_s,
                          "traced sim_s differs from untraced sim_s")
            ledger.expect(op, same_graph(tsnap, snap),
                          "traced snapshot differs from untraced snapshot")
    rss = peak_rss_mb()

    lines = [f"workload {NAME} seed {seed} ({'traced' if trace else 'untraced'})"]
    lines.append(timing_line("batch", walls))
    busy = sum(walls)
    lines.append(f"events/s {events_done / busy if busy else 0.0:.1f} "
                 f"({events_done} events in {len(walls)} batches)")
    lines.append(f"modularity mean {np.mean(qualities) if qualities else 0.0:.6f} (n={len(qualities)})")
    out: dict[str, Any] = {
        "lines": lines,
        "host": host_block(1, [graph_info(graph)]),
        "ledger": ledger,
    }
    if not trace:
        out["metrics"] = {
            "setup_s": setup_s,
            "peak_rss_mb": rss,
            "throughput_per_s": events_done / busy if busy else 0.0,
            "p50_ms": median(walls) * 1e3 if walls else 0.0,
            "modularity": float(np.mean(qualities)) if qualities else 0.0,
        }
        return out
    out["metrics"] = _layers(tracer, walls, traced_walls, runtimes, results, freezes)
    out["tracer"] = tracer
    return out


def _layers(tracer, walls, traced_walls, runtimes, results, freezes) -> dict[str, float]:
    from spans import detection_layers

    n = max(1, len(traced_walls))
    metrics, totals = detection_layers(tracer.spans, runtimes, results, n)
    untraced = sum(walls[: len(traced_walls)])
    metrics.update(
        {
            "graph.apply_events_s": totals["apply_events_s"] / n,
            "graph.freeze_s": totals["freeze_s"] / n,
            "graph.dirty_fraction": float(np.mean([f["dirty_fraction"] for f in freezes]))
            if freezes else 0.0,
            "community.update_s": totals["update_s"] / n,
            "community.update_full_ratio": sum(r.info.get("mode") == "full" for r in results) / n,
            "tracing_overhead": sum(traced_walls) / untraced if untraced else 0.0,
            "tracing_untraced_s": untraced,
            "ops": n,
        }
    )
    return metrics
