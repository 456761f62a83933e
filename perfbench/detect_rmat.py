"""``detect_rmat``: the ``repro detect`` path on R-MAT graphs.

Why this workload: R-MAT is the paper's Kronecker class. Its skewed
degrees make PLM kernel-bound (tens of thousands of kernel calls per run,
and more than half of the speculated blocks invalidated), and EPP fans
its ensemble out to the process pool. It never touches ``serve`` or
``graph.dynamic``.

Load: one caller in a closed loop. One *pass* calls
``make_detector(alg, seed=i, workers=nproc).run(g)`` for ``plp``, ``plm``
and ``epp`` in sequence, with the factory default ``threads=32``, on its
own R-MAT graph at scale 16, edge factor 8 (~478k edges). Pass ``i``'s
graph seed is drawn from the workload seed and its detector seed is
``i``. A graph per pass keeps one graph's quirks out of the median.
Between passes, untimed, the next graph is generated and its lazy caches
built, and the pool is restarted so the last graph's shared segments go.

Checks: each result is compared with its pin in ``pins.json``. A result
no pin covers (another seed, or a pass past the pinned depth) is compared
with a direct run of the same detection after the timed loop, in the
pool.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from common import (
    Ledger,
    detect,
    graph_info,
    host_block,
    label_digest,
    median,
    now,
    nproc,
    peak_rss_mb,
    timed_setup,
    timing_line,
)

NAME = "detect_rmat"
WHY = "R-MAT (the paper's Kronecker class) makes PLM kernel-bound and EPP use the pool; no serve or dynamic graph"
ALGORITHMS = ("plp", "plm", "epp")
FULL = {"scale": 16, "edge_factor": 8}
TINY = {"scale": 9, "edge_factor": 4}


def make_graph(seed: int, i: int, cfg: dict):
    """Pass ``i``'s graph."""
    from repro.graph.generators import rmat

    graph_seed = int(np.random.default_rng([seed, i]).integers(0, 2**31 - 1))
    return rmat(cfg["scale"], cfg["edge_factor"], seed=graph_seed, name=f"rmat{cfg['scale']}-p{i}")


def pin_key(i: int, alg: str) -> str:
    return f"p{i}/{alg}"


def warm(graph) -> None:
    """Build the lazy per-graph caches (edge list, neighbourhoods) a first
    detection would, untimed, so every timed detection starts from the
    same state."""
    from repro.community._kernels import neighborhood_cache

    graph.edge_array()
    neighborhood_cache(graph)


def _warm_pool(workers: int) -> None:
    from repro.parallel.backend import resolve_backend

    resolve_backend(workers).map(abs, [(1,)] * workers)


def _timed_detect(graph, alg: str, i: int, workers: int, tracer, runtimes, op: str):
    """``(result, wall)`` of one detection, traced when ``tracer`` is set."""
    if not tracer:
        t0 = now()
        result = detect(graph, alg, i, workers)
        return result, now() - t0
    with tracer:
        t0 = now()
        with tracer.span("detect." + alg, rid=op):
            result = detect(graph, alg, i, workers, runtimes)
        return result, now() - t0


def _reference_pass(seed: int, i: int, cfg: dict, algs: tuple) -> list[tuple]:
    """``(digest, sim_s, modularity)`` of a direct run of each of pass
    ``i``'s detections, on the pass's graph made again. In a pool worker
    EPP runs its ensemble inline; results do not depend on workers."""
    from repro.partition.quality import modularity

    graph = make_graph(seed, i, cfg)
    refs = []
    for alg in algs:
        result = detect(graph, alg, i, nproc())
        refs.append((
            label_digest(result.labels),
            float(result.timing.total),
            float(modularity(graph, result.partition)),
        ))
    return refs


def _check_unpinned(seed: int, cfg: dict, unpinned: dict, ledger: Ledger, workers: int) -> None:
    """Compare every result no pin covers with a direct run of the same
    detection, a pass per pool task, outside the timed region."""
    from repro.parallel.backend import resolve_backend

    passes = sorted(unpinned)
    tasks = [(seed, i, cfg, tuple(alg for alg, *_ in unpinned[i])) for i in passes]
    try:
        refs = resolve_backend(workers).map(_reference_pass, tasks)
    except Exception as exc:  # no reference means no check: fail the ops
        for i in passes:
            for _, op, *_ in unpinned[i]:
                ledger.fail(op, f"direct run failed: {type(exc).__name__}: {exc}")
        return
    for i, pass_refs in zip(passes, refs):
        for (_, op, digest, sim_s, q), ref in zip(unpinned[i], pass_refs):
            ledger.reference_checks += 1
            ledger.check_against(op, ref, digest, sim_s, q, "direct run")


def run(seed: int, seconds: float, trace: bool, pins: dict, cfg: dict = FULL) -> dict[str, Any]:
    from repro.parallel.backend import shutdown_all
    from repro.partition.quality import modularity

    workers = nproc()

    def build():
        graph = make_graph(seed, 0, cfg)
        warm(graph)
        _warm_pool(workers)
        return graph

    graph, setup_s = timed_setup(build, lambda _: shutdown_all())
    graphs = [graph_info(graph)]
    ledger = Ledger(pins)
    walls: dict[str, list[float]] = {alg: [] for alg in ALGORITHMS}
    pass_walls: list[float] = []
    qualities: list[float] = []
    unpinned: dict[int, list[tuple]] = {}
    tracer = traced_walls = runtimes = None
    results = []
    if trace:
        from spans import Tracer

        tracer = Tracer()
        traced_walls = {alg: [] for alg in ALGORITHMS}
        runtimes = []

    measured = 0.0
    i = 0
    try:
        while measured < seconds:
            if i:
                shutdown_all()
                graph = make_graph(seed, i, cfg)
                warm(graph)
                graphs.append(graph_info(graph))
                _warm_pool(workers)
            pass_wall = 0.0
            for alg in ALGORITHMS:
                op = f"pass{i}/{alg}"
                ledger.attempt()
                # A traced run also runs each detection traced, first on
                # odd passes, so whatever the first run on a fresh graph
                # pays cancels out of the tracing overhead.
                order = [False] if tracer is None else [i % 2 == 1, i % 2 == 0]
                try:
                    runs = {t: _timed_detect(graph, alg, i, workers, t and tracer, runtimes, op)
                            for t in order}
                except Exception as exc:  # a failed detection is a failed op
                    ledger.fail(op, f"{type(exc).__name__}: {exc}")
                    continue
                result, wall = runs[False]
                measured += wall
                pass_wall += wall
                walls[alg].append(wall)
                digest = label_digest(result.labels)
                sim_s = float(result.timing.total)
                q = float(modularity(graph, result.partition))
                qualities.append(q)
                if not ledger.check_pin(op, pin_key(i, alg), digest, sim_s, q):
                    unpinned.setdefault(i, []).append((alg, op, digest, sim_s, q))
                if tracer is not None:
                    traced, traced_wall = runs[True]
                    measured += traced_wall
                    traced_walls[alg].append((traced_wall, wall))
                    results.append(traced)
                    ledger.expect(op, label_digest(traced.labels) == digest,
                                  "traced labels differ from untraced labels")
                    ledger.expect(op, float(traced.timing.total) == sim_s,
                                  "traced sim_s differs from untraced sim_s")
            pass_walls.append(pass_wall)
            i += 1
        shutdown_all()
        rss = peak_rss_mb()
        _check_unpinned(seed, cfg, unpinned, ledger, workers)
    finally:
        shutdown_all()

    lines = [f"workload {NAME} seed {seed} ({'traced' if trace else 'untraced'})"]
    lines += [timing_line(f"{alg}_s", walls[alg], unit="s") for alg in ALGORITHMS]
    lines.append(timing_line("pass", pass_walls))
    lines.append(f"modularity mean {np.mean(qualities) if qualities else 0.0:.6f} (n={len(qualities)})")
    detections = sum(len(w) for w in walls.values())
    out: dict[str, Any] = {
        "lines": lines,
        "host": host_block(workers, graphs),
        "ledger": ledger,
    }
    if not trace:
        out["metrics"] = {
            "setup_s": setup_s,
            "peak_rss_mb": rss,
            "throughput_per_s": detections / measured if measured else 0.0,
            "p50_ms": median(pass_walls) * 1e3 if pass_walls else 0.0,
            "modularity": float(np.mean(qualities)) if qualities else 0.0,
        }
        return out
    out["metrics"], out["tracer"] = _layers(tracer, traced_walls, runtimes, results), tracer
    out["lines"] += _attribution(tracer, traced_walls)
    return out


def _layers(tracer, traced_walls, runtimes, results) -> dict[str, float]:
    from spans import detection_layers

    passes = max(1, min(len(w) for w in traced_walls.values()))
    metrics, totals = detection_layers(tracer.spans, runtimes, results, passes)
    untraced = sum(u for w in traced_walls.values() for _, u in w)
    traced = sum(t for w in traced_walls.values() for t, _ in w)
    metrics.update(
        {
            "parallel.backend_map_s": totals["backend_map_s"] / passes,
            "parallel.backend_tasks": tracer.tasks / passes,
            "tracing_overhead": traced / untraced if untraced else 0.0,
            "tracing_untraced_s": untraced,
            "ops": passes,
        }
    )
    return metrics


def _attribution(tracer, traced_walls) -> list[str]:
    """Where each algorithm's traced wall went, with the untraced wall."""
    from spans import span_totals

    lines = ["attribution per algorithm (traced spans, seconds per detection):"]
    for alg in ALGORITHMS:
        spans = _subtree(tracer.spans, "detect." + alg)
        n = max(1, len(traced_walls[alg]))
        t = span_totals(spans)
        parts = {
            "kernel": t["kernel_s"],
            "commit": t["commit_s"],
            "schedule": t["schedule_s"],
            "runtime_self": t["runtime_self_s"],
            "coarsen": t["coarsen_s"],
            "backend_map": t["backend_map_s"],
            "driver": t["driver_s"],
        }
        untraced = sum(u for _, u in traced_walls[alg]) / n
        traced = sum(w for w, _ in traced_walls[alg]) / n
        children = sum(parts.values()) / n
        lines.append(
            f"  {alg}: untraced {untraced:.4f} traced {traced:.4f} "
            f"children {children:.4f} ("
            + ", ".join(f"{k} {v / n:.4f}" for k, v in parts.items())
            + ")"
        )
    return lines


def _subtree(spans, root_name: str) -> list[tuple]:
    """The spans named ``root_name`` and all their descendants."""
    keep = {s[0] for s in spans if s[1] == root_name}
    out = []
    # Spans close child-first, so walk from the end to meet parents first.
    for s in reversed(spans):
        if s[0] in keep:
            out.append(s)
        elif s[4] in keep:
            keep.add(s[0])
            out.append(s)
    return out
