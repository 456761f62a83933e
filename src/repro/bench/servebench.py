"""Latency benchmark for the detection server (``BENCH_serve.json``).

Measures what :mod:`repro.serve` is *for*: the per-request latency a
client sees, split by where the request lands in the serving stack —

* ``serve_cold`` — the graph must be loaded from disk before detection
  (registry capacity 1 forces an eviction/reload cycle per request);
* ``serve_warm`` — the graph is shm-resident, but the request is a fresh
  ``(algorithm, seed)`` so detection really runs;
* ``serve_cache_hit`` — the exact request was answered before; the
  result cache replies without touching the pool;
* ``serve_concurrent`` — ``concurrency`` client threads issue warm
  requests at once (the queueing/batching path under load).

Every scenario reports p50/max over its request stream; the document
carries ``cache_speedup`` (cold p50 / cache-hit p50), the number the
acceptance gate pins (a warm cache must be >= 5x faster than a cold
load). Entries reuse the ``repro-wallclock/v1`` schema with
``kind="serve"``; ``wall_s`` is the scenario's p50 so baseline diffing
works unchanged.

Run locally::

    PYTHONPATH=src python -m repro.bench.servebench --preset smoke --out BENCH_serve.json
    PYTHONPATH=src python -m repro.bench.wallclock validate BENCH_serve.json
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from repro.bench.core import (
    Summary, add_floor_options, entry, latency_ms, publish, timed
)
from repro.graph import io as graph_io
from repro.graph.generators import planted_partition
from repro.serve import ServeClient, serve_in_thread

__all__ = ["run_serve_suite", "main"]

#: (graph args, request counts) per preset. ``full`` is sized so the
#: whole suite stays under a couple of minutes on one core.
_PRESETS: dict[str, dict[str, Any]] = {
    "smoke": {
        "graph": dict(n=600, k=6, p_in=0.1, p_out=0.005, seed=42),
        "cold_requests": 5,
        "warm_requests": 10,
        "hit_requests": 50,
        "concurrent_requests": 3,  # per client thread
    },
    "full": {
        "graph": dict(n=2000, k=10, p_in=0.05, p_out=0.002, seed=42),
        "cold_requests": 10,
        "warm_requests": 30,
        "hit_requests": 200,
        "concurrent_requests": 6,
    },
}


def _entry(name: str, graph, samples: list[float], **extra: Any) -> dict:
    """A scenario entry: ``wall_s`` is the p50, for baseline diffing."""
    s = Summary.of(samples)
    return entry(
        name,
        graph,
        f"n{graph.n}",
        s.n,
        s.median,
        **latency_ms(s),
        mean_ms=round(s.mean * 1e3, 3),
        **extra,
    )


def run_serve_suite(
    preset: str = "full",
    concurrency: int = 8,
    workers: int | None = None,
) -> list[dict[str, Any]]:
    """Run every serving scenario against a private in-process server."""
    if preset not in _PRESETS:
        raise ValueError(f"unknown preset {preset!r} (use {sorted(_PRESETS)})")
    cfg = _PRESETS[preset]
    graph, _ = planted_partition(**cfg["graph"])
    entries: list[dict[str, Any]] = []

    with tempfile.TemporaryDirectory(prefix="repro-servebench-") as tmp:
        npz = os.path.join(tmp, "bench.npz")
        graph_io.save_npz(graph, npz)
        sock = os.path.join(tmp, "serve.sock")

        # Capacity 1: pinning any other graph evicts the previous one, so
        # the cold scenario's per-request reload is forced by design.
        with serve_in_thread(
            socket_path=sock, workers=workers, capacity=1, cache_size=4096
        ) as handle:
            with ServeClient(socket_path=sock) as client:
                # -- cold: registry reload + detection per request -------
                for i in range(cfg["cold_requests"]):
                    client.load(f"cold{i}", npz)  # lazy; not timed
                # capacity=1: pinning cold{i} evicts cold{i-1}, so every
                # request here pays a genuine disk reload.
                cold = [
                    timed(lambda: client.detect(f"cold{i}", "plm", seed=0))[1]
                    for i in range(cfg["cold_requests"])
                ]
                entries.append(
                    _entry("serve_cold", graph, cold, scenario="reload+detect")
                )

                # -- warm: shm-resident graph, fresh seeds ---------------
                client.load("hot", npz)
                client.pin("hot")
                client.detect("hot", algorithm="plm", seed=10_000)  # warm the pool
                warm = [
                    timed(lambda: client.detect("hot", "plm", seed=seed))[1]
                    for seed in range(cfg["warm_requests"])
                ]
                entries.append(
                    _entry("serve_warm", graph, warm, scenario="pinned+detect")
                )

                # -- cache hit: identical request repeated ---------------
                client.detect("hot", algorithm="plm", seed=0)  # ensure cached
                hits = [
                    timed(lambda: client.detect("hot", "plm", seed=0))[1]
                    for _ in range(cfg["hit_requests"])
                ]
                entries.append(
                    _entry("serve_cache_hit", graph, hits, scenario="cache only")
                )

            # -- concurrent: N clients, warm requests, shared queue ------
            per_client = cfg["concurrent_requests"]

            def client_run(idx: int) -> list[float]:
                seeds = range(1_000 + idx * per_client, 1_000 + (idx + 1) * per_client)
                with ServeClient(socket_path=sock) as c:
                    return [
                        timed(lambda: c.detect("hot", "plm", seed=s))[1] for s in seeds
                    ]

            with ThreadPoolExecutor(concurrency) as pool:
                per, elapsed = timed(
                    lambda: list(pool.map(client_run, range(concurrency)))
                )
            latencies = [dt for client in per for dt in client]
            entries.append(
                _entry(
                    "serve_concurrent",
                    graph,
                    latencies,
                    scenario="warm under load",
                    concurrency=int(concurrency),
                    requests=len(latencies),
                    throughput_rps=round(len(latencies) / elapsed, 1),
                )
            )

            with ServeClient(socket_path=sock) as client:
                server_stats = client.stats()

    by_name = {e["name"]: e for e in entries}
    speedup = round(
        by_name["serve_cold"]["p50_ms"]
        / max(by_name["serve_cache_hit"]["p50_ms"], 1e-9),
        1,
    )
    for e in entries:
        e["cache_speedup"] = speedup
    entries.append(
        entry(
            "serve_stats",
            graph,
            f"n{graph.n}",
            1,
            0.0,
            queue=server_stats["queue"],
            registry=server_stats["registry"],
            backend=server_stats["backend"],
        )
    )
    return entries


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: run the serve benchmark preset and write results."""
    parser = argparse.ArgumentParser(
        prog="repro.bench.servebench", description=__doc__.split("\n")[0]
    )
    parser.add_argument("--preset", default="full", choices=sorted(_PRESETS))
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument(
        "--workers", type=int, default=None, help="server pool workers"
    )
    parser.add_argument("--out", default="BENCH_serve.json")
    add_floor_options(parser, "serve")
    args = parser.parse_args(argv)
    entries = run_serve_suite(
        args.preset, concurrency=args.concurrency, workers=args.workers
    )
    return publish("serve", entries, vars(args))


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
