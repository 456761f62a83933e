"""``serve_mix``: detection as a service, judged by what its clients see.

Why this workload: small graphs at the factory default ``threads=32`` are
dominated by per-block runtime cost, so a served miss is runtime-bound;
a result-cache hit skips detection and costs only protocol and codec.
It covers the serve layers and the registry's evict-and-reload path,
which ``detect_rmat`` never touches.

Load: an in-process ``repro.serve`` server on localhost TCP with
``workers=nproc`` and a registry capacity of 2 for 3 graphs, so pins
evict and reload. ``nproc`` client connections each run a closed loop.
Each client's request sequence is generated from the workload seed:

* seven requests in eight repeat a ``detect`` that client has already
  completed, which the result cache answers;
* the eighth is fresh: a ``detect`` on a new ``(graph, seed)``,
  alternating ``plp`` and ``plm``, or every fifth time a ``compare`` of
  both on a new ``(graph, seed)``.

Fresh seeds come from a small per-client pool, disjoint between clients,
so no two clients coalesce, and the 87.5% hit share is fixed by the
sequence, not by how fast the server answers. At that share the median
request is a cache hit well inside the hits' latency distribution (at
75% it sat at the hits' 67th percentile, where host noise moved it by
20% between runs), while the misses set the throughput. The graphs are ~2k-node planted
partitions saved as ``.npz``. A fresh server per run starts with an
empty cache, and it is stopped through its handle.
"""

from __future__ import annotations

import threading
from typing import Any

import numpy as np

from common import (
    MODULARITY_TOL,
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

NAME = "serve_mix"
WHY = "served detect/compare over 2k-node graphs: runtime-bound misses, codec-bound cache hits, registry evict and reload"
ALGORITHMS = ("plp", "plm")
#: Graphs served, and the registry capacity below it, so pins evict.
GRAPHS = 3
CAPACITY = 2
#: Per client, cyclically: ``f`` a fresh request, ``h`` a cache hit.
PATTERN = "fhhhhhhh"
#: Every this-many-th fresh request is a ``compare``.
COMPARE_EVERY = 5
FULL = {"n": 2000, "k": 20, "p_in": 0.06, "p_out": 0.0004, "seed_pool": 40, "requests": 3000}
TINY = {"n": 200, "k": 4, "p_in": 0.2, "p_out": 0.01, "seed_pool": 10, "requests": 200}
#: A request slower than this counts as failed (timeout).
REQUEST_TIMEOUT_S = 120.0


def make_graphs(seed: int, cfg: dict) -> list:
    from repro.graph.generators import planted_partition

    seeds = np.random.default_rng(seed).integers(0, 2**31 - 1, size=GRAPHS)
    return [
        planted_partition(
            cfg["n"], cfg["k"], cfg["p_in"], cfg["p_out"], seed=int(s),
            name=f"pp{cfg['n']}-g{i}",
        )[0]
        for i, s in enumerate(seeds)
    ]


def make_sequences(seed: int, cfg: dict, clients: int) -> list[list[tuple]]:
    """Each client's requests: ``("detect", g, alg, s, hit)`` or
    ``("compare", g, s)``, with ``hit`` whether the cache must answer it.

    Requests follow :data:`PATTERN` cyclically: ``h`` repeats a random
    request the client has completed, ``f`` is fresh: a ``compare`` every
    :data:`COMPARE_EVERY`-th time, otherwise a ``detect`` alternating ``plp``
    and ``plm``. The share of hits is therefore fixed, not drawn. Client
    ``c`` takes fresh seeds ``c, c + clients, ...`` from a pool of
    ``seed_pool`` seeds, so clients never share a key.
    """
    seqs = []
    for c in range(clients):
        rng = np.random.default_rng([seed, c])
        fresh = [
            (g, c + clients * j)
            for j in range(cfg["seed_pool"])
            for g in range(GRAPHS)
        ]
        fresh = [fresh[i] for i in rng.permutation(len(fresh))]
        done: list[tuple] = []
        seq: list[tuple] = []
        k = 0  # fresh requests so far
        for i in range(cfg["requests"]):
            if (PATTERN[i % len(PATTERN)] == "h" and done) or not fresh:
                g, alg, s = done[int(rng.integers(len(done)))]
                seq.append(("detect", g, alg, s, True))
                continue
            g, s = fresh.pop()
            if k % COMPARE_EVERY == COMPARE_EVERY - 1:
                done += [(g, alg, s) for alg in ALGORITHMS]
                seq.append(("compare", g, s))
            else:
                alg = ALGORITHMS[k % len(ALGORITHMS)]
                done.append((g, alg, s))
                seq.append(("detect", g, alg, s, False))
            k += 1
        seqs.append(seq)
    return seqs


def pin_key(g: int, alg: str, s: int) -> str:
    return f"g{g}/{alg}/s{s}"


def reference(graph, alg: str, seed: int, runtimes=None) -> tuple:
    """``(digest, sim_s, modularity, result)`` of a direct
    ``make_detector(alg, seed=seed).run(graph)``, bypassing the server."""
    from repro.partition.quality import modularity

    result = detect(graph, alg, seed, runtimes=runtimes)
    return (
        label_digest(result.labels),
        float(result.timing.total),
        float(modularity(graph, result.partition)),
        result,
    )


def _reference_task(graph, alg: str, seed: int) -> tuple:
    return reference(graph, alg, seed)[:3]


def _pinned_refs(keys, ledger: Ledger) -> dict[tuple, tuple]:
    """References of the keys whose direct run is pinned (the pin table
    holds exactly what :func:`reference` computes), so only unpinned
    keys are recomputed."""
    refs = {}
    for key in keys:
        pinned = ledger.pins.get(pin_key(*key))
        if pinned is not None:
            refs[key] = tuple(pinned)
            ledger.pinned_checks += 1
    return refs


def start_server(paths, workers: int, workdir):
    """A fresh server with the graphs registered and the pool warm."""
    from repro.parallel.backend import resolve_backend
    from repro.serve.server import serve_in_thread

    handle = serve_in_thread(
        host="127.0.0.1", port=0, workers=workers, capacity=CAPACITY,
        cache_dir=str(workdir / "registry"), cache_size=1 << 20,
        default_timeout=REQUEST_TIMEOUT_S,
    )
    with _connect(handle) as client:
        for g, path in enumerate(paths):
            client.load(f"g{g}", str(path))
    resolve_backend(workers).map(abs, [(1,)] * workers)
    return handle


def _connect(handle):
    from repro.serve.client import ServeClient

    host, port = handle.address.rsplit(":", 1)
    return ServeClient(host=host, port=int(port), timeout=REQUEST_TIMEOUT_S)


def drive(handle, seqs, seconds: float, tracer=None):
    """Run every client's closed loop until ``seconds`` have passed.

    Returns per-client ``(request, latency_s, result, error)`` records and
    the wall from the first send to the last reply.
    """
    records: list[list[tuple]] = [[] for _ in seqs]
    start = now()
    deadline = start + seconds

    def client_loop(c: int) -> None:
        with _connect(handle) as client:
            for i, req in enumerate(seqs[c]):
                if now() >= deadline:
                    return
                result = error = None
                t0 = now()
                try:
                    if tracer is not None:
                        with tracer.span("serve.request", rid=f"c{c}/{i}"):
                            result = _send(client, req)
                    else:
                        result = _send(client, req)
                except Exception as exc:  # errors and timeouts are failed requests
                    error = f"{type(exc).__name__}: {exc}"
                records[c].append((req, now() - t0, result, error))
                if error is not None:
                    return

    threads = [threading.Thread(target=client_loop, args=(c,)) for c in range(len(seqs))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return records, now() - start


def _send(client, req):
    if req[0] == "detect":
        _, g, alg, s, _ = req
        return client.detect(f"g{g}", alg, seed=s)
    _, g, s = req
    return client.compare(f"g{g}", list(ALGORITHMS), seed=s)


def _keys(records) -> list[tuple]:
    keys = []
    for per_client in records:
        for req, _, result, _ in per_client:
            if result is None:
                continue
            if req[0] == "detect":
                keys.append(req[1:4])
            else:
                keys += [(req[1], alg, req[2]) for alg in ALGORITHMS]
    return sorted(set(keys))


def verify(records, graphs, refs: dict, ledger: Ledger, label: str) -> dict[tuple, float]:
    """Check every served reply against the direct run of the same
    request; returns the recomputed modularity of each served key."""
    from repro.partition.quality import modularity

    qualities: dict[tuple, float] = {}
    for c, per_client in enumerate(records):
        for i, (req, _, result, error) in enumerate(per_client):
            op = f"{label}c{c}/{i}"
            ledger.attempt()
            if error is not None:
                ledger.fail(op, error)
                continue
            if req[0] == "detect":
                g, alg, s = req[1:4]
                want_digest, want_sim, want_q = refs[(g, alg, s)]
                digest = label_digest(result["labels"])
                q = float(modularity(graphs[g], result["labels"]))
                ledger.expect(op, digest == want_digest,
                              "served labels differ from the direct run")
                ledger.expect(op, abs(result["modularity"] - q) <= MODULARITY_TOL,
                              f"reported modularity {result['modularity']!r} != recomputed {q!r}")
                ledger.expect(op, result["sim_time"] == want_sim,
                              "served sim_s differs from the direct run")
                qualities[(g, alg, s)] = q
                continue
            g, s = req[1:3]
            for alg, row in zip(ALGORITHMS, result):
                _, want_sim, want_q = refs[(g, alg, s)]
                ledger.expect(op, abs(row["modularity"] - want_q) <= MODULARITY_TOL,
                              f"compare modularity {row['modularity']!r} != recomputed {want_q!r}")
                ledger.expect(op, row["sim_time"] == want_sim,
                              "compare row's sim_s differs from the direct run")
                qualities[(g, alg, s)] = want_q
    return qualities


def _kind(req) -> str:
    if req[0] == "compare":
        return "compare"
    return "hit" if req[4] else "miss"


def _latencies(records, kind: str | None = None) -> list[float]:
    """Latencies of the completed requests, optionally of one kind."""
    return [
        lat
        for per_client in records
        for req, lat, result, _ in per_client
        if result is not None and kind in (None, _kind(req))
    ]


def run(seed: int, seconds: float, trace: bool, pins: dict, cfg: dict = FULL) -> dict[str, Any]:
    import os
    import shutil

    from common import ROOT
    from repro.graph.io import save_npz
    from repro.parallel.backend import resolve_backend, shutdown_all

    workers = nproc()
    clients = nproc()
    workdir = ROOT / ".bench_tmp" / f"serve-{os.getpid()}"
    seqs = make_sequences(seed, cfg, clients)

    def build():
        workdir.mkdir(parents=True, exist_ok=True)
        graphs = make_graphs(seed, cfg)
        paths = [workdir / f"g{g}.npz" for g in range(len(graphs))]
        for graph, path in zip(graphs, paths):
            save_npz(graph, path)
        return graphs, paths, start_server(paths, workers, workdir)

    handle = None
    try:
        (graphs, paths, handle), setup_s = timed_setup(build, lambda state: state[2].stop())
        ledger = Ledger(pins)
        if not trace:
            records, wall = drive(handle, seqs, seconds)
            with _connect(handle) as client:
                stats = client.stats()
            handle.stop()  # also reaps the pool, whose peak memory counts
            rss = peak_rss_mb()
            refs = _pinned_refs(_keys(records), ledger)
            todo = [key for key in _keys(records) if key not in refs]
            ledger.reference_checks += len(todo)
            tasks = [(graphs[g], alg, s) for g, alg, s in todo]
            refs.update(zip(todo, resolve_backend(workers).map(_reference_task, tasks)))
            qualities = verify(records, graphs, refs, ledger, "")
            lines = _report(seed, trace, records, wall, stats, qualities)
            done = len(_latencies(records))
            return {
                "lines": lines,
                "host": host_block(workers, [graph_info(g) for g in graphs]),
                "ledger": ledger,
                "metrics": {
                    "setup_s": setup_s,
                    "peak_rss_mb": rss,
                    "throughput_per_s": done / wall if wall else 0.0,
                    "p50_ms": median(_latencies(records)) * 1e3 if done else 0.0,
                    "modularity": float(np.mean(list(qualities.values()))) if qualities else 0.0,
                },
            }
        return _traced(seed, seconds, seqs, graphs, paths, handle, workers, workdir, ledger)
    finally:
        if handle is not None:
            handle.stop()
        shutdown_all()
        shutil.rmtree(workdir, ignore_errors=True)


def _traced(seed, seconds, seqs, graphs, paths, handle, workers, workdir, ledger):
    """Half the time untraced, half traced on a fresh server with the
    same request sequence, then an in-process replay of every distinct
    miss under the same wrappers for the kernel/runtime split."""
    from spans import Tracer, detection_layers, span_totals

    untraced, _ = drive(handle, seqs, seconds / 2)
    handle.stop()
    # Start the server, and so fork its pool workers, before the wrappers
    # go in: workers forked later would inherit them.
    traced_handle = start_server(paths, workers, workdir)
    tracer = Tracer().install()
    try:
        with _connect(traced_handle) as client:
            before = client.stats()
        tracer.clear()
        records, wall = drive(traced_handle, seqs, seconds / 2, tracer)
        live, live_tasks = tracer.spans, tracer.tasks
        with _connect(traced_handle) as client:
            after = client.stats()
    finally:
        traced_handle.stop()
        tracer.uninstall()

    keys = sorted(set(_keys(untraced)) | set(_keys(records)))
    tracer.clear()
    runtimes: list = []
    refs, results = {}, []
    with tracer:
        for g, alg, s in keys:
            with tracer.span("detect." + alg, rid=f"replay/g{g}/{alg}/s{s}"):
                *ref, result = reference(graphs[g], alg, s, runtimes)
            refs[(g, alg, s)] = tuple(ref)
            results.append(result)
            ledger.check_pin(f"replay/g{g}/{alg}/s{s}", pin_key(g, alg, s), *ref)
    ledger.reference_checks += len(keys)
    verify(untraced, graphs, refs, ledger, "untraced/")
    qualities = verify(records, graphs, refs, ledger, "traced/")

    n_req = max(1, len(_latencies(records)))
    metrics, _ = detection_layers(tracer.spans, runtimes, results, max(1, len(keys)))
    served = span_totals(live)

    def delta(section: str, key: str) -> int:
        return after[section][key] - before[section][key]

    lookups = delta("queue", "cache_hits") + delta("queue", "cache_misses")
    overhead, base = _overhead(untraced, records)
    metrics.update(
        {
            "parallel.backend_map_s": served["backend_map_s"] / n_req,
            "parallel.backend_tasks": live_tasks / n_req,
            "serve.registry_pin_s": served["registry_pin_s"] / n_req,
            "serve.cold_loads": delta("registry", "cold_loads") / n_req,
            "serve.evictions": delta("registry", "evictions") / n_req,
            "serve.codec_s": served["codec_s"] / n_req,
            "serve.submit_s": served["submit_s"] / n_req,
            "serve.queue_wait_s": served["queue_wait_s"] / n_req,
            "serve.cache_hit_ratio": delta("queue", "cache_hits") / lookups if lookups else 0.0,
            "serve.cache_lookups": lookups,
            "serve.coalesced": delta("queue", "coalesced") / n_req,
            "serve.batch_size_mean": delta("queue", "jobs") / max(1, delta("queue", "batches")),
            "tracing_overhead": overhead,
            "tracing_untraced_s": base,
            "ops": n_req,
        }
    )
    lines = _report(seed, True, records, wall, after, qualities)
    lines.append(
        f"kernel/runtime split from an in-process replay of {len(keys)} distinct "
        f"served detections (per replayed detection): kernel "
        f"{metrics['community.kernel_s']:.4f} s, runtime self "
        f"{metrics['parallel.runtime_self_s']:.4f} s, driver {metrics['community.driver_s']:.4f} s"
    )
    tracer.spans = live + tracer.spans
    return {
        "lines": lines,
        "host": host_block(workers, [graph_info(g) for g in graphs]),
        "ledger": ledger,
        "metrics": metrics,
        "tracer": tracer,
    }


def _overhead(untraced, traced) -> tuple[float, float]:
    """Traced over untraced latency summed over each client's common
    prefix of completed requests (both runs send the same sequence)."""
    base = slow = 0.0
    for u, t in zip(untraced, traced):
        m = min(len(u), len(t))
        base += sum(r[1] for r in u[:m])
        slow += sum(r[1] for r in t[:m])
    return (slow / base if base else 0.0), base


def _report(seed, trace, records, wall, stats, qualities) -> list[str]:
    done = _latencies(records)
    hits = _latencies(records, "hit")
    lines = [f"workload {NAME} seed {seed} ({'traced' if trace else 'untraced'})"]
    lines.append(timing_line("request", done))
    lines.append(timing_line("hit", hits))
    lines.append(timing_line("miss", _latencies(records, "miss")))
    lines.append(timing_line("compare", _latencies(records, "compare")))
    lines.append(
        f"requests/s {len(done) / wall if wall else 0.0:.2f}; planned hit share "
        f"{len(hits) / max(1, len(done)):.3f} (n={len(done)}); server cache hits "
        f"{stats['queue']['cache_hits']} of {stats['queue']['cache_hits'] + stats['queue']['cache_misses']}"
        f" lookups; cold loads {stats['registry']['cold_loads']}, evictions {stats['registry']['evictions']}"
    )
    lines.append(f"modularity mean {np.mean(list(qualities.values())) if qualities else 0.0:.6f} "
                 f"(n={len(qualities)} distinct results)")
    return lines
