"""Host wall-clock microbenchmarks for the shared NumPy kernels.

Two different clocks live in this repository:

* **simulated seconds** — the paper's reproduced metric, produced by the
  discrete-event :class:`~repro.parallel.runtime.ParallelRuntime`. They
  model the 1996 paper's machine and are deterministic.
* **host wall-clock** — how long the NumPy implementation underneath
  actually takes on the machine running the suite. This module measures
  that, so host-speed optimizations are tracked release over release
  without ever touching the simulated cost model.

The suite times the shared hot kernels (neighborhood gather, label
group-by, segmented argmax, coarsening) and the PLM move-phase sweep on
R-MAT and planted-partition graphs at several sizes, and the end-to-end
detectors, emitting machine-readable JSON (``BENCH_kernels.json`` /
``BENCH_e2e.json`` at the repo root). A previous run can be passed as a
baseline, in which case every entry carries ``before_s`` / ``after_s`` /
``speedup`` — the perf trajectory all future optimization PRs are
measured against.

Both suites take ``--workers N`` (or ``REPRO_WORKERS``): the kernel suite
fans its independent cells out to the shared-memory process pool of
:mod:`repro.parallel.backend`; the e2e suite keeps its timed cells
sequential (fair walls) but drives EPP's internal ensemble backend and
emits the interleaved serial-vs-process ``epp_workers_ab`` comparison.
The resolved backend kind, worker count, and host ``cpu_count`` are
recorded in every document's ``host`` block.

Run locally::

    PYTHONPATH=src python -m repro.bench.wallclock kernels --out BENCH_kernels.json
    PYTHONPATH=src python -m repro.bench.wallclock e2e --workers 4 --out BENCH_e2e.json
    PYTHONPATH=src python -m repro.bench.wallclock quality --out BENCH_quality.json
    PYTHONPATH=src python -m repro.bench.wallclock validate BENCH_kernels.json

The ``quality`` subcommand runs the detector-zoo quality-vs-speed matrix
(:mod:`repro.bench.quality`): every detector × every generator category,
NMI/ARI against planted ground truth plus modularity, condensed into a
Pareto block (``--min-nmi`` is the CI quality-smoke floor).

The ``stream`` subcommand runs the streaming-detection suite
(:mod:`repro.bench.streambench`, ``BENCH_stream.json``): batched edit
throughput, the delta-CSR vs full-rebuild freeze A/B, sustained events/s
with p50/max per-batch latency through DynamicPLP/DynamicPLM, and the
``dplm_incremental_ab`` incremental-vs-full-recompute comparison
(``--min-events-per-s`` and ``--min-nmi`` are the CI stream-smoke pins;
``--min-freeze-speedup`` pins the committed document's delta-vs-full
freeze ratio)::

    PYTHONPATH=src python -m repro.bench.wallclock stream --out BENCH_stream.json
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from typing import Any, Callable

import numpy as np

from repro.bench.core import (
    SCHEMA,
    add_floor_options,
    build_document,
    entry,
    interleave,
    merge_baseline,
    publish,
    time_best,
    timed,
    validate_document,
    write_document,
)
from repro.bench.quality import run_quality_suite
from repro.bench.streambench import STREAM_PRESETS, run_stream_suite
from repro.community import EPP, PLM, PLMR, PLP, kernel_backends
from repro.community._kernels import gather_neighborhoods, group_label_weights
from repro.community.backends import resolve_kernel_backend
from repro.graph.coarsening import coarsen
from repro.graph.csr import Graph
from repro.graph.generators import planted_partition, rmat
from repro.parallel.backend import (
    materialize,
    peak_rss_mb,
    reset_peak_rss,
    resolve_backend,
)
from repro.parallel.runtime import ParallelRuntime

__all__ = [
    "SCHEMA",
    "build_document",
    "run_kernel_suite",
    "run_e2e_suite",
    "run_scale_suite",
    "merge_baseline",
    "validate_document",
    "write_document",
]


# ----------------------------------------------------------------------
# Graph presets
# ----------------------------------------------------------------------
def _graphs(preset: str) -> list[tuple[str, Graph]]:
    """(size-label, graph) pairs for a preset.

    Size labels name the target undirected edge count; the emitted entries
    record the exact ``m`` of each instance.
    """
    if preset == "smoke":
        return [
            ("1k", planted_partition(400, 4, 0.08, 0.004, seed=42)[0]),
            ("1k", rmat(8, 4, seed=42)),
        ]
    if preset == "full":
        return [
            ("10k", planted_partition(2000, 8, 0.04, 0.002, seed=42)[0]),
            ("10k", rmat(11, 6, seed=42)),
            ("100k", planted_partition(16000, 32, 0.018, 0.00025, seed=42)[0]),
            ("100k", rmat(14, 7, seed=42)),
        ]
    raise ValueError(f"unknown preset {preset!r} (use 'smoke' or 'full')")


# ----------------------------------------------------------------------
# Kernel suite
# ----------------------------------------------------------------------
#: Kernel cell names, in emission order per graph.
KERNEL_NAMES = (
    "gather_full",
    "gather_chunked",
    "group_full",
    "group_chunked",
    "argmax_per_segment",
    "weight_to_label",
    "coarsen",
    "move_sweep",
)


def _kernel_cell(
    graph,
    size: str,
    name: str,
    repeats: int,
    chunk: int,
    kernel_backend: str | None = None,
) -> dict[str, Any]:
    """Time one (kernel, graph) cell; the fan-out unit of the suite.

    Module-level (not a closure) so the process backend can ship it to a
    worker; the setup (rng seed 7, labels, permutation) is rebuilt
    identically per cell, so which process runs it cannot change what is
    measured. ``kernel_backend`` (a policy string — picklable) selects
    who executes the ``move_sweep`` cell's hot loops; the other cells
    time the vectorized helpers directly and always record
    ``backend: "numpy"``.
    """
    graph = materialize(graph)
    rng = np.random.default_rng(7)
    nodes = np.arange(graph.n, dtype=np.int64)
    order = rng.permutation(nodes)
    labels = rng.integers(0, max(2, graph.n // 10), size=graph.n)
    groups = group_label_weights(graph, nodes, labels)
    blocks = [order[lo : lo + chunk] for lo in range(0, graph.n, chunk)]

    def per_block(kernel: Callable[[np.ndarray], Any]) -> None:
        for b in blocks:
            kernel(b)

    fns: dict[str, Callable[[], Any]] = {
        "gather_full": lambda: gather_neighborhoods(graph, nodes),
        "gather_chunked": lambda: per_block(lambda b: gather_neighborhoods(graph, b)),
        "group_full": lambda: group_label_weights(graph, nodes, labels),
        "group_chunked": lambda: per_block(
            lambda b: group_label_weights(graph, b, labels)
        ),
        "argmax_per_segment": lambda: groups.argmax_per_segment(graph.n),
        "weight_to_label": lambda: groups.weight_to_label(graph.n, labels),
        "coarsen": lambda: coarsen(graph, labels),
        "move_sweep": lambda: _move_sweep_fingerprint(graph, kernel_backend),
    }
    reps = max(1, repeats // 2) if name == "move_sweep" else repeats
    cell_backend = (
        resolve_kernel_backend(kernel_backend) if name == "move_sweep" else "numpy"
    )
    return entry(
        name, graph, size, reps, time_best(fns[name], reps).best,
        backend=cell_backend,
    )


def _numba_ready() -> bool:
    """Whether the numba backend can actually run on this host.

    Gates the A/B entries: they are emitted only when a real comparison
    is possible — an A/B against an unavailable backend would be a
    fabricated number.
    """
    return bool(kernel_backends()["numba"]["available"])


def _move_sweep_fingerprint(graph: Graph, backend: str | None) -> bytes:
    """One PLM move phase under ``backend``; returns a result fingerprint.

    The fingerprint (final labels + sweep count) is what the A/B's
    ``identical`` byte-equality assertion compares across backends.
    """
    plm = PLM(threads=1, seed=3, kernel_backend=backend)
    lab = np.arange(graph.n, dtype=np.int64)
    runtime = ParallelRuntime(threads=1)
    _, sweeps = plm._move_phase(graph, lab, runtime, "bench")
    return lab.tobytes() + bytes([sweeps & 0xFF])


def _speedup(slow_s: float, fast_s: float) -> float:
    return round(slow_s / fast_s, 3) if fast_s > 0 else float("inf")


def _backend_ab(
    name: str,
    graph: Graph,
    size: str,
    repeats: int,
    run_with: Callable[[str], bytes],
) -> dict[str, Any]:
    """Fair interleaved NumPy-vs-Numba A/B of one benchmark body.

    ``run_with(backend)`` executes the body under a backend and returns a
    result fingerprint. The **first** compiled call pays JIT compilation
    and is excluded from the timed rounds — its excess over the compiled
    steady state is reported separately as ``compile_s`` (see
    EXPERIMENTS.md on why compile time must not pollute a throughput
    A/B). Rounds then alternate numpy/numba so drifting host load biases
    neither side; ``wall_s`` is the compiled best, ``numpy_wall_s`` the
    vectorized best, and ``identical`` asserts every fingerprint matched
    byte-for-byte.
    """
    ab = interleave(
        {"numba": lambda: run_with("numba"), "numpy": lambda: run_with("numpy")},
        repeats,
        warmup=1,
    )
    numba, numpy_ = ab["numba"], ab["numpy"]
    best_nb, best_np = numba.summary.best, numpy_.summary.best
    fp_ref = numba.results[0]
    return entry(
        name,
        graph,
        size,
        numba.summary.n,
        best_nb,
        backend="numba",
        numpy_wall_s=best_np,
        backend_speedup=_speedup(best_np, best_nb),
        compile_s=round(max(0.0, numba.warmup_s[0] - best_nb), 6),
        identical=all(fp == fp_ref for arm in ab.values() for fp in arm.results),
        note="interleaved numpy/numba best-of rounds; first compiled call "
        "excluded from timing and reported as compile_s",
    )


def run_kernel_suite(
    preset: str = "full",
    repeats: int = 5,
    chunk: int = 32,
    workers: int | None = None,
    kernel_backend: str | None = None,
) -> list[dict[str, Any]]:
    """Time the shared kernels; returns one record per (kernel, graph).

    ``*_full`` entries measure one whole-graph vectorized call;
    ``*_chunked`` entries sweep the graph in ``chunk``-node blocks over a
    random permutation — the access pattern of the simulated executor's
    grain blocks, where per-call overhead dominates.

    ``workers > 1`` fans the independent cells out to the shared-memory
    process pool (each graph ships once, zero-copy); results come back in
    submission order, so the document layout is backend-invariant. With
    more concurrent cells than idle cores the per-cell walls inflate
    under contention — use serial runs for release-over-release deltas.

    ``kernel_backend`` selects who executes the ``move_sweep`` cell's hot
    loops. When the numba backend is available on the host, one
    ``move_sweep_backend_ab`` entry per graph is appended — the
    interleaved NumPy-vs-Numba comparison (timed sequentially in this
    process for fair walls) with JIT compile time excluded and reported
    as ``compile_s``.
    """
    backend = resolve_backend(workers)
    graphs = _graphs(preset)
    tasks = [
        (
            backend.share_graph(graph) if backend.workers > 1 else graph,
            size,
            name,
            repeats,
            chunk,
            kernel_backend,
        )
        for size, graph in graphs
        for name in KERNEL_NAMES
    ]
    entries = backend.map(_kernel_cell, tasks)
    if _numba_ready():
        for size, graph in graphs:
            entries.append(
                _backend_ab(
                    "move_sweep_backend_ab",
                    graph,
                    size,
                    max(1, repeats // 2),
                    lambda b, g=graph: _move_sweep_fingerprint(g, b),
                )
            )
    return entries


# ----------------------------------------------------------------------
# End-to-end suite
# ----------------------------------------------------------------------
def _e2e_detector(
    name: str, workers: int | None, kernel_backend: str | None = None
):
    """Fresh detector for an e2e cell. Only EPP consumes host workers —
    its base ensemble is the detector-internal parallel boundary."""
    if name == "epp":
        return EPP(
            threads=4, seed=1, ensemble_size=4, workers=workers,
            kernel_backend=kernel_backend,
        )
    return {"plp": PLP, "plm": PLM, "plmr": PLMR}[name](
        threads=4, seed=1, kernel_backend=kernel_backend
    )


E2E_ALGORITHMS = ("plp", "plm", "plmr", "epp")


def _epp_workers_ab(
    graph: Graph, size: str, repeats: int, workers: int
) -> dict[str, Any]:
    """Fair interleaved A/B: EPP with the serial vs the process backend.

    Both configurations run the *same* modeled machine and seeds — the
    simulated outputs are asserted identical (``sim_identical``) — and the
    measurements alternate serial/parallel within each round so drifting
    host load biases neither side. ``wall_s`` is the parallel best;
    ``serial_wall_s``/``workers_speedup`` carry the comparison.
    """
    ab = interleave(
        {
            "serial": lambda: _e2e_detector("epp", 1).run(graph),
            "pooled": lambda: _e2e_detector("epp", workers).run(graph),
        },
        repeats,
        warmup=1,
    )
    sims = {r.timing.total for arm in ab.values() for r in arm.results}
    best_serial = ab["serial"].summary.best
    best_pooled = ab["pooled"].summary.best
    return entry(
        "epp_workers_ab",
        graph,
        size,
        ab["pooled"].summary.n,
        best_pooled,
        sim_s=float(next(iter(sims))),
        sim_identical=len(sims) == 1,
        serial_wall_s=best_serial,
        workers=int(workers),
        workers_speedup=_speedup(best_serial, best_pooled),
    )


def _e2e_fingerprint(
    name: str, graph: Graph, workers: int | None, backend: str
) -> bytes:
    """One full detector run under ``backend``; labels + simulated time."""
    result = _e2e_detector(name, workers, kernel_backend=backend).run(graph)
    return (
        result.partition.labels.tobytes()
        + repr(float(result.timing.total)).encode()
    )


def run_e2e_suite(
    preset: str = "full",
    repeats: int = 2,
    workers: int | None = None,
    kernel_backend: str | None = None,
) -> list[dict[str, Any]]:
    """Wall-clock full detector runs; also records simulated seconds.

    The simulated time is carried along as a tripwire: a host-speed
    optimization must leave ``sim_s`` bit-identical, so a drift here means
    the cost model or the algorithm itself changed.

    Cells are timed **sequentially** on purpose, even with ``workers``:
    concurrently-timed cells would contend for cores and corrupt the wall
    numbers. ``workers`` instead drives the detector-internal backend
    (EPP's base ensemble) and, when ``> 1``, appends one
    ``epp_workers_ab`` entry per graph — the fair interleaved serial-vs-
    process comparison the multicore speedup claims are measured by.

    ``kernel_backend`` selects who executes every timed detector's hot
    loops (recorded per entry as ``backend``). When the numba backend is
    available, ``plp_backend_ab``/``plm_backend_ab`` entries per graph
    carry the interleaved NumPy-vs-Numba end-to-end comparison with JIT
    compile time excluded (``compile_s``).
    """
    effective = resolve_backend(workers).workers
    resolved_kb = resolve_kernel_backend(kernel_backend)
    entries: list[dict[str, Any]] = []
    for size, graph in _graphs(preset):
        for name in E2E_ALGORITHMS:
            run = interleave(
                {
                    name: lambda: _e2e_detector(
                        name, workers, kernel_backend=kernel_backend
                    ).run(graph)
                },
                repeats,
                warmup=1,
            )[name]
            entries.append(
                entry(
                    f"{name}_run",
                    graph,
                    size,
                    run.summary.n,
                    run.summary.best,
                    sim_s=float(run.results[-1].timing.total),
                    backend=resolved_kb,
                )
            )
        if effective > 1:
            entries.append(_epp_workers_ab(graph, size, repeats, effective))
        if _numba_ready():
            for name in ("plp", "plm"):
                entries.append(
                    _backend_ab(
                        f"{name}_backend_ab",
                        graph,
                        size,
                        repeats,
                        lambda b, n=name, g=graph: _e2e_fingerprint(
                            n, g, workers, b
                        ),
                    )
                )
    return entries


# ----------------------------------------------------------------------
# Scale suite (fig9-class inputs, §V-H)
# ----------------------------------------------------------------------
def _pool_pids(backend) -> list[int]:
    """PIDs of the backend's live pool workers ([] for serial/no pool)."""
    return sorted(getattr(getattr(backend, "_pool", None), "_processes", None) or ())


def _worker_peaks_mb(backend) -> dict[str, float]:
    """Per-worker VmHWM (MiB) of the pool's processes, keyed by pid string."""
    peaks = {str(pid): peak_rss_mb(pid) for pid in _pool_pids(backend)}
    return {pid: round(p, 1) for pid, p in peaks.items() if p is not None}


_RMAT_FIG9 = dict(scale=20, edge_factor=12, seed=42)
_RMAT_1M = dict(scale=17, edge_factor=8, seed=42)

#: Per preset: R-MAT args and, over :data:`_SCALE_DEFAULTS`, planted-
#: partition args, loop-sampler cap, detectors, generator repeats, shards.
_SCALE_PRESETS: dict[str, dict[str, Any]] = {
    # >= 10M undirected edges on both instance classes — the fig9-class
    # target of the scale path.
    "scale": dict(
        rmat=_RMAT_FIG9,
        pp=dict(n=1_000_000, k=100, p_in=1.7e-3, p_out=4.2e-6, seed=42),
        loop_samples=100_000,
        detectors=("plp", "plm", "epp"),
        gen_repeats=3,
        shards=4,
    ),
    # ~1M-edge R-MAT only; the CI scale-smoke tier.
    "scale-smoke": dict(
        rmat=_RMAT_1M, loop_samples=20_000, detectors=("plp",), gen_repeats=3
    ),
    # Seconds-fast variant for the benchmark suite's schema test.
    "scale-tiny": dict(
        rmat=dict(scale=12, edge_factor=8, seed=42),
        pp=dict(n=2_000, k=8, p_in=0.04, p_out=0.002, seed=42),
        loop_samples=2_000,
        detectors=("plp",),
        shards=2,
    ),
    # Sharded detection A/B on the fig9-class R-MAT: k shm CSR shards on
    # the process pool vs the monolithic single-segment run, per-worker
    # peak RSS on both sides.
    "scale-sharded": dict(rmat=_RMAT_FIG9, shards=4),
    # ~1M-edge R-MAT sharded tier — the CI shard-smoke pin.
    "scale-sharded-smoke": dict(rmat=_RMAT_1M, shards=2),
}
_SCALE_DEFAULTS = dict(
    pp=None, loop_samples=None, detectors=(), gen_repeats=1, shards=None
)


def _scale_generate_entry(
    label: str, build: Callable[[], Graph], size: str, repeats: int
) -> tuple[Graph, dict[str, Any]]:
    """Time a full generator call (best-of-``repeats``) with peak RSS."""
    reset_peak_rss()
    graph = build()  # warmup; also the instance handed to the detectors
    best = time_best(build, repeats - 1, warmup=0).best
    peak = peak_rss_mb()
    return graph, entry(
        f"{label}_generate",
        graph,
        size,
        max(1, repeats),
        best,
        edges_per_s=round(graph.m / best, 1) if best > 0 else float("inf"),
        peak_rss_mb=None if peak is None else round(peak, 1),
    )


def _rmat_gen_ab(
    graph: Graph, size: str, args: dict[str, Any], loop_samples: int, repeats: int
) -> dict[str, Any]:
    """Interleaved A/B of the vectorized vs the loop R-MAT *sampler*.

    Measures the sampling phase (endpoint-pair generation) both
    implementations share semantics on; CSR assembly downstream is
    identical code for both and excluded. The loop side is timed on
    ``loop_samples`` pairs and extrapolated to a rate — running it at
    full fig9 size would take minutes per round. Rounds alternate
    vec/loop so drifting host load biases neither side.
    """
    from repro.graph.generators import PAPER_RMAT, _rmat_sample
    from repro.graph.reference import rmat_sample_loop

    scale = int(args["scale"])
    m = (1 << scale) * int(args["edge_factor"])
    a, b, c, d = PAPER_RMAT
    loop_n = min(loop_samples, m)
    def fresh_rng() -> np.random.Generator:
        return np.random.default_rng(args.get("seed", 0))

    ab = interleave(
        {
            "vec": (fresh_rng, lambda rng: _rmat_sample(rng, scale, m, a, b, c, d)),
            "loop": (
                fresh_rng,
                lambda rng: rmat_sample_loop(rng, scale, loop_n, a, b, c, d),
            ),
        },
        repeats,
        keep=lambda pairs: None,
    )
    best_vec, best_loop = ab["vec"].summary.best, ab["loop"].summary.best
    vec_eps = m / best_vec
    loop_eps = loop_n / best_loop
    return entry(
        "rmat_gen_ab",
        graph,
        size,
        ab["vec"].summary.n,
        best_vec,
        samples=int(m),
        vec_edges_per_s=round(vec_eps, 1),
        loop_samples=int(loop_n),
        loop_wall_s=best_loop,
        loop_edges_per_s=round(loop_eps, 1),
        gen_speedup=round(vec_eps / loop_eps, 1),
        note="sampling phase; loop side capped at loop_samples and "
        "extrapolated per-pair; interleaved best-of rounds",
    )


def _scale_detect_entry(
    name: str, graph: Graph, size: str, workers: int | None
) -> dict[str, Any]:
    """One timed detector run with peak RSS (no warmup — detection at
    fig9 size is minutes-long, and allocation noise is small against it).

    Besides the parent's peak, any live pool workers are VmHWM-reset
    before and sampled after the run, so detector-internal pool phases
    (EPP's ensemble, sharded rounds) report ``per_worker_peak_rss_mb``
    instead of hiding their footprint behind the parent's number.
    """
    backend = resolve_backend(workers)
    for pid in ("self", *_pool_pids(backend)):
        reset_peak_rss(pid)
    result, wall = timed(_e2e_detector(name, workers).run, graph)
    extra: dict[str, Any] = {}
    worker_peaks = _worker_peaks_mb(backend)
    if worker_peaks:
        extra["per_worker_peak_rss_mb"] = worker_peaks
        extra["worker_peak_rss_mb"] = max(worker_peaks.values())
    peak = peak_rss_mb()
    return entry(
        f"{name}_detect",
        graph,
        size,
        1,
        wall,
        sim_s=float(result.timing.total),
        sim_edges_per_s=round(graph.m / result.timing.total, 1)
        if result.timing.total
        else float("inf"),
        peak_rss_mb=None if peak is None else round(peak, 1),
        communities=int(np.unique(result.partition.labels).size),
        **extra,
    )


def _scale_sharded_entry(
    graph: Graph, size: str, shards: int, workers: int | None, repeats: int = 1
) -> dict[str, Any]:
    """Interleaved sharded-vs-monolithic detection A/B with memory claim.

    Alternates the monolithic single-segment run (``ShardedPLP(shards=1)``,
    inline: one process holds the whole CSR — its parent VmHWM *is* the
    per-worker memory of the unsharded path) with the k-shard pooled run
    (each pool worker maps one shard segment at a time and self-reports
    its VmHWM per round task). ``labels_match`` asserts canonical-label
    agreement, ``identical`` the stronger byte equality the sharding
    contract actually guarantees; ``rss_ratio`` is the bounded-memory
    headline — sharded per-worker peak over monolithic.
    """
    from repro.community import ShardedPLP
    from repro.parallel.racecheck import canonical_labels

    def mono_run(_):
        result = ShardedPLP(threads=4, seed=1, shards=1, workers=1).run(graph)
        return result, peak_rss_mb()

    ab = interleave(
        {
            "mono": (reset_peak_rss, mono_run),
            "shard": lambda: ShardedPLP(
                threads=4, seed=1, shards=shards, workers=workers
            ).run(graph),
        },
        repeats,
    )
    mono_peaks = [peak for _, peak in ab["mono"].results if peak is not None]
    worker_peaks = [
        r.info["worker_peak_rss_mb"]
        for r in ab["shard"].results
        if r.info.get("worker_peak_rss_mb") is not None
    ]
    mono_peak = round(max(mono_peaks), 1) if mono_peaks else None
    worker_peak = max(worker_peaks) if worker_peaks else None
    mono_labels = ab["mono"].results[-1][0].partition.labels
    shard_labels = ab["shard"].results[-1].partition.labels
    return entry(
        "plp_sharded_ab",
        graph,
        size,
        ab["shard"].summary.n,
        ab["shard"].summary.best,
        shards=int(shards),
        workers=int(resolve_backend(workers).workers),
        mono_wall_s=ab["mono"].summary.best,
        mono_worker_peak_rss_mb=mono_peak,
        worker_peak_rss_mb=worker_peak,
        rss_ratio=round(worker_peak / mono_peak, 3)
        if worker_peak is not None and mono_peak
        else None,
        labels_match=bool(
            np.array_equal(
                canonical_labels(mono_labels), canonical_labels(shard_labels)
            )
        ),
        identical=bool(np.array_equal(mono_labels, shard_labels)),
        communities=int(np.unique(shard_labels).size),
        note="interleaved monolithic (shards=1, inline, parent VmHWM) vs "
        "k-shard pooled (workers self-report VmHWM per round task)",
    )


def run_scale_suite(
    preset: str = "scale",
    workers: int | None = None,
    dtype_policy: str = "wide",
) -> list[dict[str, Any]]:
    """Massive-input scale benchmarks (fig9-class, §V-H).

    Per instance: full-generator wall time with generation throughput and
    peak RSS, the interleaved vectorized-vs-loop R-MAT sampler A/B
    (``rmat_gen_ab.gen_speedup`` is the scale path's headline number), and
    one timed detection run per configured algorithm (PLP always; PLM and
    EPP on the full preset). ``workers`` drives EPP's internal ensemble
    backend exactly as in the e2e suite.
    """
    if preset not in _SCALE_PRESETS:
        raise ValueError(
            f"unknown scale preset {preset!r} (use {sorted(_SCALE_PRESETS)})"
        )
    cfg = {**_SCALE_DEFAULTS, **_SCALE_PRESETS[preset]}
    entries: list[dict[str, Any]] = []
    instances: list[tuple[str, Graph]] = []

    rmat_args = cfg["rmat"]
    size = f"2^{rmat_args['scale']}x{rmat_args['edge_factor']}"
    graph, gen = _scale_generate_entry(
        "rmat",
        lambda: rmat(dtype_policy=dtype_policy, **rmat_args),
        size,
        cfg["gen_repeats"],
    )
    entries.append(gen)
    if cfg["loop_samples"]:
        entries.append(
            _rmat_gen_ab(
                graph, size, rmat_args, cfg["loop_samples"], cfg["gen_repeats"]
            )
        )
    instances.append((size, graph))

    if cfg["pp"] is not None:
        pp_args = cfg["pp"]
        size = f"n{pp_args['n']}"
        graph, gen = _scale_generate_entry(
            "pp",
            lambda: planted_partition(dtype_policy=dtype_policy, **pp_args)[0],
            size,
            cfg["gen_repeats"],
        )
        entries.append(gen)
        instances.append((size, graph))

    for size, graph in instances:
        for name in cfg["detectors"]:
            entries.append(_scale_detect_entry(name, graph, size, workers))
    if cfg["shards"]:
        size, graph = instances[0]  # the R-MAT instance
        entries.append(
            _scale_sharded_entry(graph, size, cfg["shards"], workers)
        )
    return entries


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
#: Subcommand -> suite runner; each runner gets the options it names.
SUITES: dict[str, Callable[..., list[dict[str, Any]]]] = {
    "kernels": run_kernel_suite,
    "e2e": run_e2e_suite,
    "scale": run_scale_suite,
    "quality": run_quality_suite,
    "stream": run_stream_suite,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.bench.wallclock", description=__doc__.split("\n")[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)
    presets = {
        "kernels": (["smoke", "full"], "full", 5),
        "e2e": (["smoke", "full"], "full", 2),
        "scale": (sorted(_SCALE_PRESETS), "scale", None),
        "quality": (["smoke", "full"], "full", 1),
        "stream": (sorted(STREAM_PRESETS), "stream", 3),
    }
    p: dict[str, argparse.ArgumentParser] = {}
    for kind, (choices, default, repeats) in presets.items():
        p[kind] = sp = sub.add_parser(kind, help=f"run the {kind} suite")
        sp.add_argument("--preset", default=default, choices=choices)
        sp.add_argument("--out", default=f"BENCH_{kind}.json")
        sp.add_argument(
            "--baseline",
            default=None,
            help="previous run of the same suite; adds before/after numbers",
        )
        if repeats is not None:
            sp.add_argument("--repeats", type=int, default=repeats)
    for kind in ("kernels", "e2e", "scale"):
        p[kind].add_argument(
            "--workers",
            type=int,
            default=None,
            help="host worker processes (shared-memory pool; default: "
            "REPRO_WORKERS or 1 = serial). kernels: fans out cells; "
            "e2e/scale: drives EPP's internal backend (+ epp_workers_ab)",
        )
    for kind in ("kernels", "e2e", "stream"):
        p[kind].add_argument(
            "--kernel-backend",
            choices=["numpy", "numba", "auto"],
            default=None,
            help="hot-loop executor for the timed detectors (default: "
            "REPRO_KERNEL_BACKEND or numpy); *_backend_ab entries are "
            "emitted whenever the numba backend is available",
        )
    for kind in ("quality", "stream"):
        p[kind].add_argument("--threads", type=int, default=32)
        p[kind].add_argument("--seed", type=int, default=0)
    p["scale"].add_argument(
        "--dtype-policy", default="wide", choices=["wide", "lean"],
        help="CSR dtype policy for the generated instances",
    )
    p["scale"].add_argument(
        "--assert-sharded",
        action="store_true",
        help="fail (exit 1) unless the plp_sharded_ab entry shows "
        "canonical-label agreement AND sharded per-worker peak RSS "
        "strictly below the monolithic run — the CI shard-smoke pin",
    )
    for kind, sp in p.items():
        add_floor_options(sp, kind)
    v = sub.add_parser("validate", help="validate BENCH_*.json schema")
    v.add_argument("files", nargs="+")
    return parser


def _validate_files(paths: list[str]) -> int:
    failed = False
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        problems = validate_document(doc)
        failed |= bool(problems)
        n = len(doc.get("benchmarks") or ())
        print(f"{path}: {'INVALID' if problems else f'ok ({n} benchmarks)'}")
        for p in problems:
            print(f"  - {p}")
    return int(failed)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "validate":
        return _validate_files(args.files)
    options = vars(args)
    run = SUITES[args.command]
    params = inspect.signature(run).parameters
    entries = run(**{k: v for k, v in options.items() if k in params})
    return publish(args.command, entries, options)


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
