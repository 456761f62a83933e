"""Streaming-detection benchmark: sustained events/s on an evolving graph.

The dynamic path's wall-clock suite (``BENCH_stream.json``, emitted by
``python -m repro.bench.wallclock stream``). A preset defines two
instances and drives timestamped edge batches through them:

* an **R-MAT instance** under add/remove churn exercises the batched
  edit path (``dyn_apply_events`` events/s) plus the file-streaming
  ingest driver (``edgelist_ingest_stream``: the same batches
  round-tripped through a text edge list and re-applied from
  :func:`iter_edgelist_event_batches`);
* a **uniform-degree instance** under weighted uniform churn measures
  the delta-CSR freeze (``freeze_delta_ab``: delta splice vs forced full
  rebuild on the same pending batch, byte-identity checked every
  round). The freeze A/B deliberately avoids scale-free substrates:
  on an R-MAT graph a ~1% *row*-dirty batch lands on hubs carrying
  ~20% of all CSR entries (removals sample edges, which is size-biased
  sampling of rows), so the dirty-entry mass — not the splice — bounds
  the speedup. On a uniform-degree graph dirty entries track dirty
  rows 1:1 and the delta path shows its true asymptotics. The churn is
  weighted (see :func:`uniform_churn_batches`) so the full-rebuild arm
  pays the general sort-based assembly rather than the unit-weight
  counting-sort shortcut;
* a **planted-partition instance** under community-local churn feeds the
  incremental detectors: ``dplp_stream``/``dplm_stream`` report sustained
  events/s and per-batch p50/max detect latency over the full
  apply → freeze → drain → update cycle, and ``dplm_incremental_ab``
  interleaves :meth:`~repro.community.dplm.DynamicPLM.update` with a
  full PLM recompute per batch, reporting the per-batch speedup and the
  NMI of the incremental partition against the full-recompute one (the
  quality pin: incremental must track full recompute, not just stay
  modular).

Every stream is deterministic given ``(preset, threads, seed)``: the
generators and churn are seeded and batches are materialized up front.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from collections import Counter
from contextlib import nullcontext
from typing import Any, Iterator

import numpy as np

from repro.bench.core import entry, interleave, latency_ms, time_best, timed
from repro.community.dplm import DynamicPLM
from repro.community.dplp import DynamicPLP
from repro.community.plm import PLM
from repro.graph.csr import Graph
from repro.graph.dynamic import EVENT_ADD, EVENT_REMOVE, DynamicGraph
from repro.graph.generators import planted_partition, rmat
from repro.graph.io import _iter_line_blocks
from repro.partition.compare import normalized_mutual_information

__all__ = [
    "STREAM_PRESETS",
    "EventColumns",
    "iter_edgelist_event_batches",
    "planted_churn_batches",
    "rmat_churn_batches",
    "run_stream_suite",
    "uniform_churn_batches",
]

#: One event batch as aligned columns ``(us, vs, ws, kinds)``.
EventColumns = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

#: Stream suite presets. ``stream`` is the committed-document
#: configuration (2M-edge R-MAT for edit/ingest throughput, a ≥1M-edge
#: uniform-degree instance for the freeze A/B at ≤1% dirty rows,
#: 20k-node planted churn for the detector A/B); ``stream-smoke`` is the
#: CI job's quick variant; ``stream-tiny`` exists for unit tests. The
#: ``freeze`` instance is a planted partition used purely as a
#: uniform-degree substrate (avg degree ~16) so dirty entries stay
#: proportional to dirty rows — see the module docstring.
STREAM_PRESETS: dict[str, dict[str, Any]] = {
    "stream": {
        "rmat_scale": 18,
        "rmat_edge_factor": 8,
        "freeze": dict(n=250000, k=500, p_in=0.028, p_out=0.000008),
        "freeze_batch_events": 1200,
        "apply_batches": 8,
        "planted": dict(n=20000, k=50, p_in=0.04, p_out=0.0001),
        "stream_batches": 6,
        "batch_events": 300,
        "churn_communities": 3,
        "ab_batches": 5,
        "gen_seed": 42,
        "churn_seed": 7,
        "size_rmat": "2m",
        "size_freeze": "2m",
        "size_planted": "200k",
    },
    "stream-smoke": {
        "rmat_scale": 14,
        "rmat_edge_factor": 8,
        "freeze": dict(n=20000, k=50, p_in=0.035, p_out=0.0001),
        "freeze_batch_events": 150,
        "apply_batches": 4,
        "planted": dict(n=4000, k=20, p_in=0.06, p_out=0.0004),
        "stream_batches": 4,
        "batch_events": 150,
        "churn_communities": 2,
        "ab_batches": 3,
        "gen_seed": 42,
        "churn_seed": 7,
        "size_rmat": "100k",
        "size_freeze": "150k",
        "size_planted": "30k",
    },
    "stream-tiny": {
        "rmat_scale": 9,
        "rmat_edge_factor": 4,
        "freeze": dict(n=600, k=6, p_in=0.15, p_out=0.004),
        "freeze_batch_events": 12,
        "apply_batches": 2,
        "planted": dict(n=600, k=6, p_in=0.15, p_out=0.004),
        "stream_batches": 2,
        "batch_events": 40,
        "churn_communities": 2,
        "ab_batches": 2,
        "gen_seed": 42,
        "churn_seed": 7,
        "size_rmat": "2k",
        "size_freeze": "8k",
        "size_planted": "8k",
    },
}


# ----------------------------------------------------------------------
# Event sources
# ----------------------------------------------------------------------
def iter_edgelist_event_batches(
    path,
    batch_events: int = 100_000,
    comments: str = "#",
    block_bytes: int = 1 << 24,
) -> Iterator[EventColumns]:
    """Stream a text edge list as batches of ``add`` events.

    The file-backed twin of the churn generators: each whitespace line
    ``u v [w]`` becomes one add event, parsed in bounded text blocks by
    the per-line tokenizer :func:`~repro.graph.io.read_edgelist_chunked`
    falls back to, re-chunked to ``batch_events`` events per batch — so a
    multi-GB edge list streams through :meth:`DynamicGraph.apply_events`
    without ever materializing the full event list.
    """
    rest = (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.float64))
    is_path = isinstance(path, (str, os.PathLike))
    with open(path, encoding="ascii") if is_path else nullcontext(path) as fh:
        for block in _iter_line_blocks(fh, block_bytes):
            rows = [
                tokens
                for line in block.splitlines()
                for tokens in [line.split(comments, 1)[0].split()]
                if tokens
            ]
            cols = (
                np.array([int(r[0]) for r in rows], np.int64),
                np.array([int(r[1]) for r in rows], np.int64),
                np.array([float(r[2]) if len(r) > 2 else 1.0 for r in rows]),
            )
            rest = tuple(np.concatenate(pair) for pair in zip(rest, cols))
            while rest[0].size >= batch_events:
                yield (*(c[:batch_events] for c in rest), _adds(batch_events))
                rest = tuple(c[batch_events:] for c in rest)
    if rest[0].size:
        yield (*rest, _adds(rest[0].size))


def _adds(size: int) -> np.ndarray:
    return np.full(size, EVENT_ADD, np.uint8)


def rmat_churn_batches(
    graph: Graph,
    batches: int,
    batch_events: int,
    seed: int = 0,
    add_fraction: float = 0.5,
) -> list[EventColumns]:
    """Evolving churn for a (power-law) graph: endpoint-biased add/remove.

    Adds pair the endpoints of two independently sampled existing edges
    (degree-biased, preserving the R-MAT skew); removals sample distinct
    still-alive original edges, so every removal hits an existing edge
    and no edge is removed twice. Batches are materialized up front and
    are deterministic given ``seed``.
    """

    def draw_adds(rng, n_add, us0, vs0):
        au = us0[rng.integers(0, us0.size, size=n_add)]
        av = vs0[rng.integers(0, us0.size, size=n_add)]
        keep = au != av
        return au[keep], av[keep], np.ones(int(keep.sum()))

    return _churn(graph, batches, batch_events, seed, add_fraction, draw_adds, 1.0)


def uniform_churn_batches(
    graph: Graph,
    batches: int,
    batch_events: int,
    seed: int = 0,
    add_fraction: float = 0.5,
) -> list[EventColumns]:
    """Degree-neutral *weighted* churn: uniform adds, uniform removals.

    Adds sample both endpoints uniformly from the node set (self-pairs
    dropped) and carry per-event weights in ``[0.5, 1.5)``; removals
    sample distinct still-alive original edges (their ``ws`` column is
    ignored by :meth:`DynamicGraph.apply_events`, which records the
    removed weight instead). On a uniform-degree graph the dirty-entry
    mass of a batch then tracks its dirty-row count, which is the regime
    the delta-CSR freeze A/B is specified in (``≤1%`` dirty *nodes*).
    The weights matter: a single non-unit weight disqualifies the full
    rebuild from :func:`~repro.graph.builder._assemble_unit_fast`'s
    counting-sort route, so the A/B compares the delta splice (weight-
    agnostic by construction) against the general sort-based assembly —
    the cost a weighted stream actually pays. Deterministic given
    ``seed``.
    """

    def draw_adds(rng, n_add, us0, vs0):
        au = rng.integers(0, graph.n, size=n_add)
        av = rng.integers(0, graph.n, size=n_add)
        keep = au != av
        return au[keep], av[keep], rng.uniform(0.5, 1.5, size=int(keep.sum()))

    return _churn(graph, batches, batch_events, seed, add_fraction, draw_adds, 0.0)


def _churn(
    graph: Graph,
    batches: int,
    batch_events: int,
    seed: int,
    add_fraction: float,
    draw_adds,
    removed_weight: float,
) -> list[EventColumns]:
    """Batches of ``draw_adds(rng, n_add, us0, vs0)`` adds ``(us, vs, ws)``
    followed by removals of distinct still-alive original edges."""
    rng = np.random.default_rng(seed)
    us0, vs0, _ = graph.edge_array()
    alive = np.ones(us0.size, dtype=bool)
    out: list[EventColumns] = []
    for _ in range(batches):
        n_add = int(batch_events * add_fraction)
        au, av, aw = draw_adds(rng, n_add, us0, vs0)
        cand = np.flatnonzero(alive)
        n_rem = min(batch_events - n_add, cand.size)
        pick = rng.choice(cand, size=n_rem, replace=False)
        alive[pick] = False
        out.append(
            (
                np.concatenate([au, us0[pick]]),
                np.concatenate([av, vs0[pick]]),
                np.concatenate([aw, np.full(pick.size, removed_weight)]),
                np.concatenate(
                    [_adds(au.size), np.full(pick.size, EVENT_REMOVE, np.uint8)]
                ),
            )
        )
    return out


def planted_churn_batches(
    graph: Graph,
    truth: np.ndarray,
    batches: int,
    batch_events: int,
    churn_communities: int = 3,
    seed: int = 0,
) -> list[EventColumns]:
    """Community-local planted churn: bursty activity in a few communities.

    Each batch picks ``churn_communities`` planted communities and edits
    only inside them — half new intra-community edges, half removals of
    still-alive intra-community original edges — the workload incremental
    detection is built for (localized activity, most of the graph quiet)
    while keeping the planted structure (and hence the quality reference)
    intact. Deterministic given ``seed``.
    """
    rng = np.random.default_rng(seed)
    us0, vs0, _ = graph.edge_array()
    alive = np.ones(us0.size, dtype=bool)
    intra = truth[us0] == truth[vs0]
    k = int(truth.max()) + 1
    out: list[EventColumns] = []
    for _ in range(batches):
        comms = rng.choice(k, size=min(churn_communities, k), replace=False)
        per = max(1, batch_events // (2 * comms.size))
        usl: list[np.ndarray] = []
        vsl: list[np.ndarray] = []
        kl: list[np.ndarray] = []
        for c in comms:
            members = np.flatnonzero(truth == c)
            au = rng.choice(members, size=per)
            av = rng.choice(members, size=per)
            keep = au != av
            usl.append(au[keep])
            vsl.append(av[keep])
            kl.append(np.full(int(keep.sum()), EVENT_ADD, np.uint8))
            cand = np.flatnonzero(alive & intra & (truth[us0] == c))
            pick = rng.choice(cand, size=min(per, cand.size), replace=False)
            alive[pick] = False
            usl.append(us0[pick])
            vsl.append(vs0[pick])
            kl.append(np.full(pick.size, EVENT_REMOVE, np.uint8))
        us = np.concatenate(usl)
        vs = np.concatenate(vsl)
        out.append(
            (us, vs, np.ones(us.size, np.float64), np.concatenate(kl))
        )
    return out


# ----------------------------------------------------------------------
# Suite entries
# ----------------------------------------------------------------------
def _graph_digest(graph: Graph) -> bytes:
    """Digest of a CSR graph's arrays, dtypes included."""
    h = hashlib.sha256()
    for arr in (graph.indptr, graph.indices, graph.weights):
        h.update(arr.dtype.str.encode())
        h.update(np.ascontiguousarray(arr))
    return h.digest()


def _apply_events_entry(
    graph: Graph, batches: list[EventColumns], size: str, repeats: int
) -> dict[str, Any]:
    """``dyn_apply_events``: batched edit throughput (events/s)."""
    total = sum(int(b[0].size) for b in batches)

    def run() -> None:
        dyn = DynamicGraph.from_graph(graph)
        for us, vs, ws, kinds in batches:
            dyn.apply_events(us, vs, ws, kinds)

    best = time_best(run, repeats).best
    return entry(
        "dyn_apply_events",
        graph,
        size,
        repeats,
        best,
        events=total,
        batches=len(batches),
        events_per_s=total / best if best > 0 else 0.0,
    )


def _freeze_ab_entry(
    graph: Graph, batch: EventColumns, size: str, repeats: int
) -> dict[str, Any]:
    """``freeze_delta_ab``: delta-CSR splice vs forced full rebuild.

    Both freezes consume the *same* pending batch (state is rebuilt from
    the base snapshot each round — ``from_graph`` is O(1) array adoption),
    and the resulting graphs are checked byte-identical every round.
    """
    us, vs, ws, kinds = batch
    stats: dict[str, Any] = {}

    def pending(**options: float) -> DynamicGraph:
        dyn = DynamicGraph.from_graph(graph, **options)
        dyn.apply_events(us, vs, ws, kinds)
        return dyn

    def delta_freeze(dyn: DynamicGraph) -> Graph:
        snap = dyn.freeze()
        stats.update(dyn.last_freeze or {})
        return snap

    ab = interleave(
        {
            "delta": (pending, delta_freeze),
            # delta_threshold -1 forces the full-rebuild path
            "full": (lambda: pending(delta_threshold=-1.0), DynamicGraph.freeze),
        },
        repeats,
        keep=_graph_digest,
    )
    delta_best = ab["delta"].summary.best
    full_best = ab["full"].summary.best
    return entry(
        "freeze_delta_ab",
        graph,
        size,
        repeats,
        delta_best,
        full_wall_s=full_best,
        freeze_speedup=full_best / delta_best if delta_best > 0 else 0.0,
        dirty_rows=int(stats.get("dirty_rows", 0)),
        dirty_fraction=float(stats.get("dirty_fraction", 0.0)),
        events=int(us.size),
        identical=len({d for arm in ab.values() for d in arm.results}) == 1,
    )


def _edgelist_ingest_entry(
    graph: Graph,
    batches: list[EventColumns],
    size: str,
    batch_events: int,
) -> dict[str, Any]:
    """``edgelist_ingest_stream``: file-streamed add batches applied live.

    Round-trips the churn batches' *add* events through a text edge list
    and replays them from :func:`iter_edgelist_event_batches` — the
    timed region covers parsing and :meth:`DynamicGraph.apply_events`.
    """
    adds = [
        (us[kinds == EVENT_ADD], vs[kinds == EVENT_ADD])
        for us, vs, ws, kinds in batches
    ]
    total = sum(int(u.size) for u, _ in adds)
    fd, path = tempfile.mkstemp(suffix=".edges", text=True)
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write("# streamed add events\n")
            for u, v in adds:
                np.savetxt(fh, np.column_stack([u, v]), fmt="%d")
        dyn = DynamicGraph.from_graph(graph)

        def replay() -> int:
            applied = 0
            for us, vs, ws, kinds in iter_edgelist_event_batches(
                path, batch_events=batch_events
            ):
                dyn.apply_events(us, vs, ws, kinds)
                applied += int(us.size)
            return applied

        applied, wall = timed(replay)
    finally:
        os.unlink(path)
    if applied != total:
        raise AssertionError(
            f"edgelist stream dropped events ({applied} != {total})"
        )
    return entry(
        "edgelist_ingest_stream",
        graph,
        size,
        1,
        wall,
        events=total,
        events_per_s=total / wall if wall > 0 else 0.0,
    )


def _detector_stream_entry(
    name: str,
    detector,
    graph: Graph,
    batches: list[EventColumns],
    size: str,
) -> dict[str, Any]:
    """``dplp_stream``/``dplm_stream``: sustained detect-refresh loop.

    Per batch the timed cycle is apply → freeze → drain → ``update``;
    the entry reports sustained events/s plus p50/max per-batch latency.
    The initial full run is reported separately (``cold_run_s``).
    """
    dyn = DynamicGraph.from_graph(graph)
    _, cold = timed(detector.run, graph)

    def cycle(batch: EventColumns) -> tuple[int, str]:
        dyn.apply_events(*batch)
        snap = dyn.freeze()
        events = dyn.drain_events()
        result = detector.update(snap, events)
        return len(events), result.info.get("mode", "incremental")

    it = iter(batches)
    run = interleave({name: (lambda: next(it), cycle)}, len(batches))[name]
    total = sum(count for count, _ in run.results)
    modes = dict(Counter(mode for _, mode in run.results))
    wall = float(sum(run.summary.samples))
    return entry(
        name,
        graph,
        size,
        1,
        wall,
        events=total,
        batches=len(batches),
        events_per_s=total / wall if wall > 0 else 0.0,
        **latency_ms(run.summary),
        cold_run_s=cold,
        update_modes=modes,
    )


def _dplm_ab_entry(
    graph: Graph,
    batches: list[EventColumns],
    size: str,
    threads: int,
    seed: int,
    kernel_backend: str | None,
) -> dict[str, Any]:
    """``dplm_incremental_ab``: incremental update vs full PLM per batch.

    Interleaved A/B on identical snapshots: each batch times
    :meth:`DynamicPLM.update` against a from-scratch PLM run and scores
    the NMI between the two partitions. ``wall_s`` is the mean
    incremental batch; ``update_speedup`` the ratio of means; ``nmi_min``
    the worst-batch agreement (the committed quality pin).
    """
    dplm = DynamicPLM(threads=threads, seed=seed, kernel_backend=kernel_backend)
    full = PLM(threads=threads, seed=seed, kernel_backend=kernel_backend)
    dyn = DynamicGraph.from_graph(graph)
    dplm.run(graph)
    it = iter(batches)
    latest: dict[str, Graph] = {}

    def next_snapshot() -> tuple[Graph, list]:
        dyn.apply_events(*next(it))
        latest["snap"] = dyn.freeze(name=graph.name)
        return latest["snap"], dyn.drain_events()

    ab = interleave(
        {
            "incremental": (next_snapshot, lambda se: dplm.update(*se)),
            "full": (lambda: latest["snap"], full.run),
        },
        len(batches),
    )
    inc, scratch = ab["incremental"], ab["full"]
    nmis = [
        float(normalized_mutual_information(a.labels, b.labels))
        for a, b in zip(inc.results, scratch.results)
    ]
    inc_mean, full_mean = inc.summary.mean, scratch.summary.mean
    return entry(
        "dplm_incremental_ab",
        latest["snap"],
        size,
        1,
        inc_mean,
        full_wall_s=full_mean,
        update_speedup=full_mean / inc_mean if inc_mean > 0 else 0.0,
        nmi_min=float(min(nmis)),
        nmi_mean=float(np.mean(nmis)),
        batches=len(batches),
        incremental_batches=sum(
            r.info.get("mode") == "incremental" for r in inc.results
        ),
    )


# ----------------------------------------------------------------------
# Suite driver
# ----------------------------------------------------------------------
def run_stream_suite(
    preset: str,
    repeats: int = 3,
    threads: int = 32,
    seed: int = 0,
    kernel_backend: str | None = None,
) -> list[dict[str, Any]]:
    """Run the streaming suite of ``preset``; returns the entry list.

    Entry order: ``dyn_apply_events`` (R-MAT instance),
    ``freeze_delta_ab`` (uniform-degree instance),
    ``edgelist_ingest_stream`` (R-MAT instance), then ``dplp_stream``,
    ``dplm_stream``, ``dplm_incremental_ab`` (planted instance).
    """
    if preset not in STREAM_PRESETS:
        raise ValueError(
            f"unknown stream preset {preset!r} (use {sorted(STREAM_PRESETS)})"
        )
    cfg = STREAM_PRESETS[preset]
    gen_seed, churn_seed = cfg["gen_seed"], cfg["churn_seed"]
    events, size = cfg["freeze_batch_events"], cfg["size_rmat"]
    g = rmat(
        cfg["rmat_scale"], cfg["rmat_edge_factor"], seed=gen_seed,
        name=f"rmat_{cfg['rmat_scale']}",
    )
    apply_batches = rmat_churn_batches(g, cfg["apply_batches"], events, churn_seed)
    entries = [_apply_events_entry(g, apply_batches, size, repeats)]
    fg, _ = planted_partition(
        **cfg["freeze"], seed=gen_seed, name=f"uniform_{cfg['freeze']['n']}"
    )
    freeze_batch = uniform_churn_batches(fg, 1, events, seed=churn_seed)[0]
    entries.append(_freeze_ab_entry(fg, freeze_batch, cfg["size_freeze"], repeats))
    entries.append(_edgelist_ingest_entry(g, apply_batches, size, events))

    pg, truth = planted_partition(
        **cfg["planted"], seed=gen_seed, name=f"planted_{cfg['planted']['n']}"
    )

    def churn(batches: int, seed: int) -> list[EventColumns]:
        return planted_churn_batches(
            pg, truth, batches, cfg["batch_events"],
            churn_communities=cfg["churn_communities"], seed=seed,
        )

    size = cfg["size_planted"]
    for name, detector in (("dplp_stream", DynamicPLP), ("dplm_stream", DynamicPLM)):
        entries.append(
            _detector_stream_entry(
                name,
                detector(threads=threads, seed=seed, kernel_backend=kernel_backend),
                pg,
                churn(cfg["stream_batches"], churn_seed),
                size,
            )
        )
    ab_batches = churn(cfg["ab_batches"], churn_seed + 1)
    entries.append(
        _dplm_ab_entry(pg, ab_batches, size, threads, seed, kernel_backend)
    )
    return entries
    return entries
