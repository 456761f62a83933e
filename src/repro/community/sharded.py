"""Sharded label propagation: bounded per-worker memory at any scale.

:class:`ShardedPLP` runs label propagation over the k edge-balanced
shards of :func:`repro.graph.sharding.build_shards`. Each shard's CSR
lives in its own shared-memory segment set; a pool worker maps **one
shard at a time** (a one-slot per-process attachment cache evicts the
previous shard's pages), so per-worker memory is O(n + m/k) instead of
the monolithic path's O(n + m) — the first detection path whose
per-worker footprint does not grow with total graph size.

Synchronous rounds, exact shard-count independence
--------------------------------------------------
:class:`~repro.community.plp.PLP`'s *asynchronous* sweeps commit labels
chunk-by-chunk, so its fixed point depends on the global commit
interleaving — no partitioned execution can reproduce it exactly.
ShardedPLP therefore uses the **synchronous** variant of the update rule
(the Lu & Halappanavar form, arXiv:1410.1237): within a round, every
active node's decision is evaluated against the *round-start* label
snapshot, and all commits apply at the round barrier. A node's decision
is then a pure function of ``(its global id, its neighbors' labels, the
round salt)`` — the shard layout cannot influence it — so the final
labels are **identical for every shard count** (and every worker count,
kernel backend, and schedule). ``shards=1`` *is* the monolithic
single-segment reference the benchmarks and CI compare against.

The per-node vote is PLP's own (jittered dominant label, strict
improvement): :func:`~repro.community._kernels.plp_vote` or its compiled
twin ``plp_block`` — shard-local CSR slices in, **global** node ids and
label values into the jitter hash, which is what keeps the tie-breaks
layout-invariant.

Boundary-halo exchange
----------------------
Between rounds only boundary state crosses shards: for each shard the
driver applies its own moves, delivers the compact ``(ghost_idx,
label)`` batches for ghosts whose owners moved them, and reactivates the
halo targets (owned nodes adjacent to a changed ghost). Rounds stop at
PLP's theta rule on the *global* update count; a final deterministic
coarsen/merge pass on the label-contracted graph then absorbs the
fragments and oscillation pairs synchronous propagation can leave
behind.
"""

from __future__ import annotations

import os
from typing import Any

import numpy as np

from repro.community._kernels import (
    _hash_jitter,
    compiled_plp_vote,
    group_from_gather,
    kernel_module,
    neighborhood_cache,
    plp_vote,
)
from repro.community.backends import (
    resolve_kernel_backend,
    validate_kernel_backend,
)
from repro.community.base import CommunityDetector
from repro.graph.coarsening import coarsen, prolong
from repro.graph.csr import Graph
from repro.graph.sharding import (
    PARTITIONERS,
    Shard,
    build_shards,
    default_shards,
)
from repro.parallel.backend import (
    SharedArrays,
    SharedGraph,
    _close_segments,
    attach_graph_uncached,
    default_workers,
    peak_rss_mb,
    reset_peak_rss,
    resolve_backend,
    shm_degradation,
)
from repro.parallel.runtime import ParallelRuntime

__all__ = ["ShardedPLP"]

#: Salt offset separating merge-phase sweeps from propagation rounds.
_MERGE_SALT_OFFSET = 1 << 20

#: Salt perturbation for the staggered-eligibility hash (distinct from
#: the scoring jitter so the two draws are uncorrelated).
_STAGGER_SALT = np.uint64(0xD1B54A32D192ED03)

_EMPTY = np.empty(0, dtype=np.int64)


# ----------------------------------------------------------------------
# Worker-side helpers (module-level: picklable, pool-importable)
# ----------------------------------------------------------------------
#: One-slot shard attachment cache, per worker process: a worker serving
#: round tasks holds the pages of at most ONE shard — re-dispatch to the
#: same shard is free, switching shards evicts (munmaps) the old one.
_SHARD_SLOT: dict[str, Any] = {}


def _evict_shard_slot() -> None:
    slot = _SHARD_SLOT.pop("data", None)
    _SHARD_SLOT.pop("key", None)
    if slot is None:
        return
    graph, shms, to_global, aux = slot
    # Views must die before close() for the munmap to actually happen.
    del slot, graph, to_global
    _close_segments(shms, unlink=False)
    aux.close()


def _attach_shard(
    graph_handle: SharedGraph, aux_handle: SharedArrays
) -> tuple[Graph, np.ndarray]:
    key = graph_handle.segment_names[0]
    if _SHARD_SLOT.get("key") == key:
        graph, _, to_global, _ = _SHARD_SLOT["data"]
        return graph, to_global
    _evict_shard_slot()
    graph, shms = attach_graph_uncached(graph_handle)
    to_global = aux_handle.arrays()["to_global"]
    _SHARD_SLOT["key"] = key
    _SHARD_SLOT["data"] = (graph, shms, to_global, aux_handle)
    return graph, to_global


def _sweep_shard(
    graph: Graph,
    to_global: np.ndarray,
    n_owned: int,
    labels: np.ndarray,
    active: np.ndarray,
    salt: np.uint64,
    kernel_backend: str | None,
    sub: ParallelRuntime,
    schedule: str,
    n_global: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One synchronous shard-local sweep against the round-start snapshot.

    Pure: reads ``labels``/``active``, writes nothing — decisions come
    back as ``(moved_global, new_labels, stable_global, react_global)``
    and the driver commits them at the round barrier. Every quantity fed
    to the scoring kernels is global (node ids via ``to_global``, label
    values are global ids already), so the result is independent of the
    shard layout by construction.
    """
    cache = neighborhood_cache(graph)
    degrees = graph.degrees()
    owned = to_global[:n_owned]
    act = np.asarray(active[owned]) & (np.asarray(degrees[:n_owned]) > 0)
    items = np.flatnonzero(act).astype(np.int64)
    if items.size == 0:
        return _EMPTY, _EMPTY, _EMPTY, _EMPTY
    # Semi-synchronous staggering: only a pseudo-random half of the
    # active nodes decides each round, which breaks the label-swap
    # cycles fully synchronous propagation is prone to. Eligibility
    # hashes the GLOBAL id and the round salt only, so it is identical
    # across shard layouts; ineligible nodes simply stay active.
    stag = _hash_jitter(
        to_global[items], to_global[items], salt ^ _STAGGER_SALT
    )
    items = items[stag < 0.5]
    if items.size == 0:
        return _EMPTY, _EMPTY, _EMPTY, _EMPTY
    plan = cache.plan(items)
    backend = resolve_kernel_backend(kernel_backend)
    knb = kernel_module(backend)

    moved_parts: list[np.ndarray] = []
    label_parts: list[np.ndarray] = []
    stable_parts: list[np.ndarray] = []

    if knb is None:

        def kernel(chunk: np.ndarray):
            seg, nbrs, ws = plan.block(chunk)
            # PLP's vote with global ids/labels; ``width=n_global`` keeps
            # the fused group-by exact.
            groups = group_from_gather(
                seg, labels[to_global[nbrs]], ws, width=n_global
            )
            chunk_g = to_global[chunk]
            change, best = plp_vote(groups, chunk_g, labels[chunk_g], salt)
            return chunk[change], best[change], chunk[~change]

    else:
        vote = compiled_plp_vote(knb, n_global, cache.weights.dtype)
        nbrs_g = to_global[plan.nbrs]  # flat global neighbor ids, plan-aligned

        def kernel(chunk: np.ndarray):
            bounds, lo, nbrs, ws = plan.csr_block(chunk)
            # Map a foreign chunk's fresh gather; the plan has nbrs_g.
            nbrs = nbrs_g if nbrs is plan.nbrs else to_global[nbrs]
            change, best = vote(
                to_global[chunk], labels, bounds, lo, nbrs, ws, salt
            )
            return chunk[change], best[change], chunk[~change]

    def commit(update) -> None:
        # Synchronous semantics: buffer the decisions; nothing is applied
        # until the round barrier (the loop body reads only round-start
        # state, so this loop is race-free by construction).
        moved, labs, stable = update
        if moved.size:
            moved_parts.append(moved)
            label_parts.append(labs)
        if stable.size:
            stable_parts.append(stable)

    grain = max(1, min(64, items.size // (sub.threads * 8)))
    sub.parallel_for(
        items,
        kernel,
        commit,
        costs=np.asarray(degrees[items], dtype=np.float64) + 1.0,
        schedule=schedule,
        grain=grain,
        memory_bound=0.8,
        loop="shardedplp.local",
    )
    moved_l = np.concatenate(moved_parts) if moved_parts else _EMPTY
    new_labels = np.concatenate(label_parts) if label_parts else _EMPTY
    stable_l = np.concatenate(stable_parts) if stable_parts else _EMPTY
    if moved_l.size:
        _, nbrs_l, _ = cache.gather(moved_l)
        react_g = np.unique(to_global[nbrs_l])
    else:
        react_g = _EMPTY
    return to_global[moved_l], new_labels, to_global[stable_l], react_g


def _round_task(
    graph_handle: SharedGraph,
    aux_handle: SharedArrays,
    state_handle: SharedArrays,
    n_owned: int,
    salt_int: int,
    kernel_backend: str | None,
    sub: ParallelRuntime,
    schedule: str,
    n_global: int,
    fail: bool,
):
    """Pool-worker round task: attach one shard, sweep, detach state.

    Returns ``(moved, new_labels, stable, react, sub, peak_rss_mb)``.
    The shard CSR stays in the one-slot cache for the next round; the
    (tiny) state attachment is opened and closed per task.
    """
    reset_peak_rss()
    if fail:
        raise RuntimeError("injected shard-worker failure (debug hook)")
    graph, to_global = _attach_shard(graph_handle, aux_handle)
    state = state_handle.arrays()
    out = _sweep_shard(
        graph,
        to_global,
        n_owned,
        state["labels"],
        state["active"],
        np.uint64(salt_int),
        kernel_backend,
        sub,
        schedule,
        n_global,
    )
    state = None  # drop the views before close() so the pages unmap
    state_handle.close()
    return out + (sub, peak_rss_mb())


# ----------------------------------------------------------------------
# The detector
# ----------------------------------------------------------------------
class ShardedPLP(CommunityDetector):
    """Sharded synchronous label propagation with halo exchange.

    Parameters
    ----------
    threads:
        Simulated thread budget, split evenly across the shards.
    shards:
        Shard count ``k``. ``None`` consults ``REPRO_SHARDS`` (default 1).
        Labels are identical for every ``k`` (up to nothing — literally
        byte-identical); only the memory/parallelism profile changes.
    partitioner:
        ``"contiguous"`` (edge-balanced node ranges, default) or
        ``"greedy"`` (degree-aware LPT) — see
        :mod:`repro.graph.sharding`. A host-layout knob only: results do
        not depend on it.
    theta_factor:
        PLP's stopping rule on the global per-round update count.
    max_rounds:
        Hard cap on propagation rounds (synchronous propagation can
        oscillate on bipartite-ish structures; the merge phase absorbs
        the leftovers).
    merge_sweeps:
        Cap on deterministic merge sweeps over the label-contracted
        coarse graph (0 disables the finishing phase).
    schedule:
        Simulated loop schedule for the shard-local sweeps.
    seed:
        Seed for the jitter salt sequence.
    workers:
        Host worker processes (``None`` = ``REPRO_WORKERS``). With
        ``workers > 1`` and ``shards > 1`` the rounds fan out over the
        persistent pool, one shard segment per worker at a time.
    kernel_backend:
        ``"numpy"`` / ``"numba"`` / ``"auto"`` — byte-identical, as for
        PLP.
    """

    name = "ShardedPLP"

    def __init__(
        self,
        threads: int = 1,
        shards: int | None = None,
        partitioner: str = "contiguous",
        theta_factor: float = 1e-5,
        max_rounds: int = 128,
        merge_sweeps: int = 8,
        schedule: str = "guided",
        seed: int = 0,
        workers: int | None = None,
        kernel_backend: str | None = None,
    ) -> None:
        super().__init__(threads=threads)
        if shards is not None and shards < 1:
            raise ValueError("shards must be >= 1")
        if partitioner not in PARTITIONERS:
            raise ValueError(
                f"unknown partitioner {partitioner!r} (choose from {PARTITIONERS})"
            )
        if theta_factor < 0:
            raise ValueError("theta_factor must be non-negative")
        if max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if merge_sweeps < 0:
            raise ValueError("merge_sweeps must be non-negative")
        if kernel_backend is not None:
            validate_kernel_backend(kernel_backend)
        self.shards = shards
        self.partitioner = partitioner
        self.theta_factor = theta_factor
        self.max_rounds = max_rounds
        self.merge_sweeps = merge_sweeps
        self.schedule = schedule
        self.seed = seed
        self.workers = workers
        self.kernel_backend = kernel_backend
        #: Debug hook (tests): raise in every pool task of this round
        #: index, to prove the driver leaks no segments on worker failure.
        self._debug_fail_round: int | None = None

    # ------------------------------------------------------------------
    def _run(
        self, graph: Graph, runtime: ParallelRuntime
    ) -> tuple[np.ndarray, dict[str, Any]]:
        n = graph.n
        k = self.shards if self.shards is not None else default_shards()
        with runtime.section("partition"):
            plan = build_shards(graph, k, self.partitioner)
            runtime.charge(float(graph.indices.size + n), parallel=True)
        k = plan.k
        labels = np.arange(n, dtype=np.int64)
        degrees = np.asarray(graph.degrees(), dtype=np.int64)
        active = degrees > 0
        theta = n * self.theta_factor
        base_salt = np.uint64(
            np.random.default_rng(self.seed).integers(1, 2**63)
        )

        backend = resolve_backend(self.workers)
        pooled = (
            backend.workers > 1
            and runtime.tracer is None
            and runtime.racecheck is None
            and k > 1
        )
        graph_handles: list[SharedGraph] = []
        aux_handles: list[SharedArrays] = []
        state_handle: SharedArrays | None = None
        rounds_info: list[dict[str, int]] = []
        worker_peak: float | None = None
        try:
            if pooled:
                for shard in plan.shards:
                    graph_handles.append(SharedGraph.create(shard.graph))
                    aux_handles.append(
                        SharedArrays.create({"to_global": shard.to_global})
                    )
                state_handle = SharedArrays.create(
                    {"labels": labels, "active": active}
                )
                state = state_handle.arrays()
                labels, active = state["labels"], state["active"]
            rnd = 0
            while rnd < self.max_rounds:
                if not int(np.count_nonzero(active & (degrees > 0))):
                    break
                salt = base_salt + np.uint64(rnd * 1_000_003)
                subs = runtime.split(k, prefix="shard")
                fail = self._debug_fail_round == rnd
                if pooled:
                    tasks = [
                        (
                            graph_handles[s],
                            aux_handles[s],
                            state_handle,
                            plan.shards[s].n_owned,
                            int(salt),
                            self.kernel_backend,
                            subs[s],
                            self.schedule,
                            n,
                            fail,
                        )
                        for s in range(k)
                    ]
                    outs = backend.map(_round_task, tasks)
                    peaks = [o[5] for o in outs if o[5] is not None]
                    if peaks:
                        peak = max(peaks)
                        worker_peak = (
                            peak if worker_peak is None else max(worker_peak, peak)
                        )
                else:
                    if fail:
                        raise RuntimeError(
                            "injected shard-worker failure (debug hook)"
                        )
                    outs = [
                        _sweep_shard(
                            shard.graph,
                            shard.to_global,
                            shard.n_owned,
                            labels,
                            active,
                            salt,
                            self.kernel_backend,
                            subs[s],
                            self.schedule,
                            n,
                        )
                        + (subs[s], None)
                        for s, shard in enumerate(plan.shards)
                    ]
                runtime.join_max([o[4] for o in outs], prefix="shard")
                updated, ghost_updates = self._exchange(
                    runtime, plan, outs, labels, active
                )
                rounds_info.append(
                    {
                        "active": int(
                            sum(o[0].size + o[2].size for o in outs)
                        ),
                        "updated": int(updated),
                        "ghost_updates": int(ghost_updates),
                    }
                )
                rnd += 1
                if updated <= theta:
                    break
            final_labels = np.asarray(labels).copy()
        finally:
            labels = active = None  # drop shm views before release
            for handle in graph_handles:
                handle.release()
            for handle in aux_handles:
                handle.release()
            if state_handle is not None:
                state_handle.release()

        final_labels, merge_info = self._merge(
            graph, final_labels, runtime, base_salt
        )

        info: dict[str, Any] = {
            "shards": k,
            "partitioner": plan.partitioner,
            "rounds": rounds_info,
            "theta": theta,
            "ghosts": plan.ghosts_total,
            "boundary_entries": plan.boundary_edges,
            "shard_entries": plan.balance(),
            "backend": backend.kind if pooled else "inline",
            "merge": merge_info,
        }
        if worker_peak is not None:
            info["worker_peak_rss_mb"] = round(worker_peak, 1)
        requested = default_workers() if self.workers is None else self.workers
        degraded = shm_degradation()
        if requested > 1 and degraded is not None:
            info["backend_degraded"] = degraded
        return final_labels, info

    # ------------------------------------------------------------------
    def _exchange(
        self,
        runtime: ParallelRuntime,
        plan,
        outs,
        labels: np.ndarray,
        active: np.ndarray,
    ) -> tuple[int, int]:
        """The boundary-halo label-exchange barrier.

        Applies the round's buffered decisions to the global state: all
        moves, then all deactivations, then all reactivations (including
        each shard's halo targets for ghosts whose owners moved). With a
        single state segment the ghost "delivery" is a membership probe
        per (source, target) shard pair — the compact ``(ghost_idx,
        label)`` batches the distributed protocol would send — counted
        and charged, so the exchange cost stays visible in traces.
        """
        moved_all = np.concatenate([o[0] for o in outs]) if outs else _EMPTY
        new_all = np.concatenate([o[1] for o in outs]) if outs else _EMPTY
        ghost_updates = 0
        with runtime.section("exchange"):
            labels[moved_all] = new_all
            for o in outs:
                active[o[2]] = False
            react_total = 0
            for o in outs:
                active[o[3]] = True
                react_total += o[3].size
            # Per-target compact ghost batches + halo reactivation. The
            # reactivation targets are already covered by the react sets
            # above (single state segment), but the batch sizes are the
            # real cross-shard traffic — account and report them.
            for t, shard in enumerate(plan.shards):
                if shard.ghost_global.size == 0:
                    continue
                for s in range(plan.k):
                    if s == t or outs[s][0].size == 0:
                        continue
                    moved_s = outs[s][0]
                    idx = np.searchsorted(shard.ghost_global, moved_s)
                    idx = np.minimum(idx, shard.ghost_global.size - 1)
                    hit = shard.ghost_global[idx] == moved_s
                    gidx = idx[hit]
                    if gidx.size:
                        active[shard.halo_targets(gidx)] = True
                        ghost_updates += int(gidx.size)
            runtime.charge(
                float(moved_all.size + react_total + ghost_updates),
                parallel=True,
                memory_bound=0.8,
            )
        return int(moved_all.size), ghost_updates

    # ------------------------------------------------------------------
    def _merge(
        self,
        graph: Graph,
        labels: np.ndarray,
        runtime: ParallelRuntime,
        base_salt: np.uint64,
    ) -> tuple[np.ndarray, dict[str, Any]]:
        """Deterministic coarsen/merge finishing phase.

        Contracts the graph by the propagated labels and runs capped
        synchronous merge sweeps on the coarse (boundary) graph: a
        community joins a neighbor community only when the connecting
        weight strictly exceeds its internal weight plus its weight to
        its current label (jitter-tie-broken, like the propagation
        scoring). Input labels are shard-count independent and the pass
        is deterministic, so the final labels stay shard-count
        independent.
        """
        merge_info: dict[str, Any] = {"coarse_n": 0, "sweeps": 0, "merged": 0}
        if graph.n == 0 or self.merge_sweeps == 0:
            return labels, merge_info
        with runtime.section("merge"):
            result = coarsen(graph, labels, name="shardedplp.coarse")
            runtime.charge_coarsening(graph.indices.size, result.graph.n)
            cg = result.graph
            cn = cg.n
            merge_info["coarse_n"] = int(cn)
            clabels = np.arange(cn, dtype=np.int64)
            if cn:
                cache = neighborhood_cache(cg)
                loops64 = np.asarray(cg.loop_weights(), dtype=np.float64)
                mactive = np.asarray(cache.counts) > 0
                merged_total = 0
                sweeps = 0
                for sweep in range(self.merge_sweeps):
                    cand = np.flatnonzero(mactive).astype(np.int64)
                    if cand.size == 0:
                        break
                    salt = base_salt + np.uint64(
                        (_MERGE_SALT_OFFSET + sweep) * 1_000_003
                    )
                    stag = _hash_jitter(cand, cand, salt ^ _STAGGER_SALT)
                    items = cand[stag < 0.5]
                    if items.size == 0:
                        sweeps += 1
                        continue
                    seg, nbrs, ws = cache.gather(items)
                    groups = group_from_gather(
                        seg,
                        clabels[nbrs],
                        np.asarray(ws, dtype=np.float64),
                        width=cn,
                    )
                    # Staying also keeps the community's internal weight.
                    change, best_lab = plp_vote(
                        groups, items, clabels[items], salt, loops64[items]
                    )
                    runtime.charge(
                        float(seg.size + items.size),
                        parallel=True,
                        memory_bound=0.8,
                    )
                    sweeps += 1
                    mactive[items[~change]] = False
                    moved_items = items[change]
                    if moved_items.size:
                        clabels[moved_items] = best_lab[change]
                        merged_total += int(moved_items.size)
                        _, mnbrs, _ = cache.gather(moved_items)
                        mactive[np.unique(mnbrs)] = True
                merge_info["sweeps"] = sweeps
                merge_info["merged"] = merged_total
            final = prolong(clabels, result)
            runtime.charge(float(result.fine_n), parallel=True)
        return final, merge_info
