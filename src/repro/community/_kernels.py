"""The local-move decision core shared by every detector.

Label propagation (paper §III-A) and the Louvain family (§III-B) decide
a node's move from its neighborhood grouped by the neighbors' community
labels. This module is the only place that knows how such a decision is
made; the detectors bind their own state and call four rules:

* **group-by** — :func:`group_from_gather` aggregates gathered
  ``(segment, neighbor label, weight)`` rows into one row per
  (segment, label), sorted by segment then label;
* **segmented argmax** — :func:`segment_argmax` picks one maximal row
  per segment. ``tie="last"`` takes the largest label among bit-equal
  maxima (PLP, PLM); ``tie="first"`` takes the smallest (SyncLouvain,
  Grappolo and sequential Louvain, the Lu/Halappanavar convergence
  heuristic);
* **Δmod gain** — :func:`best_moves` scores every group row with the
  paper's closed form and returns each node's best strictly positive
  move (``tie`` as above; PLM ``"last"``, the others ``"first"``)::

      delta = (w(u,D) - w(u,C\\u)) / w(E)
            + gamma * vol(u) * (vol(C\\u) - vol(D)) / (2 w(E)^2)

* **PLP vote** — :func:`plp_vote` is the jittered dominant-label rule
  (:func:`_hash_jitter` noise, ``tie="last"`` among bit-equal jittered
  scores, strict improvement over staying); :func:`compiled_plp_vote`
  binds the same rule's compiled twin, ``plp_block``.

Grappolo and SyncLouvain also share their barrier commit,
:func:`transfer_volumes`. The compiled twins of the vote and the PLM
decision live in :mod:`repro.community._kernels_numba` and are
byte-identical to these.

Wall-clock engineering (the simulated cost model is untouched):

* :class:`NeighborhoodCache` precomputes the loop-free adjacency of a
  graph once; every later gather is index arithmetic over those arrays
  instead of re-filtering self-loops per chunk.
* :meth:`NeighborhoodCache.plan` pre-gathers the neighborhoods of a whole
  sweep order in one vectorized pass; the executor's grain blocks then
  *slice* the flat arrays (O(1) NumPy calls per block) rather than
  rebuilding repeat/cumsum index arithmetic per chunk — the
  avoidable-recomputation trap the BigClam engineering study calls out.
* The (segment, label) group-by sorts one fused int64 key instead of a
  two-key ``np.lexsort``, with an explicit overflow check that falls
  back to ``np.lexsort``. Every sort path yields the stable order of the
  same key pair, so aggregation results are bit-for-bit unchanged.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.graph.csr import Graph

__all__ = [
    "NeighborhoodCache",
    "SweepPlan",
    "neighborhood_cache",
    "gather_neighborhoods",
    "LabelGroups",
    "group_label_weights",
    "group_from_gather",
    "segment_argmax",
    "best_moves",
    "transfer_volumes",
    "plp_vote",
    "compiled_plp_vote",
    "kernel_module",
]

_EMPTY_I = np.empty(0, np.int64)
_EMPTY_F = np.empty(0, np.float64)

#: Largest fused (segment * width + label) key allowed before the group-by
#: falls back to ``np.lexsort`` (int64 overflow guard).
_MAX_FUSED_KEY = np.iinfo(np.int64).max


class NeighborhoodCache:
    """Loop-free CSR adjacency of a graph, computed once.

    A node is not its own neighbor for label/move purposes, so the hot
    kernels previously masked self-loop entries out of every gathered
    chunk. The cache applies that filter a single time; ``gather`` then
    only does the variable-length slice arithmetic.

    Obtain via :func:`neighborhood_cache`, which memoizes one instance per
    (immutable) graph.
    """

    __slots__ = ("indptr", "counts", "indices", "weights")

    def __init__(self, graph: Graph) -> None:
        owner = graph.node_of_entry()
        not_loop = graph.indices != owner
        self.indices = graph.indices[not_loop]
        self.weights = graph.weights[not_loop]
        counts = np.bincount(owner[not_loop], minlength=graph.n).astype(np.int64)
        indptr = np.zeros(graph.n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        self.indptr = indptr
        self.counts = counts
        for arr in (self.indices, self.weights, self.indptr, self.counts):
            arr.setflags(write=False)

    def gather(
        self, nodes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flatten the (loop-free) neighborhoods of ``nodes``.

        Returns ``(seg, nbrs, ws)`` where ``seg[i]`` is the position within
        ``nodes`` whose adjacency entry ``(nbrs[i], ws[i])`` is.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        counts = self.counts[nodes]
        total = int(counts.sum())
        if total == 0:
            return _EMPTY_I, _EMPTY_I, _EMPTY_F
        seg = np.repeat(np.arange(nodes.size, dtype=np.int64), counts)
        # Entry j of node i sits at starts[i] + (j - exclusive_cumsum[i]);
        # one fused repeat builds the whole offset vector.
        cum = np.cumsum(counts)
        offsets = np.repeat(self.indptr[nodes] - cum + counts, counts)
        pos = np.arange(total, dtype=np.int64) + offsets
        return seg, self.indices[pos], self.weights[pos]

    def plan(self, order: np.ndarray) -> "SweepPlan":
        """Pre-gather a whole sweep order for per-block slicing."""
        return SweepPlan(self, order)


class SweepPlan:
    """Flat neighborhoods of one sweep order, sliceable per grain block.

    The simulated executor hands kernels contiguous slices of the order
    array; :meth:`offset` recognizes such a slice and :meth:`block`
    returns views of the pre-gathered flat arrays — zero per-block index
    rebuilding. Only the *structure* is precomputed; labels are always
    read at kernel time, preserving the stale-read commit semantics of
    the simulation.
    """

    __slots__ = ("order", "seg", "nbrs", "ws", "bounds", "_cache", "_inv")

    def __init__(self, cache: NeighborhoodCache, order: np.ndarray) -> None:
        order = np.asarray(order, dtype=np.int64)
        self.order = order
        self._cache = cache
        seg, nbrs, ws = cache.gather(order)
        self.seg, self.nbrs, self.ws = seg, nbrs, ws
        bounds = np.zeros(order.size + 1, dtype=np.int64)
        np.cumsum(cache.counts[order], out=bounds[1:])
        self.bounds = bounds
        # node id -> position in ``order`` (nodes are unique in a sweep
        # order, so a contiguous slice is identified by its first value).
        inv = np.zeros(cache.indptr.size - 1, dtype=np.int64)
        inv[order] = np.arange(order.size, dtype=np.int64)
        self._inv = inv

    def offset(self, chunk: np.ndarray) -> int:
        """Start position of ``chunk`` within the order, or -1.

        A grain block is a basic slice of the order array (``.base`` is
        the order, same strides); its start index is recovered from the
        first node id — order entries are unique, so the match is exact.
        """
        if (
            chunk.base is self.order
            and chunk.strides == self.order.strides
            and chunk.size
        ):
            return self._inv[chunk[0]]
        return -1

    def block(
        self, chunk: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Neighborhoods of ``chunk`` with ``seg`` local to the chunk.

        ``chunk`` is expected to be a contiguous slice of the planned
        order (the executor's grain block); anything else falls back to a
        fresh gather, so the result is always correct.
        """
        if chunk.size == 0:
            return _EMPTY_I, _EMPTY_I, _EMPTY_F
        lo = self.offset(chunk)
        if lo >= 0:
            sl = slice(self.bounds[lo], self.bounds[lo + chunk.size])
            return self.seg[sl] - lo, self.nbrs[sl], self.ws[sl]
        return self._cache.gather(chunk)

    def batch(
        self, chunks: list[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(nodes, seg, nbrs, ws)`` of a list of grain blocks.

        ``nodes`` is the blocks concatenated and ``seg`` counts positions
        within it. Each node keeps its rows in plan order, so the
        group-by (stable within a segment) and every per-node rule after
        it give each node bit-for-bit what a one-block call would.
        """
        if len(chunks) == 1:
            chunk = chunks[0]
            return (chunk, *self.block(chunk))
        nodes = np.concatenate(chunks)
        los = [self.offset(c) for c in chunks]
        if min(los) < 0:
            return (nodes, *self._cache.gather(nodes))
        sizes = [c.size for c in chunks]
        lo = np.array(los)
        starts, stops = self.bounds[lo], self.bounds[lo + sizes]
        sls = [slice(a, z) for a, z in zip(starts.tolist(), stops.tolist())]
        seg = np.concatenate([self.seg[s] for s in sls])
        # Shift each block's sweep positions to its batch positions.
        seg -= np.repeat(lo - (np.cumsum(sizes) - sizes), stops - starts)
        nbrs = np.concatenate([self.nbrs[s] for s in sls])
        ws = np.concatenate([self.ws[s] for s in sls])
        return nodes, seg, nbrs, ws

    def csr_block(
        self, chunk: np.ndarray
    ) -> tuple[np.ndarray, int, np.ndarray, np.ndarray]:
        """``(bounds, lo, nbrs, ws)``: ``chunk``'s neighborhoods as the
        compiled kernels address them, position ``i`` at
        ``nbrs[bounds[lo + i]:bounds[lo + i + 1]]``.

        A slice of the planned order gets the plan's own flat arrays
        (views — no per-block copies, no dtype conversion); any other
        chunk a fresh gather with its own bounds from ``lo = 0``.
        """
        lo = self.offset(chunk)
        if lo >= 0:
            return self.bounds, lo, self.nbrs, self.ws
        seg, nbrs, ws = self._cache.gather(chunk)
        bounds = np.zeros(chunk.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(seg, minlength=chunk.size), out=bounds[1:])
        return bounds, 0, nbrs, ws


def neighborhood_cache(graph: Graph) -> NeighborhoodCache:
    """The graph's memoized :class:`NeighborhoodCache` (built on first use)."""
    cache = getattr(graph, "_nbr_cache", None)
    if cache is None:
        cache = NeighborhoodCache(graph)
        try:
            graph._nbr_cache = cache
        except AttributeError:  # foreign Graph-likes without the slot
            pass
    return cache


def gather_neighborhoods(
    graph: Graph, nodes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten the neighborhoods of ``nodes``.

    Returns ``(seg, nbrs, ws)`` where ``seg[i]`` is the position within
    ``nodes`` whose adjacency entry ``(nbrs[i], ws[i])`` is. Self-loop
    entries are excluded (a node is not its own neighbor for label/move
    purposes).
    """
    return neighborhood_cache(graph).gather(nodes)


class LabelGroups(NamedTuple):
    """Segmented (node, label) -> weight aggregation for a chunk.

    ``gseg``/``glab``/``gw`` are aligned arrays: within chunk position
    ``gseg[i]``, the total edge weight to neighbors labelled ``glab[i]`` is
    ``gw[i]``. Rows are sorted by ``(gseg, glab)``.

    ``keys`` carries the fused sort key (``seg * width + glab``) when the
    fused group-by path produced the rows; it is ``None`` on the lexsort
    fallback path.
    """

    gseg: np.ndarray
    glab: np.ndarray
    gw: np.ndarray
    keys: np.ndarray | None = None

    def weight_to_label(self, chunk_size: int, current: np.ndarray) -> np.ndarray:
        """Per chunk position, the weight to ``current[pos]`` (0 if none).

        Used for the PLP keep-current tie-break and PLM's ``omega(u, C\\u)``.
        Rows are unique per (segment, label), so at most one row per
        segment matches its ``current`` label — a single boolean mask
        replaces the searchsorted probe.
        """
        out = np.zeros(chunk_size, dtype=np.float64)
        if self.gseg.size == 0:
            return out
        rows = self.glab == current[self.gseg]
        out[self.gseg[rows]] = self.gw[rows]
        return out

    def argmax_per_segment(
        self,
        chunk_size: int,
        score: np.ndarray | None = None,
        tie: str = "last",
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per chunk position: (has_group, best_label, best_score).

        ``score`` defaults to the group weights ``gw``; ``tie`` is
        :func:`segment_argmax`'s (``"last"``: the larger label wins).
        """
        has = np.zeros(chunk_size, dtype=bool)
        best_lab = np.zeros(chunk_size, dtype=np.int64)
        best_score = np.full(chunk_size, -np.inf, dtype=np.float64)
        if self.gseg.size == 0:
            return has, best_lab, best_score
        s = self.gw if score is None else np.asarray(score, dtype=np.float64)
        rows = segment_argmax(self.gseg, s, tie)
        segs = self.gseg[rows]
        has[segs] = True
        best_lab[segs] = self.glab[rows]
        best_score[segs] = s[rows]
        return has, best_lab, best_score


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Boolean flags marking the first row of each run of equal values
    in the non-empty array ``a``."""
    flags = np.empty(a.size, dtype=bool)
    flags[0] = True
    np.not_equal(a[1:], a[:-1], out=flags[1:])
    return flags


def segment_argmax(
    seg: np.ndarray, score: np.ndarray, tie: str = "last"
) -> np.ndarray:
    """Row index of one maximal ``score`` per segment, ascending.

    ``seg`` is non-empty and sorted, so each segment is one contiguous
    run, and rows ascend by label within a run (the
    :func:`group_from_gather` order). ``np.maximum`` returns one of its
    operands bit-for-bit, so "row equal to its run's max" is an exact
    test. Among bit-equal maxima ``tie="last"`` keeps the last row of a
    run (the largest label) and ``tie="first"`` the first (the smallest).
    """
    run_start = _run_starts(seg)
    run_max = np.maximum.reduceat(score, run_start.nonzero()[0])
    at_max = (score == run_max[np.cumsum(run_start) - 1]).nonzero()[0]
    seg_at = seg[at_max]
    if tie == "first":
        return at_max[_run_starts(seg_at)]
    if tie != "last":
        raise ValueError(f"tie must be 'first' or 'last', not {tie!r}")
    is_last = np.empty(seg_at.size, dtype=bool)
    is_last[-1] = True
    np.not_equal(seg_at[1:], seg_at[:-1], out=is_last[:-1])
    return at_max[is_last]


def group_from_gather(
    seg: np.ndarray,
    labs: np.ndarray,
    ws: np.ndarray,
    width: int | None = None,
) -> LabelGroups:
    """Group pre-gathered (seg, neighbor-label, weight) rows by (seg, label).

    One argsort of the fused int64 key ``seg * width + label`` replaces
    the two-key lexsort. Above 1024 rows the sort appends the row index
    to the key: every key is then unique, the only sorted permutation of
    unique keys is the stable one, and NumPy's unstable integer sort is
    2-3x faster than its stable one there. All paths give the stable
    order, so the summation order inside :func:`np.add.reduceat` — and
    therefore the float results — are identical. Falls back to
    ``np.lexsort`` when the fused key would overflow int64 (or labels are
    negative).

    Pass ``width`` when the caller guarantees ``0 <= labs < width`` (e.g.
    community labels are always node ids, so ``width = n``): it skips the
    min/max scans over the label array.
    """
    if labs.size == 0:
        return LabelGroups(_EMPTY_I, _EMPTY_I, _EMPTY_F)
    if width is None:
        trusted = labs.dtype.kind == "i" and int(labs.min()) >= 0
        width = int(labs.max()) + 1 if trusted else 0
    else:
        trusted = True
    seg_keys = None
    # seg is block-ordered: its last entry is the max.
    if trusted and 0 < width and (
        int(seg[-1]) <= (_MAX_FUSED_KEY - width + 1) // width
    ):
        seg_keys = seg * np.int64(width)
    if seg_keys is not None:
        keys = seg_keys + labs
        rows = keys.size
        # Keys stay below seg_keys[-1] + width, so the unique key fits
        # int64 up to this many rows.
        if 1024 < rows <= _MAX_FUSED_KEY // (int(seg_keys[-1]) + int(width)):
            order = (keys * np.int64(rows) + np.arange(rows)).argsort()
        else:
            order = keys.argsort(kind="stable")
        keys_s = keys[order]
        starts = _run_starts(keys_s).nonzero()[0]
        gkeys = keys_s[starts]
        gseg, glab = np.divmod(gkeys, width)
    else:  # arbitrary (huge / negative) labels
        order = np.lexsort((labs, seg))
        seg_s = seg[order]
        labs_s = labs[order]
        boundary = _run_starts(seg_s)
        boundary[1:] |= labs_s[1:] != labs_s[:-1]
        starts = boundary.nonzero()[0]
        gseg, glab, gkeys = seg_s[starts], labs_s[starts], None
    gw = np.add.reduceat(ws[order], starts)
    return LabelGroups(gseg, glab, gw, gkeys)


def best_moves(
    groups: LabelGroups,
    cur: np.ndarray,
    vol_u: np.ndarray,
    comm_vol: np.ndarray,
    omega: float,
    gamma: float,
    denom: float,
    tie: str,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Each node's best strictly positive modularity-gain move (§III-B).

    ``groups`` holds the nodes' neighborhoods grouped by community;
    ``cur``/``vol_u`` are each node's community and volume by position,
    ``comm_vol`` the community volumes the gains are scored against,
    ``omega`` the total edge weight and ``denom`` the caller's
    ``2 w(E)^2``, precomputed once per phase as the compiled twin takes
    it. Returns ``(pos, dst)`` — the positions that move, ascending, and
    their target communities — or ``None`` when no gain clears the
    ``1e-15`` strict-improvement threshold (float-noise "gains" do not
    count; the compiled twin uses the same literal). ``tie`` picks among
    bit-equal best gains (see :func:`segment_argmax`).

    The own-community row can never win: its weight term is exactly
    ``0.0`` (the weight minus itself) and its volume term is ``<= 0.0``
    bit-for-bit (``fl(a - b) <= a`` for ``b >= 0``), so it needs no
    explicit exclusion. Every row tied at a positive maximum clears the
    threshold, so the argmax over the clearing rows picks the same winner
    as one over all rows.
    """
    gseg, glab, gw = groups.gseg, groups.glab, groups.gw
    w_cur = groups.weight_to_label(cur.size, cur)
    vol_c_wo_u = comm_vol[cur] - vol_u
    delta = (gw - w_cur[gseg]) / omega + (
        gamma * vol_u[gseg] * (vol_c_wo_u[gseg] - comm_vol[glab]) / denom
    )
    rows_p = (delta > 1e-15).nonzero()[0]
    if rows_p.size == 0:
        return None
    win = rows_p[segment_argmax(gseg[rows_p], delta[rows_p], tie)]
    return gseg[win], glab[win]


def transfer_volumes(
    comm_vol: np.ndarray, moves: list[tuple[np.ndarray, ...]]
) -> None:
    """Apply buffered ``(nodes, src, dst, vol)`` moves to ``comm_vol`` at
    a barrier (Grappolo's color classes, SyncLouvain's sweeps), in node-id
    order: commit arrival order depends on the schedule, node ids do not,
    so neither do the float sums."""
    nodes, src, dst, vol = (np.concatenate(col) for col in zip(*moves))
    order = np.argsort(nodes)
    np.subtract.at(comm_vol, src[order], vol[order])
    np.add.at(comm_vol, dst[order], vol[order])


def _hash_jitter(
    node_ids: np.ndarray, labs: np.ndarray, salt: np.uint64
) -> np.ndarray:
    """Deterministic per-(node, label, salt) tie-break noise in [0, 1).

    The original algorithm breaks ties among equally heavy labels
    arbitrarily; a *consistent* tie-break (e.g. largest label) lets one
    label win every tie and flood the graph. Hashing (node, label, salt)
    reproduces arbitrary-but-deterministic tie-breaking, vectorized.

    Wrapping uint64 arithmetic is intentional; NumPy array ops wrap
    silently, so no ``errstate`` guard is needed (or wanted — entering
    one per kernel block dominated small-graph sweeps).
    """
    h = (
        node_ids.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        + labs.astype(np.uint64) * np.uint64(2654435761)
        + salt
    )
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xFF51AFD7ED558CCD)
    h ^= h >> np.uint64(33)
    return (h >> np.uint64(11)).astype(np.float64) / float(2**53)


def plp_vote(
    groups: LabelGroups,
    ids: np.ndarray,
    cur: np.ndarray,
    salt: np.uint64,
    stay_bonus: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """PLP's jittered dominant-label rule (§III-A) for one chunk.

    Every candidate label scores its weight plus
    ``1e-9 * (1 + w) * jitter``, with the jitter hashed from
    ``(ids[pos], label, salt)`` — ``ids`` are the ids the tie-break sees
    (global ids under sharding). Staying scores the weight to the
    current label ``cur[pos]``, plus ``stay_bonus`` if given, jittered the
    same way. A node changes only when its best label (``tie="last"``
    among bit-equal scores) strictly beats staying. Returns
    ``(change, best_label)`` by position.
    """
    stay = groups.weight_to_label(cur.size, cur)
    if stay_bonus is not None:
        stay = stay + stay_bonus
    split = groups.gseg.size
    # One fused hash call covers the candidate and the stay scores; the
    # hash is elementwise, so the halves are bit-identical to two calls.
    j = _hash_jitter(
        np.concatenate([ids[groups.gseg], ids]),
        np.concatenate([groups.glab, cur]),
        salt,
    )
    score = groups.gw + 1e-9 * (1.0 + groups.gw) * j[:split]
    has, best_lab, best_w = groups.argmax_per_segment(cur.size, score=score)
    stay_score = stay + 1e-9 * (1.0 + stay) * j[split:]
    return has & (best_w > stay_score) & (best_lab != cur), best_lab


def compiled_plp_vote(knb, n: int, weight_dtype: np.dtype):
    """Bind the compiled twin of :func:`plp_vote` to fresh scratch.

    ``knb`` is the compiled kernel module (:func:`kernel_module`), ``n``
    bounds the label values and ``weight_dtype`` is the storage weight
    dtype. Returns ``vote(ids, labels, bounds, lo, nbrs, ws, salt) ->
    (change, best_label)`` over the CSR block ``nbrs``/``ws`` addressed
    through ``bounds`` from ``lo`` (views, never copies).
    """
    scratch = knb.KernelScratch(n, weight_dtype)
    # ``1.0`` / ``1e-9`` pre-cast to the storage weight dtype: NumPy's
    # weak-scalar promotion evaluates the jitter scale in that dtype, and
    # the compiled kernel must match bit-for-bit.
    w_one = weight_dtype.type(1.0)
    w_eps = weight_dtype.type(1e-9)

    def vote(ids, labels, bounds, lo, nbrs, ws, salt):
        change = np.empty(ids.size, dtype=np.bool_)
        label = np.empty(ids.size, dtype=np.int64)
        knb.plp_block(
            ids,
            labels,
            bounds,
            lo,
            nbrs,
            ws,
            salt,
            scratch.weight,
            scratch.mark,
            scratch.touched,
            scratch.stamp,
            w_one,
            w_eps,
            change,
            label,
        )
        return change, label

    return vote


def kernel_module(backend: str):
    """The kernel implementation module for a resolved backend name.

    ``"numpy"`` returns ``None`` (callers use the vectorized helpers in
    this module); ``"numba"`` returns :mod:`repro.community._kernels_numba`.
    Callers pass a backend already resolved by
    :func:`repro.community.backends.resolve_kernel_backend`.
    """
    if backend == "numba":
        from repro.community import _kernels_numba

        return _kernels_numba
    return None


def group_label_weights(
    graph: Graph, nodes: np.ndarray, labels: np.ndarray
) -> LabelGroups:
    """Aggregate each chunk node's neighbor weights by neighbor label."""
    seg, nbrs, ws = gather_neighborhoods(graph, nodes)
    return group_from_gather(seg, labels[nbrs], ws)
