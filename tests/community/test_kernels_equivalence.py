"""Property-style equivalence tests for the vectorized chunk kernels.

Every kernel is pitted against a naive per-node dict reference on random
weighted graphs *with self-loops*, across several seeds — the reference is
obviously correct, the kernels are fast; they must agree. The fused-key
group-by additionally must match the lexsort fallback bit-for-bit (both
sorts are stable on the same ordering, so the float sums are identical,
not merely close).
"""

import numpy as np
import pytest

import repro.community._kernels as K
from repro.community._kernels import (
    NeighborhoodCache,
    gather_neighborhoods,
    group_from_gather,
    group_label_weights,
    neighborhood_cache,
)
from repro.graph import GraphBuilder


def random_loopy_graph(
    n: int, n_edges: int, rng: np.random.Generator, integer: bool = False
):
    """Random weighted multigraph-free graph including some self-loops.

    ``integer=True`` draws weights from {1, 2, 3}, so weight sums are
    exact and ties between labels are bit-equal.
    """
    b = GraphBuilder(n)
    seen = set()
    while len(seen) < n_edges:
        u = int(rng.integers(0, n))
        # ~10% self-loops.
        v = u if rng.random() < 0.1 else int(rng.integers(0, n))
        if (min(u, v), max(u, v)) in seen:
            continue
        seen.add((min(u, v), max(u, v)))
        w = rng.integers(1, 4) if integer else rng.uniform(0.1, 5.0)
        b.add_edge(u, v, float(w))
    return b.build()


def reference_label_weights(graph, nodes, labels):
    """Per chunk position: {neighbor label -> summed weight}, loops excluded."""
    out = []
    for v in nodes:
        agg: dict[int, float] = {}
        nbrs = graph.neighbors(int(v))
        ws = graph.neighbor_weights(int(v))
        for u, w in zip(nbrs, ws):
            if u == v:
                continue
            agg[int(labels[u])] = agg.get(int(labels[u]), 0.0) + float(w)
        out.append(agg)
    return out


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_group_label_weights_matches_dict_reference(seed):
    rng = np.random.default_rng(seed)
    graph = random_loopy_graph(60, 200, rng)
    labels = rng.integers(0, 12, size=graph.n).astype(np.int64)
    nodes = rng.permutation(graph.n)[:40].astype(np.int64)
    groups = group_label_weights(graph, nodes, labels)
    got = [dict() for _ in range(nodes.size)]
    for s, l, w in zip(groups.gseg, groups.glab, groups.gw):
        got[int(s)][int(l)] = float(w)
    expected = reference_label_weights(graph, nodes, labels)
    for g, e in zip(got, expected):
        assert g.keys() == e.keys()
        for lab in e:
            assert g[lab] == pytest.approx(e[lab], rel=0, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_weight_to_label_matches_dict_reference(seed):
    rng = np.random.default_rng(seed + 10)
    graph = random_loopy_graph(50, 160, rng)
    labels = rng.integers(0, 9, size=graph.n).astype(np.int64)
    nodes = rng.permutation(graph.n)[:30].astype(np.int64)
    groups = group_label_weights(graph, nodes, labels)
    expected = reference_label_weights(graph, nodes, labels)
    cur = labels[nodes]
    w_cur = groups.weight_to_label(nodes.size, cur)
    for pos in range(nodes.size):
        assert w_cur[pos] == pytest.approx(
            expected[pos].get(int(cur[pos]), 0.0), rel=0, abs=1e-12
        )


def test_weight_to_label_current_beyond_key_width():
    # Labels >= the fused key width cannot appear among neighbors; their
    # weight must be exactly 0 (and must not alias another fused key).
    rng = np.random.default_rng(5)
    graph = random_loopy_graph(40, 120, rng)
    labels = rng.integers(0, 6, size=graph.n).astype(np.int64)
    nodes = np.arange(graph.n, dtype=np.int64)
    groups = group_label_weights(graph, nodes, labels)
    huge = np.full(graph.n, 10_000_000, dtype=np.int64)
    assert np.all(groups.weight_to_label(graph.n, huge) == 0.0)


@pytest.mark.parametrize(
    "seed,tie",
    [(0, None), (1, None), (2, None), (3, "first"), (4, "last")],
    ids=["0", "1", "2", "int-first", "int-last"],
)
def test_argmax_per_segment_matches_dict_reference(seed, tie):
    # tie=None: float weights, default tie-break. Otherwise integer
    # weights make ties exact and the named tie-break is checked exactly.
    rng = np.random.default_rng(seed + 20)
    graph = random_loopy_graph(50, 150, rng, integer=tie is not None)
    labels = rng.integers(0, 7, size=graph.n).astype(np.int64)
    nodes = np.arange(graph.n, dtype=np.int64)
    groups = group_label_weights(graph, nodes, labels)
    if tie is None:
        has, best_lab, best_w = groups.argmax_per_segment(graph.n)
    else:
        has, best_lab, best_w = groups.argmax_per_segment(graph.n, tie=tie)
    expected = reference_label_weights(graph, nodes, labels)
    exact_ties = 0
    for v in range(graph.n):
        if not expected[v]:
            assert not has[v]
            continue
        assert has[v]
        top = max(expected[v].values())
        assert best_w[v] == pytest.approx(top, rel=0, abs=1e-12)
        # Tie-break: largest label among (float-noise-tolerant) maxima.
        maxima = [l for l, w in expected[v].items() if np.isclose(w, top)]
        assert best_lab[v] in maxima
        if tie is not None:
            exact = [l for l, w in expected[v].items() if w == top]
            exact_ties += len(exact) > 1
            assert best_lab[v] == (min(exact) if tie == "first" else max(exact))
    if tie is not None:
        assert exact_ties > 0  # the inputs really contain exact ties


def test_fused_sort_bitwise_matches_lexsort_fallback(monkeypatch):
    rng = np.random.default_rng(8)
    graph = random_loopy_graph(80, 300, rng)
    labels = rng.integers(0, 15, size=graph.n).astype(np.int64)
    nodes = rng.permutation(graph.n).astype(np.int64)
    fused = group_label_weights(graph, nodes, labels)
    assert fused.keys is not None  # fused path taken
    monkeypatch.setattr(K, "_MAX_FUSED_KEY", 1)  # force the fallback
    fallback = group_label_weights(graph, nodes, labels)
    assert fallback.keys is None  # lexsort path taken
    assert np.array_equal(fused.gseg, fallback.gseg)
    assert np.array_equal(fused.glab, fallback.glab)
    # Bit-for-bit: stable sorts put equal keys in the same order, so the
    # reduceat summation order — and the float results — are identical.
    assert np.array_equal(fused.gw, fallback.gw)


def test_group_from_gather_negative_labels_use_fallback():
    seg = np.array([0, 0, 1], dtype=np.int64)
    labs = np.array([-3, 2, -3], dtype=np.int64)
    ws = np.array([1.0, 2.0, 4.0])
    groups = group_from_gather(seg, labs, ws)
    lookup = {
        (int(s), int(l)): float(w)
        for s, l, w in zip(groups.gseg, groups.glab, groups.gw)
    }
    assert lookup == {(0, -3): 1.0, (0, 2): 2.0, (1, -3): 4.0}


class TestNeighborhoodCache:
    def test_memoized_per_graph(self):
        rng = np.random.default_rng(1)
        graph = random_loopy_graph(20, 40, rng)
        assert neighborhood_cache(graph) is neighborhood_cache(graph)

    def test_gather_matches_module_function(self):
        rng = np.random.default_rng(2)
        graph = random_loopy_graph(30, 90, rng)
        cache = NeighborhoodCache(graph)
        nodes = rng.permutation(graph.n)[:17].astype(np.int64)
        seg_a, nbrs_a, ws_a = cache.gather(nodes)
        seg_b, nbrs_b, ws_b = gather_neighborhoods(graph, nodes)
        assert np.array_equal(seg_a, seg_b)
        assert np.array_equal(nbrs_a, nbrs_b)
        assert np.array_equal(ws_a, ws_b)

    def test_loops_excluded_counts(self):
        b = GraphBuilder(3)
        b.add_edge(0, 1, 1.0)
        b.add_edge(1, 1, 2.0)
        b.add_edge(1, 2, 3.0)
        cache = NeighborhoodCache(b.build())
        assert cache.counts.tolist() == [1, 2, 1]


class TestSweepPlan:
    def test_contiguous_blocks_match_gather(self):
        rng = np.random.default_rng(3)
        graph = random_loopy_graph(64, 200, rng)
        cache = neighborhood_cache(graph)
        order = rng.permutation(graph.n).astype(np.int64)
        plan = cache.plan(order)
        for lo in range(0, order.size, 7):
            chunk = order[lo : lo + 7]
            seg_a, nbrs_a, ws_a = plan.block(chunk)
            seg_b, nbrs_b, ws_b = cache.gather(chunk)
            assert np.array_equal(seg_a, seg_b)
            assert np.array_equal(nbrs_a, nbrs_b)
            assert np.array_equal(ws_a, ws_b)

    def test_foreign_chunk_falls_back(self):
        rng = np.random.default_rng(4)
        graph = random_loopy_graph(40, 120, rng)
        cache = neighborhood_cache(graph)
        plan = cache.plan(rng.permutation(graph.n).astype(np.int64))
        # Not a view of the planned order: a fresh fancy-indexed array.
        foreign = np.array([5, 1, 9], dtype=np.int64)
        seg_a, nbrs_a, ws_a = plan.block(foreign)
        seg_b, nbrs_b, ws_b = cache.gather(foreign)
        assert np.array_equal(seg_a, seg_b)
        assert np.array_equal(nbrs_a, nbrs_b)
        assert np.array_equal(ws_a, ws_b)

    def test_empty_chunk(self):
        rng = np.random.default_rng(6)
        graph = random_loopy_graph(10, 20, rng)
        plan = neighborhood_cache(graph).plan(np.arange(10, dtype=np.int64))
        seg, nbrs, ws = plan.block(np.empty(0, dtype=np.int64))
        assert seg.size == nbrs.size == ws.size == 0
