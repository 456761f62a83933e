"""Vectorized sequential-Louvain sweep: byte-identical to the scalar loop.

The block-speculative sweep (`vectorized=True`, the default) must be an
implementation detail: same labels, same simulated timing, same work
charges as the per-node scalar sweep it replaced, on every graph class —
exact float ties and all.
"""

import numpy as np
import pytest

from repro.community.louvain import Louvain
from repro.graph import generators
from repro.graph.lfr import lfr_graph


def _cases():
    yield "pp", generators.planted_partition(600, 6, 0.1, 0.01, seed=7)[0]
    yield "rmat", generators.rmat(10, 6, seed=5)
    yield "hk", generators.holme_kim(800, 3, 0.6, seed=2)
    yield "lfr", lfr_graph(900, mu=0.4, seed=3).graph
    yield "ring", generators.ring(64)


def _gamma_cases():
    # gamma=1.0 keeps the plain case ids; other resolutions exercise the
    # volume term of the shared gain with a non-unit weight.
    for label, graph in _cases():
        yield pytest.param(graph, 1.0, id=label)
        for gamma in (0.5, 2.0):
            yield pytest.param(graph, gamma, id=f"{label}-gamma{gamma}")


@pytest.mark.parametrize("graph,gamma", list(_gamma_cases()))
def test_vectorized_sweep_byte_identical(graph, gamma):
    scalar = Louvain(seed=4, gamma=gamma, vectorized=False).run(graph)
    vector = Louvain(seed=4, gamma=gamma, vectorized=True).run(graph)
    assert np.array_equal(scalar.partition.labels, vector.partition.labels)
    assert scalar.timing == vector.timing  # identical work charges too


def test_vectorized_is_default():
    assert Louvain().vectorized is True


def test_negative_gamma_rejected():
    # The shared gain relies on gamma >= 0 to rule out the own-community
    # row, as PLM, Grappolo and SyncLouvain already require.
    with pytest.raises(ValueError):
        Louvain(gamma=-0.5)


def test_weighted_graph_identical():
    # Exact float-tie behaviour must survive non-unit weights.
    rng = np.random.default_rng(11)
    us = rng.integers(0, 120, 2000)
    vs = rng.integers(0, 120, 2000)
    ws = rng.integers(1, 5, 2000).astype(float)
    from repro.graph import GraphBuilder

    g = GraphBuilder(120).add_edges(us, vs, ws).build()
    scalar = Louvain(seed=0, vectorized=False).run(g)
    vector = Louvain(seed=0, vectorized=True).run(g)
    assert np.array_equal(scalar.partition.labels, vector.partition.labels)
    assert scalar.timing == vector.timing
