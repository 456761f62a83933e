"""Read-batching in the detectors is exact.

PLM's move loop and PLP's propagate loop opt into the runtime's
read-batching (``parallel_for(quiet=...)``): one kernel call decides a
run of blocks that read identical state. Racecheck runs one block per
call, so a racecheck runtime is the per-block reference. Against it, the
default runtime must give the same labels, simulated total, section tree
and loop telemetry for every detector built on those loops — PLM, PLMR,
PLP, DynamicPLM, DynamicPLP and EPP (PLP bases, PLM final) — and must
make fewer kernel calls than blocks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.community.dplm import DynamicPLM
from repro.community.dplp import DynamicPLP
from repro.community.epp import EPP
from repro.community.plm import PLM, PLMR
from repro.community.plp import PLP
from repro.graph import DynamicGraph, generators
from repro.parallel import PAPER_MACHINE, ParallelRuntime


class CountingRuntime(ParallelRuntime):
    """A runtime that counts kernel calls."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.kernel_calls = 0

    def parallel_for(self, items, kernel, *args, **kwargs):
        def counted(arg):
            self.kernel_calls += 1
            return kernel(arg)

        return super().parallel_for(items, counted, *args, **kwargs)


@pytest.fixture(scope="module")
def noisy():
    """Noisy planted partition: sweeps mix moving and quiet blocks."""
    return generators.planted_partition(900, 12, 0.08, 0.01, seed=5)


def _runtime(threads, racecheck):
    return ParallelRuntime(PAPER_MACHINE, threads=threads, racecheck=racecheck)


def _fingerprint(result, runtime):
    return (
        result.labels.tobytes(),
        result.timing.total,
        result.timing.tree,
        result.timing.loops,
        runtime.loop_records,
    )


def _edited(graph, truth):
    rng = np.random.default_rng(1)
    dyn = DynamicGraph.from_graph(graph)
    for _ in range(30):
        members = np.flatnonzero(truth == rng.integers(0, truth.max() + 1))
        u, v = rng.choice(members, 2, replace=False)
        if not dyn.has_edge(int(u), int(v)):
            dyn.add_edge(int(u), int(v))
    return dyn.freeze(), dyn.drain_events()


STATIC = {
    "PLP": lambda t: PLP(threads=t, seed=2),
    "PLM": lambda t: PLM(threads=t, seed=2),
    "PLMR": lambda t: PLMR(threads=t, seed=2),
    "EPP": lambda t: EPP(threads=t, seed=2, workers=1),
}


@pytest.mark.parametrize("threads", (8, 32))
@pytest.mark.parametrize("name", sorted(STATIC))
def test_batched_equals_per_block(noisy, name, threads):
    graph, _ = noisy
    runs = []
    for racecheck in (True, False):
        runtime = _runtime(threads, racecheck)
        result = STATIC[name](threads).run(graph, runtime=runtime)
        runs.append(_fingerprint(result, runtime))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("cls", (DynamicPLM, DynamicPLP))
def test_incremental_batched_equals_per_block(noisy, cls):
    graph, truth = noisy
    edited, events = _edited(graph, truth)
    runs = []
    for racecheck in (True, False):
        det = cls(threads=16, seed=1)
        det.run(graph, runtime=_runtime(16, racecheck))
        runtime = _runtime(16, racecheck)
        result = det.update(edited, events, runtime=runtime)
        runs.append(_fingerprint(result, runtime))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("cls", (PLM, PLP))
def test_fewer_kernel_calls_than_blocks(cls):
    graph, _ = generators.planted_partition(2000, 20, 0.1, 0.005, seed=3)
    runtime = CountingRuntime(PAPER_MACHINE, threads=32, racecheck=False)
    cls(threads=32, seed=0).run(graph, runtime=runtime)
    blocks = sum(r.blocks for r in runtime.loop_records)
    assert runtime.kernel_calls < blocks
