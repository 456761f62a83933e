"""Lean-dtype properties of the compiled kernel dispatch (no upcasts).

The point of the ``lean`` CSR policy is memory: int32 neighbor indices,
float32 weights. A kernel backend that silently upcast-copied those
arrays per sweep would double the footprint right where it matters most.
These tests spy on the actual arguments crossing into the compiled
kernels (running interpreted via ``REPRO_KERNEL_NUMBA_FALLBACK=1``) and
assert the storage arrays go through with their storage dtypes, as the
*same object* every sweep — views, never copies.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.community._kernels_numba as knb
from repro.community.plm import PLM
from repro.community.plp import PLP
from repro.graph import generators
from repro.parallel import PAPER_MACHINE, ParallelRuntime


@pytest.fixture(autouse=True)
def numba_fallback(monkeypatch):
    monkeypatch.setenv(knb.FALLBACK_ENV, "1")


@pytest.fixture(params=["wide", "lean"])
def policy(request):
    return request.param


@pytest.fixture
def graph(policy):
    g, _ = generators.planted_partition(
        300, 6, 0.3, 0.01, seed=7, dtype_policy=policy
    )
    return g


def plain_runtime(threads):
    """A runtime without racecheck, even under ``REPRO_RACECHECK=1``:
    racecheck pins the NumPy kernels by design, and these tests spy on
    the compiled ones."""
    return ParallelRuntime(PAPER_MACHINE, threads=threads, racecheck=False)


def expected_dtypes(policy):
    if policy == "lean":
        return np.dtype(np.int32), np.dtype(np.float32)
    return np.dtype(np.int64), np.dtype(np.float64)


class TestScratch:
    def test_weight_accumulator_matches_storage_dtype(self):
        # NumPy's reduceat accumulates in the storage dtype; the scratch
        # array must too, or float32 sums would disagree in the last bit.
        assert knb.KernelScratch(10, np.dtype(np.float32)).weight.dtype == np.float32
        assert knb.KernelScratch(10, np.dtype(np.float64)).weight.dtype == np.float64

    def test_bookkeeping_is_int64(self):
        s = knb.KernelScratch(10, np.dtype(np.float32))
        assert s.mark.dtype == np.int64
        assert s.touched.dtype == np.int64
        assert s.stamp.dtype == np.int64


class SpyCalls:
    """Wrap a kernel entry point; record (nbrs, ws, labels) per call."""

    def __init__(self, fn, nbrs_idx, ws_idx, labels_idx):
        self.fn = fn
        self.idx = (nbrs_idx, ws_idx, labels_idx)
        self.calls = []

    def __call__(self, *args):
        self.calls.append(tuple(args[i] for i in self.idx))
        return self.fn(*args)


class TestPLPArguments:
    def test_storage_arrays_pass_uncopied(self, graph, policy, monkeypatch):
        # plp_block(chunk, labels, bounds, lo, nbrs, ws, salt, ...)
        spy = SpyCalls(knb.plp_block, nbrs_idx=4, ws_idx=5, labels_idx=1)
        monkeypatch.setattr(knb, "plp_block", spy)
        PLP(threads=4, seed=2, kernel_backend="numba").run(
            graph, runtime=plain_runtime(4)
        )
        assert spy.calls
        idx_dt, w_dt = expected_dtypes(policy)
        nbrs_ids = set()
        for nbrs, ws, labels in spy.calls:
            assert nbrs.dtype == idx_dt  # storage dtype, no upcast
            assert ws.dtype == w_dt
            assert labels.dtype == np.int64  # labels always wide
            nbrs_ids.add(id(nbrs))
        # The full sweep-plan arrays are reused across chunks (same
        # object, offset indexing) — per-chunk copies would mint a fresh
        # array every call.
        assert len(nbrs_ids) < len(spy.calls)


class TestPLMArguments:
    def test_storage_arrays_pass_uncopied(self, graph, policy, monkeypatch):
        # plm_decide_block(cur, vol_u, labels, bounds, lo, nbrs, ws, ...)
        spy = SpyCalls(knb.plm_decide_block, nbrs_idx=5, ws_idx=6, labels_idx=2)
        monkeypatch.setattr(knb, "plm_decide_block", spy)
        PLM(threads=4, seed=2, kernel_backend="numba").run(
            graph, runtime=plain_runtime(4)
        )
        assert spy.calls
        idx_dt, w_dt = expected_dtypes(policy)
        nbrs_ids = set()
        for nbrs, ws, labels in spy.calls:
            assert nbrs.dtype == idx_dt
            assert ws.dtype == w_dt
            assert labels.dtype == np.int64
            nbrs_ids.add(id(nbrs))
        assert len(nbrs_ids) < len(spy.calls)

    def test_labels_and_volumes_never_downcast(self, graph, monkeypatch):
        # Community volumes stay float64 under every storage policy —
        # the paper's modularity math needs the headroom (docs/dtypes).
        seen = []
        original = knb.plm_decide_block

        def spy(*args):
            seen.append((args[1].dtype, args[7].dtype))  # vol_u, comm_vol
            return original(*args)

        monkeypatch.setattr(knb, "plm_decide_block", spy)
        PLM(threads=2, seed=1, kernel_backend="numba").run(
            graph, runtime=plain_runtime(2)
        )
        assert seen
        assert all(v == np.float64 and c == np.float64 for v, c in seen)
