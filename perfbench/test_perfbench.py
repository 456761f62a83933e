"""Self-tests of the benchmark at a tiny size.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import common
import detect_rmat
import pin
import run
import serve_mix
import stream_churn
from common import ROOT, tail

MODULES = (detect_rmat, serve_mix, stream_churn)
SEED = 3
PINNERS = {
    detect_rmat: lambda cfg: pin.pin_detect(SEED, cfg, 4),
    serve_mix: lambda cfg: pin.pin_serve(SEED, cfg, 12),
    stream_churn: lambda cfg: pin.pin_stream(SEED, cfg, 10),
}


@pytest.fixture(autouse=True)
def single_setups(monkeypatch):
    """Tiny set-ups are cheap; sampling them for a second would only
    slow the tests down."""
    monkeypatch.setattr(common, "SETUP_BUDGET_S", 0.0)


def ids(module) -> str:
    return module.NAME


def test_benchmark_json_lists_the_workloads_and_their_reasons():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (m.NAME, m.WHY) for m in MODULES
    ]


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("module", MODULES, ids=ids)
def test_workload_emits_exactly_the_declared_metrics(module, trace):
    result, _ = run.run_workload(module.NAME, SEED, 0.3, trace, pins={}, cfg=module.TINY)
    declared = run.declared_metrics(trace)
    assert list(result["metrics"]) == list(declared)
    assert {m["unit"] for m in result["metrics"].values()} <= set(declared.values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _same(a, b) -> bool:
    """Structural equality of generated inputs (graphs, arrays, tuples)."""
    if hasattr(a, "indptr"):
        return all(
            np.array_equal(getattr(a, f), getattr(b, f)) for f in ("indptr", "indices", "weights")
        )
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


INPUTS = {
    detect_rmat: lambda seed: [detect_rmat.make_graph(seed, i, detect_rmat.TINY) for i in range(2)],
    serve_mix: lambda seed: (
        serve_mix.make_graphs(seed, serve_mix.TINY),
        serve_mix.make_sequences(seed, serve_mix.TINY, 2),
    ),
    stream_churn: lambda seed: stream_churn.make_inputs(seed, stream_churn.TINY),
}


@pytest.mark.parametrize("module", MODULES, ids=ids)
def test_same_seed_gives_identical_inputs(module):
    make = INPUTS[module]
    assert _same(make(SEED), make(SEED))
    assert not _same(make(SEED), make(SEED + 1))


@pytest.mark.parametrize("module", MODULES, ids=ids)
def test_pins_are_checked_and_a_corrupted_pin_fails_the_run(module):
    pins = PINNERS[module](module.TINY)
    result, out = run.run_workload(module.NAME, SEED, 0.3, False, pins=pins, cfg=module.TINY)
    assert result["failed"] == 0 and out["ledger"].pinned_checks > 0

    key = next(k for k in sorted(pins) if k in _checked_keys(module, out))
    corrupted = dict(pins)
    corrupted[key] = ["0" * 24] + pins[key][1:]
    result, out = run.run_workload(module.NAME, SEED, 0.3, False, pins=corrupted, cfg=module.TINY)
    assert result["failed"] > 0 and not result["correct"]


def _checked_keys(module, out) -> set:
    """Pin keys the run compared (the first op of each workload is always
    among them)."""
    if module is detect_rmat:
        return {detect_rmat.pin_key(0, alg) for alg in detect_rmat.ALGORITHMS}
    if module is stream_churn:
        return {stream_churn.pin_key(0)}
    first = serve_mix.make_sequences(SEED, serve_mix.TINY, 2)[0][0]
    return {serve_mix.pin_key(*first[1:4])}


_direct_pass = detect_rmat._reference_pass


def _corrupted_pass(*args):
    """A direct run whose label digests are all wrong."""
    return [("0" * 24,) + ref[1:] for ref in _direct_pass(*args)]


def test_unpinned_detections_are_checked_against_direct_runs(monkeypatch):
    result, out = run.run_workload(
        detect_rmat.NAME, SEED, 0.3, False, pins={}, cfg=detect_rmat.TINY
    )
    assert result["failed"] == 0
    assert out["ledger"].reference_checks == result["attempted"]

    monkeypatch.setattr(detect_rmat, "_reference_pass", _corrupted_pass)
    result, _ = run.run_workload(
        detect_rmat.NAME, SEED, 0.3, False, pins={}, cfg=detect_rmat.TINY
    )
    assert result["failed"] == result["attempted"] and not result["correct"]


def test_tail_keeps_ten_samples_beyond_it():
    assert tail(list(range(10))) is None
    assert tail(list(range(11))) == (100.0 / 11, 0.0)
    pct, value = tail(list(range(1000)))
    assert pct == 99.0 and value == 989.0
