"""The shared bench core: timer, summary, A/B runner, schema and floors,
plus the committed ``BENCH_*.json`` documents it validates."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench import core
from repro.bench.core import (
    GATES,
    Summary,
    check_gates,
    interleave,
    latency_ms,
    time_best,
    validate_document,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
COMMITTED = sorted(REPO_ROOT.glob("BENCH_*.json"))

#: Keys ``merge_baseline`` adds to a committed document; not suite output.
BASELINE_KEYS = {"before_s", "after_s", "speedup", "baseline_skipped"}


class TestTimerAndSummary:
    def test_summary_order_statistics(self):
        s = Summary.of([4.0, 1.0, 3.0, 2.0])
        assert (s.n, s.best, s.max, s.mean) == (4, 1.0, 4.0, 2.5)
        assert s.median == 2.5
        assert s.iqr == pytest.approx(1.5)
        assert s.samples == (4.0, 1.0, 3.0, 2.0)

    def test_latency_fields_name_the_tail_max(self):
        s = Summary.of([0.010, 0.020, 0.030])
        assert latency_ms(s) == {"p50_ms": 20.0, "max_ms": 30.0}

    def test_time_best_counts_warmup_apart(self):
        calls = []
        s = time_best(lambda: calls.append(1), repeats=3, warmup=2)
        assert len(calls) == 5 and s.n == 3
        assert s.best == min(s.samples) >= 0

    def test_interleave_alternates_and_prepares_untimed(self):
        log = []
        ab = interleave(
            {
                "a": lambda: log.append("a") or "ra",
                "b": (lambda: log.append("prep") or 7, lambda x: log.append("b") or x),
            },
            rounds=2,
            warmup=1,
        )
        assert log == ["a", "prep", "b"] * 3
        assert ab["a"].results == ["ra"] * 3 and ab["b"].results == [7] * 3
        assert ab["a"].summary.n == 2 and len(ab["a"].warmup_s) == 1

    def test_interleave_keep_maps_results(self):
        ab = interleave({"x": lambda: [1, 2, 3]}, rounds=2, keep=len)
        assert ab["x"].results == [3, 3]

    def test_one_timer_in_the_bench_layer(self):
        # Every bench module times through core.timed.
        bench = REPO_ROOT / "src" / "repro" / "bench"
        users = [
            p.name for p in bench.glob("*.py") if "perf_counter" in p.read_text()
        ]
        assert users == ["core.py"]


def _entry(name, **fields):
    return {
        "name": name, "graph": "g", "size": "1k", "n": 10, "m": 20,
        "repeats": 1, "wall_s": 0.1, **fields,
    }


_FREEZE_OK = _entry("freeze_delta_ab", identical=True, freeze_speedup=12.0)

#: (kind, options, passing entries, failing entries) — one row per floor.
GATE_CASES = [
    (
        "scale",
        {"min_gen_eps": 1e6},
        [_entry("rmat_generate", edges_per_s=2e6)],
        [_entry("rmat_generate", edges_per_s=5e5)],
    ),
    (
        "scale",
        {"assert_sharded": True},
        [_entry("plp_sharded_ab", labels_match=True, worker_peak_rss_mb=10.0,
                mono_worker_peak_rss_mb=20.0)],
        [_entry("plp_sharded_ab", labels_match=False, worker_peak_rss_mb=10.0,
                mono_worker_peak_rss_mb=20.0)],
    ),
    (
        "scale",
        {"assert_sharded": True},
        [_entry("plp_sharded_ab", labels_match=True, worker_peak_rss_mb=10.0,
                mono_worker_peak_rss_mb=20.0)],
        [_entry("plp_sharded_ab", labels_match=True, worker_peak_rss_mb=None,
                mono_worker_peak_rss_mb=20.0)],
    ),
    (
        "quality",
        {"min_nmi": 0.9},
        [_entry("plp_quality", category="planted", nmi=0.95),
         _entry("plp_quality", category="lfr", nmi=0.1)],
        [_entry("plp_quality", category="planted", nmi=0.5)],
    ),
    ("stream", {}, [_FREEZE_OK], [_entry("freeze_delta_ab", identical=False)]),
    (
        "stream",
        {"min_freeze_speedup": 10.0},
        [_FREEZE_OK],
        [_entry("freeze_delta_ab", identical=True, freeze_speedup=3.0)],
    ),
    (
        "stream",
        {"min_events_per_s": 500.0},
        [_FREEZE_OK, _entry("dplp_stream", events_per_s=600.0)],
        [_FREEZE_OK, _entry("dplp_stream", events_per_s=100.0)],
    ),
    (
        "stream",
        {"min_nmi": 0.95},
        [_FREEZE_OK, _entry("dplm_incremental_ab", nmi_min=0.99)],
        [_FREEZE_OK],  # a missing entry fails its gate too
    ),
    (
        "serve",
        {"min_cache_speedup": 5.0},
        [_entry("serve_cold", cache_speedup=100.0)],
        [_entry("serve_cold", cache_speedup=2.0)],
    ),
]


class TestGates:
    @pytest.mark.parametrize("kind,options,good,bad", GATE_CASES)
    def test_floor_trips(self, kind, options, good, bad):
        assert check_gates(kind, good, options)
        assert all(ok for ok, _ in check_gates(kind, good, options))
        assert not all(ok for ok, _ in check_gates(kind, bad, options))

    def test_every_flag_has_a_case(self):
        flags = {(g.kind, g.flag) for g in GATES}
        cases = {(kind, f) for kind, opts, _, _ in GATE_CASES for f in opts}
        assert flags - {(g.kind, None) for g in GATES} == cases

    def test_unarmed_floors_are_silent(self):
        assert check_gates("scale", [], {"min_gen_eps": None}) == []


@pytest.mark.parametrize("path", COMMITTED, ids=[p.name for p in COMMITTED])
def test_committed_document_validates(path):
    assert validate_document(json.loads(path.read_text())) == []


def test_all_suites_have_a_committed_document():
    kinds = {json.loads(p.read_text())["kind"] for p in COMMITTED}
    assert kinds == set(core.KINDS)


def _run_suite(kind):
    if kind in ("kernels", "e2e", "scale"):
        from repro.bench import wallclock

        if kind == "scale":
            return wallclock.run_scale_suite("scale-tiny")
        run = wallclock.SUITES[kind]
        return run("smoke", repeats=1)
    if kind == "quality":
        from repro.bench.quality import run_quality_suite

        return run_quality_suite("smoke", repeats=1, threads=8)
    if kind == "stream":
        from repro.bench.streambench import run_stream_suite

        return run_stream_suite("stream-tiny", repeats=1, threads=4)
    from repro.bench.servebench import run_serve_suite

    return run_serve_suite("smoke", concurrency=2)


@pytest.mark.parametrize("kind", core.KINDS)
def test_suite_emits_committed_key_sets(kind):
    """A suite at its smoke/tiny preset emits, per entry name, one of the
    key sets the committed document has for that name (entries that only
    appear with extra workers or numba are not in it and are skipped)."""
    doc = next(
        json.loads(p.read_text())
        for p in COMMITTED
        if json.loads(p.read_text())["kind"] == kind
    )
    committed: dict[str, set[frozenset]] = {}
    for e in doc["benchmarks"]:
        committed.setdefault(e["name"], set()).add(frozenset(e.keys() - BASELINE_KEYS))
    compared = 0
    for e in _run_suite(kind):
        if e["name"] in committed:
            compared += 1
            assert frozenset(e) in committed[e["name"]], e["name"]
    assert compared
