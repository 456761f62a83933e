"""Tests for the streaming-detection benchmark suite."""

import json

import numpy as np
import pytest

from repro.bench import wallclock
from repro.bench.streambench import (
    STREAM_PRESETS,
    iter_edgelist_event_batches,
    planted_churn_batches,
    rmat_churn_batches,
    run_stream_suite,
)
from repro.graph import generators
from repro.graph.dynamic import EVENT_ADD, EVENT_REMOVE


@pytest.fixture(scope="module")
def tiny_entries():
    return run_stream_suite("stream-tiny", repeats=1, threads=4)


class TestSuite:
    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            run_stream_suite("nope")

    def test_entry_names(self, tiny_entries):
        assert [e["name"] for e in tiny_entries] == [
            "dyn_apply_events",
            "freeze_delta_ab",
            "edgelist_ingest_stream",
            "dplp_stream",
            "dplm_stream",
            "dplm_incremental_ab",
        ]

    def test_document_validates(self, tiny_entries):
        doc = wallclock.build_document("stream", "stream-tiny", tiny_entries)
        assert wallclock.validate_document(doc) == []

    def test_freeze_ab_is_identical_and_delta(self, tiny_entries):
        ab = next(e for e in tiny_entries if e["name"] == "freeze_delta_ab")
        assert ab["identical"] is True
        assert 0.0 < ab["dirty_fraction"] <= 1.0
        assert ab["full_wall_s"] > 0

    def test_incremental_ab_quality_fields(self, tiny_entries):
        ab = next(e for e in tiny_entries if e["name"] == "dplm_incremental_ab")
        assert 0.0 <= ab["nmi_min"] <= ab["nmi_mean"] <= 1.0
        assert ab["update_speedup"] > 0

    def test_stream_entries_report_latency(self, tiny_entries):
        for name in ("dplp_stream", "dplm_stream"):
            e = next(x for x in tiny_entries if x["name"] == name)
            assert e["events_per_s"] > 0
            assert 0 < e["p50_ms"] <= e["max_ms"]
            assert sum(e["update_modes"].values()) == e["batches"]

    def test_presets_well_formed(self):
        for cfg in STREAM_PRESETS.values():
            assert cfg["planted"]["n"] % cfg["planted"]["k"] == 0


class TestChurnGenerators:
    def test_planted_churn_is_community_local(self):
        graph, truth = generators.planted_partition(400, 8, 0.15, 0.005, seed=2)
        batches = planted_churn_batches(graph, truth, 3, 40, 2, seed=3)
        assert len(batches) == 3
        for us, vs, ws, kinds in batches:
            assert np.array_equal(truth[us], truth[vs])  # intra only
            adds = kinds == EVENT_ADD
            assert np.all(us[adds] != vs[adds])
            for u, v in zip(us[~adds], vs[~adds]):
                assert graph.has_edge(int(u), int(v))

    def test_planted_removals_never_repeat(self):
        graph, truth = generators.planted_partition(400, 8, 0.15, 0.005, seed=2)
        batches = planted_churn_batches(graph, truth, 4, 40, 2, seed=4)
        seen = set()
        for us, vs, ws, kinds in batches:
            rem = kinds == EVENT_REMOVE
            for u, v in zip(us[rem], vs[rem]):
                key = (min(u, v), max(u, v))
                assert key not in seen
                seen.add(key)

    def test_rmat_churn_removals_exist_once(self):
        graph = generators.rmat(8, 4, seed=5)
        batches = rmat_churn_batches(graph, 3, 30, seed=6)
        seen = set()
        for us, vs, ws, kinds in batches:
            rem = kinds == EVENT_REMOVE
            for u, v in zip(us[rem], vs[rem]):
                key = (min(u, v), max(u, v))
                assert graph.has_edge(int(u), int(v))
                assert key not in seen
                seen.add(key)


class TestEdgelistStream:
    def test_batches_and_values(self, tmp_path):
        path = tmp_path / "stream.edges"
        path.write_text(
            "# header comment\n"
            "0 1\n"
            "1 2 2.5\n"
            "2 3\n"
            "3 4\n"
            "4 5 0.5\n"
        )
        batches = list(iter_edgelist_event_batches(path, batch_events=2))
        assert [len(b[0]) for b in batches] == [2, 2, 1]
        us = np.concatenate([b[0] for b in batches])
        ws = np.concatenate([b[2] for b in batches])
        kinds = np.concatenate([b[3] for b in batches])
        assert us.tolist() == [0, 1, 2, 3, 4]
        assert ws.tolist() == [1.0, 2.5, 1.0, 1.0, 0.5]
        assert kinds.tolist() == [0] * 5

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.edges"
        path.write_text("# nothing\n")
        assert list(iter_edgelist_event_batches(path)) == []


class TestCLI:
    def test_stream_subcommand_writes_document(self, tmp_path, capsys):
        out = tmp_path / "BENCH_stream.json"
        rc = wallclock.main(
            [
                "stream",
                "--preset",
                "stream-tiny",
                "--repeats",
                "1",
                "--threads",
                "4",
                "--min-nmi",
                "0.5",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "stream"
        assert wallclock.validate_document(doc) == []
        assert "events/s" in capsys.readouterr().out

    def test_events_per_s_gate_fails(self, tmp_path):
        rc = wallclock.main(
            [
                "stream",
                "--preset",
                "stream-tiny",
                "--repeats",
                "1",
                "--threads",
                "4",
                "--min-events-per-s",
                "1e15",
                "--out",
                str(tmp_path / "b.json"),
            ]
        )
        assert rc == 1
