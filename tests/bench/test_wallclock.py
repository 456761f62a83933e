"""Schema / merge logic of the wall-clock microbenchmark layer."""

import json

import pytest

from repro.bench.wallclock import (
    SCHEMA,
    build_document,
    main,
    merge_baseline,
    validate_document,
    write_document,
)


def entry(name="gather_full", graph="g", size="1k", wall=0.5, **extra):
    out = {
        "name": name,
        "graph": graph,
        "size": size,
        "n": 10,
        "m": 20,
        "repeats": 3,
        "wall_s": wall,
    }
    out.update(extra)
    return out


def test_valid_document_passes():
    doc = build_document("kernels", "smoke", [entry()])
    assert validate_document(doc) == []


def test_schema_and_kind_checked():
    doc = build_document("kernels", "smoke", [entry()])
    doc["schema"] = "bogus/v0"
    doc["kind"] = "macro"
    problems = validate_document(doc)
    assert any(SCHEMA in p for p in problems)
    assert any("kind" in p for p in problems)


def test_missing_entry_keys_reported():
    bad = entry()
    del bad["wall_s"]
    problems = validate_document(build_document("e2e", "smoke", [bad]))
    assert any("wall_s" in p for p in problems)


def test_empty_benchmarks_invalid():
    doc = build_document("kernels", "smoke", [])
    assert validate_document(doc)


def test_negative_wall_invalid():
    doc = build_document("kernels", "smoke", [entry(wall=-1.0)])
    assert any("non-negative" in p for p in validate_document(doc))


def test_merge_baseline_adds_speedup():
    before = build_document("kernels", "full", [entry(wall=1.0)])
    after = build_document("kernels", "full", [entry(wall=0.25)])
    merged = merge_baseline(after, before)
    e = merged["benchmarks"][0]
    assert e["before_s"] == 1.0
    assert e["after_s"] == 0.25
    assert e["speedup"] == pytest.approx(4.0)


def test_merge_baseline_skips_unmatched():
    before = build_document("kernels", "full", [entry(name="coarsen")])
    after = build_document("kernels", "full", [entry(name="gather_full")])
    merged = merge_baseline(after, before)
    assert "speedup" not in merged["benchmarks"][0]


def test_scale_kind_valid():
    e = entry(name="rmat_generate", edges_per_s=1e6, peak_rss_mb=12.0)
    assert validate_document(build_document("scale", "scale-tiny", [e])) == []


def test_serve_kind_valid():
    e = entry(name="serve_cold", p50_ms=12.0, max_ms=20.0, cache_speedup=100.0)
    assert validate_document(build_document("serve", "smoke", [e])) == []


def test_merge_baseline_skips_changed_instance():
    # A generator RNG-stream change re-draws the instance; n/m drift and
    # wall comparisons against the old instance would be bogus.
    before = build_document("e2e", "full", [entry(wall=1.0)])
    changed = entry(wall=0.25)
    changed["m"] = 999
    merged = merge_baseline(build_document("e2e", "full", [changed]), before)
    e = merged["benchmarks"][0]
    assert "speedup" not in e
    assert "baseline_skipped" in e


def test_scale_suite_tiny_end_to_end(tmp_path, capsys):
    out = tmp_path / "BENCH_scale.json"
    assert main(["scale", "--preset", "scale-tiny", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert validate_document(doc) == []
    names = {e["name"] for e in doc["benchmarks"]}
    assert {"rmat_generate", "rmat_gen_ab", "pp_generate", "plp_detect"} <= names
    ab = next(e for e in doc["benchmarks"] if e["name"] == "rmat_gen_ab")
    # The vectorized sampler must beat the loop even at tiny size.
    assert ab["gen_speedup"] > 5
    assert ab["loop_samples"] <= ab["samples"]
    gen = next(e for e in doc["benchmarks"] if e["name"] == "rmat_generate")
    assert gen["edges_per_s"] > 0
    # The CI floor flag: an absurd floor must fail the run.
    assert (
        main(
            [
                "scale",
                "--preset",
                "scale-tiny",
                "--out",
                str(out),
                "--min-gen-eps",
                "1e15",
            ]
        )
        == 1
    )
    capsys.readouterr()


def test_scale_unknown_preset_rejected():
    from repro.bench.wallclock import run_scale_suite

    with pytest.raises(ValueError, match="unknown scale preset"):
        run_scale_suite("huge")


def test_cli_validate_roundtrip(tmp_path, capsys):
    good = tmp_path / "good.json"
    write_document(build_document("kernels", "smoke", [entry()]), str(good))
    assert main(["validate", str(good)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "nope"}))
    assert main(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "ok" in out and "INVALID" in out


class TestKernelBackendFields:
    """Schema additions for the compiled-backend A/B (kernel_backend)."""

    def test_backend_field_accepted(self):
        doc = build_document("kernels", "smoke", [entry(backend="numpy")])
        assert validate_document(doc) == []

    def test_bad_backend_value_rejected(self):
        doc = build_document("kernels", "smoke", [entry(backend="cython")])
        assert any("backend" in p for p in validate_document(doc))

    def test_ab_entry_requires_identical_flag(self):
        ab = entry(
            name="move_sweep_backend_ab",
            backend="numba",
            numpy_wall_s=0.5,
            compile_s=0.1,
        )
        doc = build_document("kernels", "smoke", [ab])
        assert any("identical" in p for p in validate_document(doc))
        ab["identical"] = True
        assert validate_document(build_document("kernels", "smoke", [ab])) == []

    def test_ab_entry_requires_nonnegative_timings(self):
        ab = entry(
            name="plm_backend_ab",
            backend="numba",
            identical=True,
            numpy_wall_s=-1.0,
            compile_s=0.0,
        )
        problems = validate_document(build_document("e2e", "smoke", [ab]))
        assert any("numpy_wall_s" in p for p in problems)

    def test_host_info_reports_kernel_backends(self):
        doc = build_document("kernels", "smoke", [entry()])
        kb = doc["host"]["kernel_backends"]
        assert kb["numpy"]["available"] is True
        assert "numba" in kb


def test_kernel_suite_emits_backend_ab_under_fallback(monkeypatch, tmp_path):
    """With the interpreted fallback enabled, the kernels suite appends a
    byte-identity A/B entry per graph and the document still validates.
    Slow by design (every cell runs twice) — tiny preset only."""
    from repro.community._kernels_numba import FALLBACK_ENV

    monkeypatch.setenv(FALLBACK_ENV, "1")
    out = tmp_path / "k.json"
    assert (
        main(
            ["kernels", "--preset", "smoke", "--repeats", "1",
             "--out", str(out)]
        )
        == 0
    )
    doc = json.loads(out.read_text())
    assert validate_document(doc) == []
    abs_ = [e for e in doc["benchmarks"] if e["name"].endswith("_backend_ab")]
    assert abs_, "fallback active but no A/B entries emitted"
    for e in abs_:
        assert e["identical"] is True  # byte-identity, empirically
        assert e["compile_s"] >= 0.0
        assert e["backend"] == "numba"


def test_e2e_suite_records_resolved_backend(monkeypatch, tmp_path):
    from repro.community._kernels_numba import FALLBACK_ENV
    from repro.parallel.backend import shutdown_all

    monkeypatch.setenv(FALLBACK_ENV, "1")
    # Pool workers read the variable when they start: reap any pool an
    # earlier test started, so the suite's workers inherit it, and reap
    # this test's pool so no later test inherits it.
    shutdown_all()
    out = tmp_path / "e.json"
    try:
        assert (
            main(
                ["e2e", "--preset", "smoke", "--repeats", "1",
                 "--kernel-backend", "numba", "--out", str(out)]
            )
            == 0
        )
    finally:
        shutdown_all()
    doc = json.loads(out.read_text())
    assert validate_document(doc) == []
    runs = [e for e in doc["benchmarks"] if e["name"].endswith("_run")]
    assert runs and all(e["backend"] == "numba" for e in runs)
    abs_ = [e for e in doc["benchmarks"] if e["name"].endswith("_backend_ab")]
    assert abs_ and all(e["identical"] for e in abs_)
