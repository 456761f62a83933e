"""The repository's benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload detect_rmat --seed 1 --seconds 20 --trace 0

Workloads (each module's docstring says why it was chosen):

* ``detect_rmat``: ``make_detector(alg).run(g)`` for plp, plm and epp on
  R-MAT graphs (the ``repro detect`` path);
* ``serve_mix``: closed-loop clients of an in-process detection server;
* ``stream_churn``: apply, freeze, drain and incremental PLM per batch of
  community-local churn.

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
untraced. Each means the same on every workload, for that workload's
operation: a detection pass (plp, plm and epp once each), a request, or
an event batch. ``p50_ms`` is the median operation latency,
``throughput_per_s`` counts detections, requests or events per second,
``modularity`` is the mean recomputed modularity of the partitions
produced. The failure rate is ``failed / attempted`` in the JSON line.

``--trace 1`` runs the same load with spans around the calls into each
layer (see ``spans.py``) and reports the per-layer metrics, per operation,
with the tracing overhead; it writes its spans to ``.bench_out/``. A
per-layer metric reads 0 on a workload that never calls that layer. What
each should move:

* the community and parallel runtime figures (kernel, commit, schedule,
  runtime self time, loops, chunks, blocks, speculation, coarsening,
  driver): ``p50_ms`` and ``throughput_per_s`` on ``detect_rmat`` and
  ``stream_churn``; on ``serve_mix`` they come from an in-process replay
  of the served misses, and move its ``throughput_per_s``;
* ``parallel.backend_map_s`` / ``backend_tasks``: EPP on ``detect_rmat``,
  dispatch on ``serve_mix``;
* ``serve.*``: ``serve_mix``; the codec moves ``p50_ms`` (a cache hit),
  registry, submit and queue wait move ``throughput_per_s``;
* ``graph.apply_events_s``, ``freeze_s``, ``dirty_fraction``,
  ``community.update_s``, ``update_full_ratio``: ``stream_churn``;
* ``sim_s`` must never move; ``tracing_overhead`` is traced over
  untraced wall, with ``tracing_untraced_s`` its base; ``ops`` is the
  number of operations the per-operation figures average over.

Every run checks its outputs outside the timed region (pinned digests,
or direct runs of the same detections where no pin reaches; served
against direct labels; delta freezes against full rebuilds; reported
against recomputed modularity). Human-readable lines come
first; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("detect_rmat", "serve_mix", "stream_churn")


def declared_metrics(trace: bool) -> dict[str, str]:
    """``name -> unit`` of the metrics ``BENCHMARK.json`` declares for a
    traced or untraced run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name: str, seed: int, seconds: float, trace: bool, pins=None, cfg=None):
    """Run one workload; returns ``(result_line_dict, workload_output)``."""
    from common import load_pins

    module = importlib.import_module(name)
    if pins is None:
        pins = load_pins(name, seed)
    out = module.run(seed, seconds, trace, pins, **({} if cfg is None else {"cfg": cfg}))
    declared = declared_metrics(trace)
    metrics = dict(out["metrics"])
    unknown = set(metrics) - set(declared)
    if unknown:
        raise RuntimeError(f"{name} reports undeclared metrics {sorted(unknown)}")
    missing = [m for m in declared if m not in metrics]
    if missing and not trace:
        raise RuntimeError(f"{name} does not report {missing}")
    for m in missing:
        metrics[m] = 0.0  # a layer this workload never calls
    out["unused_layers"] = missing
    ledger = out["ledger"]
    result = {
        "correct": ledger.failed == 0 and ledger.attempted > 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m: {"value": float(metrics[m]), "unit": unit} for m, unit in declared.items()},
    }
    return result, out


def stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker process ``multiprocessing``
    starts on first use, and wait for it, so no process outlives the run."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    tmp = ROOT / ".bench_tmp"
    tmp.mkdir(exist_ok=True)
    # Keep every temporary file of the run inside the checkout.
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)

    result, out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    stop_resource_tracker()
    ledger = out["ledger"]
    lines = list(out["lines"])
    lines.append(f"error_rate {ledger.failed / max(1, ledger.attempted):.6f} "
                 f"({ledger.failed} failed of {ledger.attempted} attempted; "
                 f"{ledger.pinned_checks} checked against pins, "
                 f"{ledger.reference_checks} against direct runs)")
    lines += [f"  FAILED {p}" for p in ledger.problems]
    if out["unused_layers"]:
        lines.append("layers not called by this workload (reported as 0): "
                     + ", ".join(out["unused_layers"]))
    lines.append("host " + json.dumps(out["host"], sort_keys=True))
    for name, metric in result["metrics"].items():
        lines.append(f"{name} {metric['value']:.6g} {metric['unit']}")
    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{args.workload}-{args.seed}.json"
        out["tracer"].dump(path)
        lines.append(f"spans written to {path.relative_to(ROOT)}")
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
