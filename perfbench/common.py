"""Pieces every workload of the benchmark shares.

Statistics (median, tail percentile), label and graph digests, the pin
table, the failure ledger that feeds ``attempted``/``failed``, and the
host block printed beside every result.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PINS_PATH = BENCH_DIR / "pins.json"

#: Every timing is a median plus the highest percentile that still has
#: this many samples beyond it, so no "p99" comes from 10 samples.
TAIL_BEYOND = 10

#: A reported modularity may differ from its recomputation by this much.
MODULARITY_TOL = 1e-9

#: Each run sets up at least this many times, and keeps setting up until
#: the set-ups took :data:`SETUP_BUDGET_S` seconds; ``setup_s`` is their
#: median, so a cheap set-up is sampled often enough to be steady.
SETUPS = 3
SETUP_BUDGET_S = 1.0


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def now() -> float:
    return time.perf_counter()


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float] | None:
    """``(percentile, value)`` of the highest percentile that has at
    least :data:`TAIL_BEYOND` samples above it; ``None`` when there are
    too few samples for any."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    ordered = sorted(values)
    rank = n - TAIL_BEYOND - 1
    return 100.0 * (rank + 1) / n, float(ordered[rank])


def timing_line(label: str, seconds: list[float], unit: str = "ms") -> str:
    """``label: p50 X ms, pNN Y ms (n=Z)`` for the human-readable report."""
    scale = 1e3 if unit == "ms" else 1.0
    if not seconds:
        return f"{label}: no samples"
    line = f"{label}: p50 {median(seconds) * scale:.3f} {unit}"
    t = tail(seconds)
    if t is not None:
        line += f", p{t[0]:.1f} {t[1] * scale:.3f} {unit}"
    return line + f" (n={len(seconds)})"


def peak_rss_mb() -> float:
    """Peak resident set of this process, or of any child it has waited
    for, whichever is larger (Linux reports KiB). Read it after
    ``shutdown_all()`` has reaped the pool, so the memory of detections
    run in pool workers counts too."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def label_digest(labels: np.ndarray) -> str:
    arr = np.ascontiguousarray(labels)
    h = hashlib.sha256(arr.dtype.str.encode())
    h.update(arr.tobytes())
    return h.hexdigest()[:24]


def same_graph(a, b) -> bool:
    """Byte-identity of two CSR graphs (dtypes and values)."""
    return all(
        x.dtype == y.dtype and np.array_equal(x, y)
        for x, y in ((a.indptr, b.indptr), (a.indices, b.indices), (a.weights, b.weights))
    )


def detect(graph, alg: str, seed: int, workers: int | None = None, runtimes=None):
    """``make_detector(alg, seed=seed, workers=workers).run(graph)``, the
    ``repro detect`` path. With ``runtimes`` (a list), the run gets a
    fresh runtime of the detector's thread count, appended to the list
    so its ``loop_records`` can be read afterwards."""
    from repro.community.factory import make_detector
    from repro.parallel.machine import PAPER_MACHINE
    from repro.parallel.runtime import ParallelRuntime

    detector = make_detector(alg, seed=seed, workers=workers)
    if runtimes is None:
        return detector.run(graph)
    runtime = ParallelRuntime(PAPER_MACHINE, threads=detector.threads)
    runtimes.append(runtime)
    return detector.run(graph, runtime=runtime)


def timed_setup(build: Callable[[], Any], teardown: Callable[[Any], None]):
    """Run ``build`` repeatedly (see :data:`SETUPS`); keep the last state.

    Returns ``(state, median_seconds)``. Every earlier state is torn down
    before the next build, so the kept state is as fresh as a single
    set-up would leave it.
    """
    times: list[float] = []
    state = None
    while len(times) < SETUPS or sum(times) < SETUP_BUDGET_S:
        if state is not None:
            teardown(state)
        t0 = now()
        state = build()
        times.append(now() - t0)
    return state, median(times)


class Ledger:
    """Attempted and failed operations, with the reason of each failure.

    An operation counts as failed once, however many of its checks fail.
    """

    def __init__(self, pins: dict | None = None) -> None:
        self.pins = pins or {}
        self.attempted = 0
        self.failed_ops: set = set()
        self.problems: list[str] = []
        self.pinned_checks = 0
        self.reference_checks = 0

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, op: Any, reason: str) -> None:
        self.failed_ops.add(op)
        if len(self.problems) < 20:
            self.problems.append(f"{op}: {reason}")

    def expect(self, op: Any, ok: bool, reason: str) -> None:
        if not ok:
            self.fail(op, reason)

    def check_pin(
        self, op: Any, key: str, digest: str, sim_s: float, modularity: float
    ) -> bool:
        """Compare one result with its pinned values; ``False`` when the
        key has none, so the caller must check it another way."""
        pinned = self.pins.get(key)
        if pinned is None:
            return False
        self.pinned_checks += 1
        self.check_against(op, pinned, digest, sim_s, modularity, "pinned")
        return True

    def check_against(
        self, op: Any, want, digest: str, sim_s: float, modularity: float, what: str
    ) -> None:
        """Compare one result with the ``[digest, sim_s, modularity]`` it
        must have (``what`` names where those come from)."""
        want_digest, want_sim, want_q = want
        self.expect(op, digest == want_digest, f"label digest {digest} != {what} {want_digest}")
        self.expect(op, sim_s == want_sim, f"sim_s {sim_s!r} != {what} {want_sim!r}")
        self.expect(
            op,
            abs(modularity - want_q) <= MODULARITY_TOL,
            f"modularity {modularity!r} != {what} {want_q!r}",
        )


def load_pins(workload: str, seed: int) -> dict:
    """The pinned ``key -> [digest, sim_s, modularity]`` table of a run."""
    if not PINS_PATH.exists():
        return {}
    table = json.loads(PINS_PATH.read_text())
    return table.get(workload, {}).get(str(seed), {})


def src_lines() -> int:
    total = 0
    for path in (ROOT / "src").rglob("*.py"):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def graph_info(graph) -> dict[str, Any]:
    return {"name": graph.name, "n": int(graph.n), "m": int(graph.m)}


def host_block(workers: int, graphs: list[dict]) -> dict[str, Any]:
    """What a reader needs to place the numbers: host, versions, inputs."""
    from repro.community.backends import kernel_backends

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": kernel_backends()["default"],
        "workers": workers,
        "graphs": graphs,
        "src_lines": src_lines(),
        "platform": platform.platform(),
    }

