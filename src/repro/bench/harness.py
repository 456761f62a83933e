"""Experiment runner: algorithm x network matrices with run averaging.

The paper averages quality and speed over multiple runs "to compensate for
fluctuations" (§IV-C) and reports most results *relative to PLM* (§V-B).
This module provides exactly that machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.bench.core import timed
from repro.community.base import CommunityDetector
from repro.graph.csr import Graph
from repro.parallel.backend import materialize, resolve_backend
from repro.partition.quality import modularity

__all__ = ["ExperimentRow", "run_matrix", "aggregate_rows", "relative_to_baseline"]

AlgorithmFactory = Callable[[int], CommunityDetector]
"""Builds a fresh detector from a run seed."""

#: Per-loop telemetry fields averaged into :attr:`ExperimentRow.loops`.
_LOOP_FIELDS = ("time", "imbalance", "overhead_share", "stale_lag_mean")


def _run_cell(graph, factory: AlgorithmFactory, seed: int) -> dict:
    """One (algorithm, graph, repeat) cell — the harness's unit of work.

    Shared by the serial path and the process-pool path (where ``graph``
    arrives as a zero-copy shared-memory handle): the returned numbers are
    a pure function of ``(graph, factory, seed)`` except ``wall``, which
    measures the host seconds of this particular execution.
    """
    graph = materialize(graph)
    result, wall = timed(factory(seed).run, graph)
    return {
        "wall": wall,
        "modularity": modularity(graph, result.partition),
        "time": result.timing.total,
        "k": result.partition.k,
        "imbalance": result.timing.loop_imbalance,
        "overhead_share": result.timing.overhead_share,
        "loops": result.timing.loops,
        # Present only when the run executed under REPRO_RACECHECK=1 (the
        # default runtime honors the env var): loop/conflict counters.
        "racecheck": result.info.get("racecheck"),
    }


@dataclass(frozen=True)
class ExperimentRow:
    """Averaged result of one (algorithm, network) cell.

    ``time`` is simulated seconds; ``wall_time`` the mean *host* seconds a
    run actually took (the two clocks are unrelated — see EXPERIMENTS.md);
    ``communities`` the mean community
    count; ``runs`` the number of repetitions averaged. The telemetry
    fields come from the runtime's per-loop records: ``imbalance`` is the
    time-weighted mean thread imbalance over all parallel loops,
    ``overhead_share`` the fraction of loop thread-seconds lost to
    dispatch/barrier overhead, and ``loops`` a per-label breakdown
    (label -> ``{"time", "imbalance", "overhead_share", "stale_lag_mean"}``
    means over the runs).
    """

    algorithm: str
    network: str
    modularity: float
    time: float
    communities: float
    runs: int
    imbalance: float = 1.0
    overhead_share: float = 0.0
    wall_time: float = 0.0
    loops: dict[str, dict[str, float]] = field(default_factory=dict)
    #: Summed racecheck counters over the runs (loops checked, conflict
    #: counts per kind, fatal total); ``None`` when racecheck was off.
    racecheck: dict[str, int] | None = None

    def key(self) -> tuple[str, str]:
        """(algorithm, network) pair identifying this matrix cell."""
        return (self.algorithm, self.network)


def run_matrix(
    algorithms: dict[str, AlgorithmFactory],
    graphs: Iterable[Graph],
    runs: int = 3,
    seed: int = 0,
    workers: int | None = None,
) -> list[ExperimentRow]:
    """Run every algorithm on every graph, averaging over ``runs`` seeds.

    ``workers`` fans the independent (algorithm, graph, repeat) cells out
    to a shared-memory process pool (``None`` defers to ``REPRO_WORKERS``,
    ``<= 1`` stays serial). Each graph ships to the workers once,
    zero-copy; results are reassembled in submission order, and every
    averaged column except ``wall_time`` (host seconds, by nature
    nondeterministic) is identical for every worker count. Cells whose
    factory cannot be pickled (lambdas) transparently run inline.
    """
    graph_list = list(graphs)
    cells = [
        (graph, name, factory, seed + r)
        for graph in graph_list
        for name, factory in algorithms.items()
        for r in range(runs)
    ]
    backend = resolve_backend(workers)
    if backend.workers > 1:
        tasks = [
            (backend.share_graph(graph), factory, s)
            for graph, _, factory, s in cells
        ]
        outcomes = backend.map(_run_cell, tasks)
    else:
        outcomes = [
            _run_cell(graph, factory, s) for graph, _, factory, s in cells
        ]

    rows: list[ExperimentRow] = []
    by_cell = iter(outcomes)
    for graph in graph_list:
        for name in algorithms:
            outs = [next(by_cell) for _ in range(runs)]

            def mean(key: str) -> float:
                return float(np.mean([out[key] for out in outs]))

            per_loop: dict[str, list] = {}
            rc_acc: dict[str, int] | None = None
            for out in outs:
                for label, tel in out["loops"].items():
                    per_loop.setdefault(label, []).append(tel)
                if out.get("racecheck") is not None:
                    rc_acc = rc_acc or {}
                    for k, v in out["racecheck"].items():
                        rc_acc[k] = rc_acc.get(k, 0) + int(v)
            rows.append(
                ExperimentRow(
                    algorithm=name,
                    network=graph.name,
                    modularity=mean("modularity"),
                    time=mean("time"),
                    communities=mean("k"),
                    runs=runs,
                    imbalance=mean("imbalance"),
                    overhead_share=mean("overhead_share"),
                    wall_time=mean("wall"),
                    loops={
                        label: {
                            f: float(np.mean([getattr(t, f) for t in tels]))
                            for f in _LOOP_FIELDS
                        }
                        for label, tels in per_loop.items()
                    },
                    racecheck=rc_acc,
                )
            )
    return rows


def aggregate_rows(
    rows: Sequence[ExperimentRow],
) -> dict[tuple[str, str], ExperimentRow]:
    """Index rows by (algorithm, network)."""
    return {row.key(): row for row in rows}


def relative_to_baseline(
    rows: Sequence[ExperimentRow], baseline: str = "PLM"
) -> list[dict[str, float | str]]:
    """Per-network quality difference and time ratio vs the baseline.

    Mirrors Figures 6/7: for each (algorithm, network) report
    ``mod - mod_baseline`` and ``time / time_baseline``.
    """
    index = aggregate_rows(rows)
    networks = sorted({row.network for row in rows})
    out: list[dict[str, float | str]] = []
    for row in rows:
        if row.algorithm == baseline:
            continue
        base = index.get((baseline, row.network))
        if base is None:
            raise KeyError(f"baseline {baseline!r} missing for {row.network!r}")
        out.append(
            {
                "algorithm": row.algorithm,
                "network": row.network,
                "mod_diff": row.modularity - base.modularity,
                "time_ratio": row.time / base.time if base.time > 0 else np.inf,
            }
        )
    # Keep deterministic network-major order for reporting.
    out.sort(key=lambda d: (d["algorithm"], networks.index(d["network"])))
    return out
