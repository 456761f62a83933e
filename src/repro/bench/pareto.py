"""Pareto evaluation (paper §V-F, Figure 5).

Condenses the per-network matrix into one point per algorithm:

* **time score** — geometric mean over the test networks of the running
  time ratio vs PLM (1.0 = as fast as PLM, <1 faster),
* **modularity score** — arithmetic mean of the absolute modularity
  difference vs PLM (>0 better than PLM).

The Pareto frontier contains every algorithm not dominated by another
(faster *and* better).

Two condensers share the :class:`ParetoPoint` geometry:
:func:`pareto_scores` consumes the experiment harness's
:class:`~repro.bench.harness.ExperimentRow` matrices (paper Figure 5),
and :func:`quality_pareto_points` consumes the detector-zoo quality
suite's benchmark entries (``BENCH_quality.json``), scoring NMI against
ground truth where it exists and modularity elsewhere."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.bench.harness import ExperimentRow, aggregate_rows

__all__ = [
    "ParetoPoint",
    "pareto_scores",
    "pareto_frontier",
    "quality_pareto_points",
    "quality_pareto_report",
    "validate_pareto_block",
    "format_pareto",
]


@dataclass(frozen=True)
class ParetoPoint:
    """One algorithm's condensed (time, quality) score."""

    algorithm: str
    time_score: float
    mod_score: float

    def dominates(self, other: "ParetoPoint") -> bool:
        """Strictly better in one dimension, at least as good in the other."""
        no_worse = (
            self.time_score <= other.time_score
            and self.mod_score >= other.mod_score
        )
        better = (
            self.time_score < other.time_score
            or self.mod_score > other.mod_score
        )
        return no_worse and better


def pareto_scores(
    rows: Sequence[ExperimentRow], baseline: str = "PLM"
) -> list[ParetoPoint]:
    """Compute the Figure 5 scores from a run matrix."""
    index = aggregate_rows(rows)
    algorithms = sorted({row.algorithm for row in rows})
    networks = sorted({row.network for row in rows})
    points = []
    for alg in algorithms:
        ratios, diffs = [], []
        for net in networks:
            row = index.get((alg, net))
            base = index.get((baseline, net))
            if row is None or base is None:
                continue
            if base.time > 0 and row.time > 0:
                ratios.append(row.time / base.time)
            diffs.append(row.modularity - base.modularity)
        if not diffs:
            continue
        time_score = float(np.exp(np.mean(np.log(ratios)))) if ratios else np.inf
        mod_score = float(np.mean(diffs))
        points.append(ParetoPoint(alg, time_score, mod_score))
    return points


def pareto_frontier(points: Sequence[ParetoPoint]) -> list[ParetoPoint]:
    """Points not dominated by any other point."""
    return [
        p
        for p in points
        if not any(q.dominates(p) for q in points if q is not p)
    ]


def quality_pareto_points(
    entries: Sequence[dict], baseline: str = "PLM"
) -> list[ParetoPoint]:
    """Condense quality-suite entries into one point per detector.

    ``entries`` are ``BENCH_quality.json`` benchmark records (see
    :func:`repro.bench.quality.run_quality_suite`). Per detector:

    * **time score** — geometric mean over the instances of the
      *simulated*-seconds ratio vs the baseline (1.0 = as fast as PLM,
      <1 faster); simulated time keeps the condensation deterministic
      and machine-independent,
    * **quality score** — mean difference vs the baseline of NMI on
      ground-truth instances and modularity on the rest (>0 better than
      PLM). Both metrics live on comparable unit scales, so the mean is
      a meaningful "quality edge" summary.
    """
    index = {(e["algorithm"], e["graph"]): e for e in entries}
    algorithms = sorted({e["algorithm"] for e in entries})
    graphs = sorted({e["graph"] for e in entries})
    points = []
    for alg in algorithms:
        ratios, diffs = [], []
        for gname in graphs:
            row = index.get((alg, gname))
            base = index.get((baseline, gname))
            if row is None or base is None:
                continue
            if base["sim_time_s"] > 0 and row["sim_time_s"] > 0:
                ratios.append(row["sim_time_s"] / base["sim_time_s"])
            if "nmi" in row and "nmi" in base:
                diffs.append(row["nmi"] - base["nmi"])
            else:
                diffs.append(row["modularity"] - base["modularity"])
        if not diffs:
            continue
        time_score = float(np.exp(np.mean(np.log(ratios)))) if ratios else np.inf
        points.append(ParetoPoint(alg, time_score, float(np.mean(diffs))))
    return points


def quality_pareto_report(
    entries: Sequence[dict], baseline: str = "PLM"
) -> dict:
    """JSON-serializable Pareto block for a quality document.

    ``points`` carries every detector's condensed scores; ``frontier``
    names the non-dominated detectors (sorted by time score, fastest
    first).
    """
    points = quality_pareto_points(entries, baseline=baseline)
    frontier = sorted(pareto_frontier(points), key=lambda p: p.time_score)
    return {
        "baseline": baseline,
        "points": [
            {
                "algorithm": p.algorithm,
                "time_score": p.time_score,
                "mod_score": p.mod_score,
            }
            for p in points
        ],
        "frontier": [p.algorithm for p in frontier],
    }


def validate_pareto_block(pareto: Any) -> list[str]:
    """Schema problems of a quality document's Pareto block (empty = valid)."""
    if not isinstance(pareto, dict):
        return ["quality documents need a 'pareto' block"]
    problems: list[str] = []
    points = pareto.get("points")
    if not isinstance(points, list) or not points:
        problems.append("pareto.points must be a non-empty list")
        points = []
    for j, point in enumerate(points):
        if not isinstance(point.get("algorithm"), str):
            problems.append(f"pareto.points[{j}].algorithm must be a string")
        problems += [
            f"pareto.points[{j}].{key} must be a number"
            for key in ("time_score", "mod_score")
            if not isinstance(point.get(key), (int, float))
        ]
    algorithms = {p.get("algorithm") for p in points}
    frontier = pareto.get("frontier")
    if not isinstance(frontier, list) or not frontier:
        return problems + ["pareto.frontier must be a non-empty list"]
    return problems + [
        f"pareto.frontier names unknown algorithm {alg!r}"
        for alg in frontier
        if not isinstance(alg, str) or alg not in algorithms
    ]


def format_pareto(pareto: dict) -> str:
    """Human-readable Pareto block; ``*`` marks the frontier."""
    frontier = set(pareto["frontier"])
    lines = [f"\nPareto condensation (baseline {pareto['baseline']}):"]
    lines += [
        f" {'*' if p['algorithm'] in frontier else ' '} {p['algorithm']:>12s}  "
        f"time x{p['time_score']:.3f}  quality {p['mod_score']:+.4f}"
        for p in pareto["points"]
    ]
    lines.append(f"frontier: {', '.join(pareto['frontier'])}")
    return "\n".join(lines)
