"""Quality-vs-speed matrix across the detector zoo.

Runs **every** detector — the paper's four (PLP, PLM, PLMR, EPP), the
overlapping/dynamic/sharded extensions (OLP, DPLP, SPLP) and the
detector-zoo Louvain variants (Grappolo, SyncLouvain) — against every
generator category and scores each run on two axes:

* **quality** — NMI and ARI against the planted ground truth where one
  exists (planted-partition and LFR instances), modularity everywhere;
* **speed** — simulated seconds on the paper's machine (the reproduced
  metric; host wall-clock is recorded alongside, but the Pareto axes use
  simulated time so the matrix is machine-independent and
  deterministic).

The result is the entry list of ``BENCH_quality.json`` (one entry per
detector × graph) plus a Pareto condensation via
:func:`repro.bench.pareto.quality_pareto_points`: one point per
detector (geometric-mean time ratio vs PLM, mean quality difference vs
PLM), with the non-dominated frontier reported. Regenerate with::

    PYTHONPATH=src python -m repro.bench.wallclock quality --preset full \
        --out BENCH_quality.json

Every run is deterministic given ``(preset, threads, seed)``: detectors
are seeded, generators are seeded, and the clock is simulated — so the
quality numbers in a committed document are exactly reproducible.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.bench.core import TRUTH_CATEGORIES, entry, interleave
from repro.community import EPP, OLP, PLM, PLMR, PLP, Grappolo, ShardedPLP, SyncLouvain
from repro.community.dplp import DynamicPLP
from repro.graph.csr import Graph
from repro.graph.generators import (
    barabasi_albert,
    planted_partition,
    rmat,
    watts_strogatz,
)
from repro.graph.lfr import lfr_graph
from repro.partition.compare import (
    adjusted_rand_index,
    normalized_mutual_information,
)
from repro.partition.quality import modularity

__all__ = [
    "DETECTORS",
    "TRUTH_CATEGORIES",
    "quality_graphs",
    "run_quality_suite",
]

#: Detector id -> constructor; the full zoo, in report order. Ids match
#: the factory's algorithm names where a factory route exists (``olp``
#: is class-only because it overlaps). ``dplp``/``dplm`` are factory-
#: routed incremental detectors; here DPLP scores its static cold run —
#: the streaming driver (:mod:`repro.bench.streambench`) scores the
#: incremental ``update`` path for both.
DETECTORS: dict[str, Callable[[int, int], Any]] = {
    "PLP": lambda threads, seed: PLP(threads=threads, seed=seed),
    "PLM": lambda threads, seed: PLM(threads=threads, seed=seed),
    "PLMR": lambda threads, seed: PLMR(threads=threads, seed=seed),
    "EPP": lambda threads, seed: EPP(threads=threads, ensemble_size=4, seed=seed),
    "OLP": lambda threads, seed: OLP(threads=threads, seed=seed),
    "DPLP": lambda threads, seed: DynamicPLP(threads=threads, seed=seed),
    "SPLP": lambda threads, seed: ShardedPLP(threads=threads, shards=2, seed=seed),
    "Grappolo": lambda threads, seed: Grappolo(threads=threads, seed=seed),
    "SyncLouvain": lambda threads, seed: SyncLouvain(threads=threads, seed=seed),
}

def quality_graphs(
    preset: str,
) -> list[tuple[str, str, Graph, np.ndarray | None]]:
    """Instances of the matrix: ``(category, size, graph, truth)`` rows.

    ``truth`` is the planted node labelling for the ground-truth
    categories (:data:`TRUTH_CATEGORIES`) and ``None`` for the
    structure-only ones (scale-free, preferential-attachment,
    small-world).
    """
    if preset == "smoke":
        planted = planted_partition(
            300, 6, 0.3, 0.01, seed=11, name="planted_300"
        )
        lfr = lfr_graph(
            350, avg_degree=10.0, max_degree=40, mu=0.25,
            min_community=20, max_community=80, seed=11, name="lfr_350",
        )
        return [
            ("planted", "2k", planted[0], planted[1]),
            ("lfr", "2k", lfr.graph, lfr.ground_truth),
            ("rmat", "2k", rmat(9, 4, seed=11, name="rmat_9"), None),
            ("ba", "2k", barabasi_albert(400, 4, seed=11, name="ba_400"), None),
            ("ws", "2k", watts_strogatz(400, 8, 0.1, seed=11, name="ws_400"), None),
        ]
    if preset == "full":
        planted = planted_partition(
            2000, 10, 0.05, 0.002, seed=11, name="planted_2000"
        )
        lfr = lfr_graph(
            1500, avg_degree=12.0, max_degree=60, mu=0.3,
            min_community=20, max_community=120, seed=11, name="lfr_1500",
        )
        return [
            ("planted", "10k", planted[0], planted[1]),
            ("lfr", "10k", lfr.graph, lfr.ground_truth),
            ("rmat", "10k", rmat(11, 6, seed=11, name="rmat_11"), None),
            ("ba", "10k", barabasi_albert(2000, 6, seed=11, name="ba_2000"), None),
            ("ws", "10k", watts_strogatz(2000, 10, 0.1, seed=11, name="ws_2000"), None),
        ]
    raise ValueError(f"unknown preset {preset!r} (use 'smoke' or 'full')")


def run_quality_suite(
    preset: str = "smoke",
    repeats: int = 1,
    threads: int = 32,
    seed: int = 0,
) -> list[dict[str, Any]]:
    """Run the full detector × generator matrix.

    Returns one benchmark entry per cell with the wallclock schema's
    required keys plus ``algorithm``, ``category``, ``sim_time_s``,
    ``modularity``, ``communities`` and — on ground-truth categories —
    ``nmi`` / ``ari``. ``wall_s`` is the best host wall time over
    ``repeats`` runs; the scored labels come from the final run (every
    detector is deterministic given its seed, so all runs agree).
    """
    entries: list[dict[str, Any]] = []
    for category, size, graph, truth in quality_graphs(preset):
        for alg, build in DETECTORS.items():
            run = interleave(
                {alg: (lambda: build(threads, seed), lambda d: d.run(graph))},
                repeats,
            )[alg]
            result = run.results[-1]
            labels = result.partition.labels
            cell = entry(
                f"{alg.lower()}_quality",
                graph,
                size,
                run.summary.n,
                run.summary.best,
                algorithm=alg,
                category=category,
                sim_time_s=float(result.timing.total),
                modularity=float(modularity(graph, labels)),
                communities=int(np.unique(labels).size),
            )
            if truth is not None:
                cell["nmi"] = float(normalized_mutual_information(labels, truth))
                cell["ari"] = float(adjusted_rand_index(labels, truth))
            entries.append(cell)
    return entries
