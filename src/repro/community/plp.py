"""PLP — Parallel Label Propagation (paper §III-A, Algorithm 1).

Every node starts with a unique label; in each iteration active nodes adopt
the *dominant* label in their neighborhood (the label maximizing the summed
incident edge weight), with ties kept at the current label to guarantee
convergence. Nodes whose label is already dominant become inactive and are
reactivated when a neighbor changes. Iteration stops when the number of
updated nodes falls below the threshold ``theta = n * 1e-5`` (the paper's
remedy for long tails of iterations updating only a handful of high-degree
nodes).

Parallelization follows the paper: the active-node loop is a
``schedule(guided)`` parallel for over a shared label array. Chunks of
nodes evaluated concurrently see each other's labels only after the
corresponding chunk commits (the runtime's stale-read model), which
reproduces the benign races / asynchronous updating of the C++ code.
Node-order randomization is optional and off by default (§III-A b:
"explicit randomization has no significant effect on quality ... while it
slows down the algorithm").
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.community._kernels import (
    _hash_jitter,  # noqa: F401  (re-exported for repro.community.plp users)
    compiled_plp_vote,
    group_from_gather,
    kernel_module,
    neighborhood_cache,
    plp_vote,
)
from repro.community.backends import (
    resolve_kernel_backend,
    validate_kernel_backend,
)
from repro.community.base import CommunityDetector
from repro.graph.csr import Graph
from repro.parallel.runtime import ParallelRuntime

__all__ = ["PLP"]


def _moved_nothing(update) -> bool:
    return update[0].size == 0


class PLP(CommunityDetector):
    """Parallel label propagation.

    Parameters
    ----------
    threads:
        Simulated thread count.
    theta_factor:
        Update threshold as a fraction of ``n``; iteration stops once an
        iteration updates fewer than ``n * theta_factor`` labels
        (paper default ``1e-5``).
    max_iterations:
        Hard iteration cap (safety net; the paper's instances converge in
        tens of iterations).
    randomize_order:
        Explicitly shuffle the active-node order each iteration (paper
        keeps this off and relies on scheduling-induced randomness).
    schedule:
        Loop schedule; the paper uses ``guided``.
    seed:
        Seed for the initial tie-breaking permutation and optional
        order randomization.
    perturbation:
        Initial-activity perturbation for ensemble-diversity studies
        (paper §V-D): ``None`` (default), ``"deactivate-seeds"``
        (a random fraction of nodes starts inactive) or
        ``"activate-seeds"`` (only a random fraction starts active).
    perturbation_fraction:
        Fraction of nodes in the random seed set (default 0.05).
    kernel_backend:
        Who executes the hot loops: ``"numpy"`` (vectorized, default),
        ``"numba"`` (compiled, requires the optional dependency) or
        ``"auto"``; ``None`` consults ``REPRO_KERNEL_BACKEND``. Both
        backends are byte-identical — see
        :mod:`repro.community.backends`.
    """

    name = "PLP"

    def __init__(
        self,
        threads: int = 1,
        theta_factor: float = 1e-5,
        max_iterations: int = 128,
        randomize_order: bool = False,
        schedule: str = "guided",
        seed: int = 0,
        perturbation: str | None = None,
        perturbation_fraction: float = 0.05,
        kernel_backend: str | None = None,
    ) -> None:
        super().__init__(threads=threads)
        if kernel_backend is not None:
            validate_kernel_backend(kernel_backend)
        if theta_factor < 0:
            raise ValueError("theta_factor must be non-negative")
        if perturbation not in (None, "deactivate-seeds", "activate-seeds"):
            raise ValueError(f"unknown perturbation {perturbation!r}")
        if not 0.0 < perturbation_fraction <= 1.0:
            raise ValueError("perturbation_fraction must be in (0, 1]")
        self.theta_factor = theta_factor
        self.max_iterations = max_iterations
        self.randomize_order = randomize_order
        self.schedule = schedule
        self.seed = seed
        self.perturbation = perturbation
        self.perturbation_fraction = perturbation_fraction
        self.kernel_backend = kernel_backend

    # ------------------------------------------------------------------
    def _run(
        self, graph: Graph, runtime: ParallelRuntime
    ) -> tuple[np.ndarray, dict[str, Any]]:
        n = graph.n
        labels = np.arange(n, dtype=np.int64)
        degrees = graph.degrees()
        active = degrees > 0
        theta = n * self.theta_factor
        rng = np.random.default_rng(self.seed)

        if self.perturbation is not None and n:
            # §V-D perturbation study: bias the initial active set with a
            # random seed set to try to diversify ensemble base solutions.
            count = max(1, int(round(self.perturbation_fraction * n)))
            seeds = rng.choice(n, size=min(count, n), replace=False)
            if self.perturbation == "deactivate-seeds":
                active[seeds] = False
            else:  # activate-seeds
                only = np.zeros(n, dtype=bool)
                only[seeds] = True
                active &= only

        info = self._propagate(graph, labels, active, runtime, rng, "propagate")
        info["theta"] = theta
        return labels, info

    def _propagate(
        self,
        graph: Graph,
        labels: np.ndarray,
        active: np.ndarray,
        runtime: ParallelRuntime,
        rng: np.random.Generator,
        section: str,
    ) -> dict[str, Any]:
        """The PLP iteration loop over a given active set.

        Mutates ``labels`` and ``active`` in place; shared by the static
        algorithm (full active set) and the incremental
        :class:`~repro.community.dplp.DynamicPLP` (event-seeded set).
        """
        n = graph.n
        degrees = graph.degrees()
        theta = n * self.theta_factor
        cache = neighborhood_cache(graph)
        rc = runtime.racecheck
        # Resolve the backend per run: the detector stores only the policy
        # string, so instances stay picklable for EPP's process pool and
        # pool workers resolve against their own environment. Racecheck
        # wraps shared arrays in an ndarray-subclass view the compiled
        # kernels cannot consume; backends are byte-identical, so checking
        # the NumPy path validates the schedule for both.
        backend = resolve_kernel_backend(self.kernel_backend)
        knb = kernel_module(backend) if rc is None else None
        if rc is not None:
            # Shared-memory contract (docs/CORRECTNESS.md): label reads may
            # be stale (§III-A benign races); `active` takes idempotent
            # cross-block writes (deactivate/reactivate flags), where the
            # contract is convergence, not last-writer determinism.
            prefix = self.name.lower()
            labels = rc.track(labels, f"{prefix}.labels", stale_read_ok=True)
            active = rc.track(
                active, f"{prefix}.active", stale_read_ok=True, write_write_ok=True
            )
        iterations: list[dict[str, int]] = []
        # Mutable cells captured by the kernel/commit closures. ``plan``
        # holds the current iteration's pre-gathered neighborhoods
        # (SweepPlan): grain blocks slice flat arrays instead of
        # rebuilding repeat/cumsum index arithmetic per chunk.
        state: dict[str, Any] = {"updated": 0, "plan": None}
        base_salt = np.uint64(rng.integers(1, 2**63))
        # Per-iteration jitter salt, hoisted out of the kernel (it only
        # changes between iterations, not between blocks).
        state["salt"] = base_salt

        def updates(chunks, change, best, seg, nbrs):
            """Per block ``(moved, new labels, stable, woken)``: ``woken``
            are the moved nodes' neighbours, read off the rows the vote
            already gathered (``seg`` counts positions of the blocks
            concatenated)."""
            sel = change[seg]
            woken = nbrs[sel]
            if len(chunks) == 1:
                offs, cuts = [0, change.size], [0, woken.size]
            else:
                offs = np.cumsum([0] + [c.size for c in chunks])
                cuts = np.searchsorted(seg[sel], offs).tolist()
                offs = offs.tolist()
            out = []
            for b, chunk in enumerate(chunks):
                ch = change[offs[b] : offs[b + 1]]
                out.append(
                    (
                        chunk[ch],
                        best[offs[b] : offs[b + 1]][ch],
                        chunk[~ch],
                        woken[cuts[b] : cuts[b + 1]],
                    )
                )
            return out

        if knb is None:

            def kernel(chunks: list[np.ndarray]):
                nodes, seg, nbrs, ws = state["plan"].batch(chunks)
                # Labels are always node ids (< n), so the label-range
                # scan inside the group-by can be skipped.
                groups = group_from_gather(seg, labels[nbrs], ws, width=n)
                change, best = plp_vote(
                    groups, nodes, labels[nodes], state["salt"]
                )
                return updates(chunks, change, best, seg, nbrs)

        else:
            vote = compiled_plp_vote(knb, n, cache.weights.dtype)

            def kernel(chunks: list[np.ndarray]):
                # The compiled vote keeps one call per block.
                out = []
                for chunk in chunks:
                    bounds, lo, nbrs, ws = state["plan"].csr_block(chunk)
                    change, best = vote(
                        chunk, labels, bounds, lo, nbrs, ws, state["salt"]
                    )
                    seg, nbrs, _ = state["plan"].block(chunk)
                    out += updates([chunk], change, best, seg, nbrs)
                return out

        def commit(update) -> None:
            moved, new_labels, stable, woken = update
            # Nodes already carrying the dominant label go inactive first...
            active[stable] = False
            if moved.size:
                labels[moved] = new_labels
                state["updated"] += int(moved.size)
                # ...then the neighborhoods of changed nodes reactivate
                # (vectorized) — in this order, so a node that was stable
                # in this block but neighbors a move from the *same* block
                # stays active and revisits the changed neighborhood.
                # (The reverse order wrongly deactivated such nodes, which
                # could then never be revisited.) A stable node is still
                # deactivated for good by later-committing blocks only if
                # none of their moves touch its neighborhood.
                active[woken] = True

        with runtime.section(section):
            iteration = 0
            while iteration < self.max_iterations:
                items = np.flatnonzero(active & (degrees > 0))
                if items.size == 0:
                    break
                # Implicit order randomization: the C++ code's iteration
                # order varies run-to-run through nondeterministic thread
                # scheduling, which breaks label oscillation cycles. Our
                # simulated schedule is deterministic, so a free permutation
                # stands in for it (it models, not adds, machine behaviour).
                items = rng.permutation(items)
                state["plan"] = cache.plan(items)
                if self.randomize_order:
                    # *Explicit* randomization as in the original algorithm
                    # costs a real parallel shuffle pass (paper §III-A b).
                    runtime.charge(items.size * 2.0, parallel=True)
                state["updated"] = 0
                state["salt"] = base_salt + np.uint64(iteration * 1_000_003)
                # Per-node commits on small active sets (otherwise a whole
                # iteration is concurrently in flight and fully stale),
                # coarser blocks on large ones.
                grain = max(1, min(64, items.size // (runtime.threads * 8)))
                runtime.parallel_for(
                    items,
                    kernel,
                    commit,
                    costs=degrees[items] + 1.0,
                    schedule=self.schedule,
                    grain=grain,
                    # Label scans do almost no arithmetic per edge — the
                    # loop is dominated by memory traffic, which is what
                    # caps PLP's speedup near 8x on the paper's machine.
                    memory_bound=0.8,
                    loop=f"{self.name.lower()}.{section}",
                    # Kernels read labels only: ``active`` is read between
                    # iterations, so a commit that moved no node is quiet.
                    quiet=_moved_nothing,
                )
                iteration += 1
                iterations.append(
                    {"active": int(items.size), "updated": state["updated"]}
                )
                if state["updated"] <= theta:
                    break

        return {
            "iterations": len(iterations),
            "per_iteration": iterations,
            "kernel_backend": backend,
        }
