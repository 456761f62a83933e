"""Tests for the event-driven simulated executor."""

import itertools

import numpy as np
import pytest

from repro.parallel.machine import Machine
from repro.parallel.runtime import ParallelRuntime
from repro.parallel.tracing import Tracer

FAST_MACHINE = Machine(dispatch_overhead_s=0.0, barrier_overhead_s=0.0)


class TestTimeAccounting:
    def test_charge_sequential(self):
        rt = ParallelRuntime(threads=1)
        rt.charge(1e6, parallel=False)
        assert rt.elapsed == pytest.approx(1e6 / rt.machine.thread_rate(1))

    def test_charge_parallel_faster(self):
        seq = ParallelRuntime(threads=1)
        par = ParallelRuntime(threads=16)
        seq.charge(1e7, parallel=True)
        par.charge(1e7, parallel=True)
        assert par.elapsed < seq.elapsed

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            ParallelRuntime().charge(-1.0)

    def test_reset(self):
        rt = ParallelRuntime()
        rt.charge(100.0)
        rt.reset()
        assert rt.elapsed == 0.0
        assert rt.sections == {}

    def test_sections_accumulate(self):
        rt = ParallelRuntime()
        with rt.section("a"):
            rt.charge(1e6)
        with rt.section("a"):
            rt.charge(1e6)
        with rt.section("b"):
            rt.charge(2e6)
        assert rt.sections["a"] == pytest.approx(2 * rt.sections["b"] / 2, rel=0.2)
        assert rt.elapsed == pytest.approx(sum(rt.sections.values()))


class TestParallelFor:
    def test_kernel_sees_every_item_once(self):
        rt = ParallelRuntime(FAST_MACHINE, threads=4)
        seen = []
        rt.parallel_for(np.arange(100), lambda chunk: seen.extend(chunk.tolist()))
        assert sorted(seen) == list(range(100))

    def test_commit_receives_every_update(self):
        rt = ParallelRuntime(FAST_MACHINE, threads=4)
        committed = []
        rt.parallel_for(
            np.arange(50),
            kernel=lambda chunk: chunk.sum(),
            commit=committed.append,
        )
        assert sum(committed) == sum(range(50))

    def test_single_thread_is_sequential(self):
        """With one thread every commit lands before the next block runs."""
        rt = ParallelRuntime(FAST_MACHINE, threads=1)
        log = []
        state = {"committed": 0}

        def kernel(chunk):
            log.append(("k", state["committed"]))
            return 1

        def commit(update):
            state["committed"] += update

        rt.parallel_for(np.arange(64), kernel, commit, grain=8)
        # Block i must observe exactly i prior commits.
        assert [c for _, c in log] == list(range(8))

    def test_multi_thread_staleness(self):
        """With many threads, early blocks run before earlier commits land."""
        rt = ParallelRuntime(FAST_MACHINE, threads=8)
        observations = []
        state = {"committed": 0}

        def kernel(chunk):
            observations.append(state["committed"])
            return 1

        rt.parallel_for(
            np.arange(64),
            kernel,
            lambda u: state.__setitem__("committed", state["committed"] + u),
            grain=8,
        )
        # Staleness: not every block saw all previous commits.
        assert observations != sorted(set(observations))or max(observations) < 7

    def test_elapsed_grows_with_work(self):
        rt = ParallelRuntime(threads=4)
        t0 = rt.elapsed
        rt.parallel_for(np.arange(100), lambda c: None, costs=np.full(100, 50.0))
        t1 = rt.elapsed
        rt.parallel_for(np.arange(100), lambda c: None, costs=np.full(100, 5000.0))
        assert (rt.elapsed - t1) > (t1 - t0)

    def test_more_threads_faster(self):
        costs = np.full(1000, 100.0)
        times = []
        for threads in (1, 4, 16):
            rt = ParallelRuntime(threads=threads)
            rt.parallel_for(np.arange(1000), lambda c: None, costs=costs)
            times.append(rt.elapsed)
        assert times[0] > times[1] > times[2]

    def test_costs_alignment_checked(self):
        rt = ParallelRuntime()
        with pytest.raises(ValueError):
            rt.parallel_for(np.arange(10), lambda c: None, costs=np.ones(5))

    def test_empty_items(self):
        rt = ParallelRuntime(threads=4)
        stats = rt.parallel_for(np.empty(0, dtype=int), lambda c: None)
        assert stats.chunks == 0

    def test_stats_imbalance(self):
        rt = ParallelRuntime(FAST_MACHINE, threads=2)
        costs = np.ones(100)
        costs[:50] = 100.0
        stats = rt.parallel_for(
            np.arange(100), lambda c: None, costs=costs, schedule="static"
        )
        assert stats.imbalance > 1.5

    def test_guided_beats_static_on_skew(self):
        """The paper's load-balancing rationale for schedule(guided)."""
        costs = np.ones(4096)
        costs[-64:] = 500.0  # hub nodes last: static dumps them all on one
        # thread, guided spreads them over small tail chunks
        t = {}
        for kind in ("static", "guided"):
            rt = ParallelRuntime(FAST_MACHINE, threads=8)
            rt.parallel_for(np.arange(4096), lambda c: None, costs=costs, schedule=kind)
            t[kind] = rt.elapsed
        assert t["guided"] < t["static"]

    def test_deterministic(self):
        def run():
            rt = ParallelRuntime(threads=8)
            acc = []
            rt.parallel_for(
                np.arange(200), lambda c: c.sum(), acc.append, grain=16
            )
            return rt.elapsed, acc

        assert run() == run()


class TestScheduleKwargValidation:
    """Schedule kwargs the chosen schedule would silently ignore are errors."""

    def test_chunk_size_requires_dynamic(self):
        rt = ParallelRuntime(threads=4)
        for kind in ("static", "guided"):
            with pytest.raises(ValueError, match="chunk_size"):
                rt.parallel_for(
                    np.arange(10), lambda c: None, schedule=kind, chunk_size=4
                )

    def test_min_chunk_requires_guided(self):
        rt = ParallelRuntime(threads=4)
        for kind in ("static", "dynamic"):
            with pytest.raises(ValueError, match="min_chunk"):
                rt.parallel_for(
                    np.arange(10), lambda c: None, schedule=kind, min_chunk=4
                )

    def test_matching_kwargs_accepted(self):
        rt = ParallelRuntime(threads=4)
        rt.parallel_for(np.arange(10), lambda c: None, schedule="dynamic", chunk_size=4)
        rt.parallel_for(np.arange(10), lambda c: None, schedule="guided", min_chunk=4)


class TestExecutorInvariants:
    def test_commits_happen_in_nondecreasing_sim_time(self):
        """Updates must land in simulated completion order, regardless of
        the order blocks were executed in."""
        tracer = Tracer()
        rt = ParallelRuntime(threads=8, tracer=tracer)
        counter = itertools.count()
        committed = []
        costs = np.tile([1.0, 40.0, 3.0, 9.0], 64)
        rt.parallel_for(
            np.arange(256),
            lambda chunk: next(counter),
            committed.append,
            costs=costs,
            grain=8,
        )
        # Kernel call i produced trace event i; replay the commit order.
        assert sorted(committed) == list(range(len(tracer.events)))
        ends = [tracer.events[i].end for i in committed]
        assert all(a <= b for a, b in zip(ends, ends[1:]))

    def test_busy_and_overhead_reconcile_with_elapsed(self):
        """A thread's clock is exactly busy + dispatch (threads never wait
        mid-loop), so elapsed == max over threads + barrier."""
        rt = ParallelRuntime(threads=8)
        costs = np.tile([1.0, 25.0, 5.0, 80.0], 128)
        stats = rt.parallel_for(
            np.arange(512), lambda c: None, costs=costs, grain=16
        )
        clocks = [b + d for b, d in zip(stats.busy, stats.dispatch)]
        assert stats.elapsed == pytest.approx(
            max(clocks) + stats.barrier, abs=1e-15
        )
        assert stats.overhead == pytest.approx(
            sum(stats.dispatch) + stats.barrier
        )
        assert 0.0 <= stats.overhead_share <= 1.0

    def test_single_thread_zero_stale_lag(self):
        rt = ParallelRuntime(threads=1)
        stats = rt.parallel_for(np.arange(64), lambda c: None, grain=4)
        assert stats.stale_lag_sum == 0.0
        assert stats.stale_blocks == 0

    def test_multi_thread_positive_stale_lag(self):
        rt = ParallelRuntime(FAST_MACHINE, threads=8)
        stats = rt.parallel_for(np.arange(64), lambda c: None, grain=4)
        assert stats.stale_lag_max > 0.0
        assert stats.stale_blocks > 0


class TestReportSince:
    def test_report_contains_loops_and_tree(self):
        rt = ParallelRuntime(threads=4)
        snap = rt.snapshot()
        with rt.section("work"):
            rt.parallel_for(np.arange(32), lambda c: None, loop="my.loop")
        report = rt.report_since(snap)
        assert report.total == pytest.approx(rt.elapsed)
        assert set(report.loops) == {"my.loop"}
        assert report.tree_total() == pytest.approx(report.total, abs=1e-9)

    def test_report_excludes_prior_history(self):
        rt = ParallelRuntime(threads=4)
        with rt.section("before"):
            rt.parallel_for(np.arange(32), lambda c: None, loop="before.loop")
        snap = rt.snapshot()
        with rt.section("after"):
            rt.parallel_for(np.arange(32), lambda c: None, loop="after.loop")
        report = rt.report_since(snap)
        assert set(report.loops) == {"after.loop"}
        assert "before" not in report.sections


class TestNestedParallelism:
    def test_split_divides_threads(self):
        rt = ParallelRuntime(threads=32)
        subs = rt.split(4)
        assert len(subs) == 4
        assert all(s.threads == 8 for s in subs)

    def test_split_minimum_one_thread(self):
        rt = ParallelRuntime(threads=2)
        subs = rt.split(8)
        assert all(s.threads == 1 for s in subs)

    def test_join_max_takes_slowest(self):
        rt = ParallelRuntime(threads=32)
        subs = rt.split(4)
        for i, sub in enumerate(subs):
            sub.charge(1e6 * (i + 1))
        rt.join_max(subs)
        assert rt.elapsed == pytest.approx(max(s.elapsed for s in subs))

    def test_join_max_waves_when_oversubscribed(self):
        """More sub-runtimes than thread groups -> serialized waves."""
        rt = ParallelRuntime(threads=4)
        subs = [ParallelRuntime(rt.machine, 2) for _ in range(4)]
        for sub in subs:
            sub.charge(1e6)
        rt.join_max(subs)  # 2 groups of 2 threads -> 2 waves
        assert rt.elapsed == pytest.approx(2 * subs[0].elapsed)

    def test_split_validates(self):
        with pytest.raises(ValueError):
            ParallelRuntime().split(0)

    def test_join_merges_sub_sections_namespaced(self):
        rt = ParallelRuntime(threads=8)
        subs = rt.split(2, prefix="base")
        for sub in subs:
            with sub.section("work"):
                sub.charge(1e6)
        rt.join_max(subs, prefix="base")
        assert "base/work" in rt.sections
        # The merged sections account for exactly the joined time.
        assert rt.sections["base/work"] == pytest.approx(rt.elapsed)

    def test_join_scales_sections_to_wave_model(self):
        """Oversubscribed ensembles run in waves; merged sub sections are
        scaled so the breakdown still sums to the time actually charged."""
        rt = ParallelRuntime(threads=4)
        subs = [ParallelRuntime(rt.machine, 2) for _ in range(4)]
        for sub in subs:
            with sub.section("work"):
                sub.charge(1e6)
        dt = rt.join_max(subs, prefix="base")
        assert rt.sections["base/work"] == pytest.approx(dt)
        tree = rt.section_tree()
        from repro.parallel.tracing import tree_leaf_sum

        assert tree_leaf_sum(tree) == pytest.approx(rt.elapsed, abs=1e-12)

    def test_join_adopts_sub_loop_records(self):
        rt = ParallelRuntime(threads=8)
        subs = rt.split(2, prefix="base")
        for sub in subs:
            sub.parallel_for(np.arange(16), lambda c: None, loop="sub.loop")
        rt.join_max(subs, prefix="base")
        assert [r.loop for r in rt.loop_records] == ["sub.loop", "sub.loop"]
        assert all(not s.loop_records for s in subs)


class VersionedLoop:
    """A synthetic loop over versioned shared state.

    Each block logs the state version its kernel reads; a commit bumps
    the version unless its update is quiet (``update[1]`` false) or
    ``None``. Which blocks are noisy or silent is a function of the
    block's first item only, so it does not depend on how blocks are
    grouped into kernel calls.
    """

    def __init__(self):
        self.version = 0
        self.reads: dict[int, int] = {}
        self.events: list[tuple[str, int]] = []
        self.calls: list[list[int]] = []

    def block(self, chunk):
        b = int(chunk[0])
        self.reads[b] = self.version
        self.events.append(("k", b))
        if b % 5 == 1:
            return None
        return b, b % 3 == 0

    def kernel(self, chunk):
        self.calls.append([int(chunk[0])])
        return self.block(chunk)

    def batched(self, chunks):
        self.calls.append([int(c[0]) for c in chunks])
        return [self.block(c) for c in chunks]

    def commit(self, update):
        b, noisy = update
        self.events.append(("c", b))
        if noisy:
            self.version += 1

    @staticmethod
    def quiet(update):
        return not update[1]


def _run_versioned(batched, schedule, threads, permutation):
    rt = ParallelRuntime(
        threads=threads, racecheck=False, chunk_permutation=permutation,
        tracer=Tracer(),
    )
    loop = VersionedLoop()
    rng = np.random.default_rng(threads)
    kwargs = {"quiet": VersionedLoop.quiet} if batched else {}
    stats = rt.parallel_for(
        np.arange(700),
        loop.batched if batched else loop.kernel,
        loop.commit,
        costs=rng.integers(1, 40, 700).astype(np.float64),
        schedule=schedule,
        grain=7,
        **kwargs,
    )
    return loop, stats, rt.tracer.events


class TestReadBatching:
    """``parallel_for(quiet=...)`` calls the kernel once per run of blocks
    that read identical state, and changes nothing else."""

    CASES = list(
        itertools.product(("static", "dynamic", "guided"), (1, 4, 32), (None, 3))
    )

    @pytest.mark.parametrize("schedule,threads,permutation", CASES)
    def test_reads_commits_and_stats_identical(self, schedule, threads, permutation):
        ref, ref_stats, _ = _run_versioned(False, schedule, threads, permutation)
        got, stats, _ = _run_versioned(True, schedule, threads, permutation)
        assert got.reads == ref.reads
        commits = [e for e in ref.events if e[0] == "c"]
        assert [e for e in got.events if e[0] == "c"] == commits
        assert stats == ref_stats  # busy, dispatch, blocks, stale lag, ...

    @pytest.mark.parametrize("schedule,threads,permutation", CASES)
    def test_no_call_crosses_a_visible_commit(self, schedule, threads, permutation):
        ref, _, _ = _run_versioned(False, schedule, threads, permutation)
        got, _, _ = _run_versioned(True, schedule, threads, permutation)
        noisy = {b for b, v in ref.reads.items() if b % 5 != 1 and b % 3 == 0}
        where = {e: i for i, e in enumerate(ref.events)}
        for call in got.calls:
            # Commits landing between the call's first and last block in
            # the per-block order: none may be noisy or from the call.
            between = ref.events[where[("k", call[0])] : where[("k", call[-1])]]
            landed = {b for kind, b in between if kind == "c"}
            assert not landed & noisy
            assert not landed & set(call)
        if threads == 1:
            assert all(len(call) == 1 for call in got.calls)
        else:
            assert any(len(call) > 1 for call in got.calls)
        assert sorted(b for call in got.calls for b in call) == sorted(ref.reads)

    @pytest.mark.parametrize("threads", (1, 4, 32))
    def test_stale_lag_is_the_max_over_pending_writes(self, threads):
        # Independent of the runtime's running max: a block's lag is the
        # latest end among earlier-started blocks still in flight.
        _, stats, events = _run_versioned(True, "guided", threads, None)
        lags = []
        for j, ev in enumerate(events):
            ends = [e.end for e in events[:j] if e.end > ev.start]
            lag = max(ends) - ev.start if ends else 0.0
            assert ev.stale_lag == lag
            if ends:
                lags.append(lag)
        assert stats.stale_blocks == len(lags)
        assert stats.stale_lag_max == max(lags, default=0.0)
        assert stats.stale_lag_sum == sum(lags)

    def test_racecheck_runs_one_block_per_call(self):
        rt = ParallelRuntime(threads=8, racecheck=True)
        loop = VersionedLoop()
        rt.parallel_for(
            np.arange(300), loop.batched, loop.commit, grain=5,
            quiet=VersionedLoop.quiet,
        )
        assert loop.calls and all(len(call) == 1 for call in loop.calls)

    def test_update_count_is_checked(self):
        rt = ParallelRuntime(threads=4, racecheck=False)
        with pytest.raises(ValueError, match="updates for"):
            rt.parallel_for(
                np.arange(100), lambda chunks: [], lambda u: None, grain=5,
                quiet=lambda u: True,
            )
