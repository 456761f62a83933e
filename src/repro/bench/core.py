"""The one copy of what every wall-clock suite shares.

The suites — :mod:`~repro.bench.wallclock` (kernels, e2e, scale),
:mod:`~repro.bench.streambench`, :mod:`~repro.bench.servebench` and
:mod:`~repro.bench.quality` — keep only their workloads and presets, and
time, compare, build, validate and gate their ``repro-wallclock/v1``
documents through this module: the timer (:func:`timed`,
:func:`time_best`), the :class:`Summary` of samples, the interleaved A/B
runner (:func:`interleave`), the entry builder and host block, and the
declarative schema (:data:`ENTRY_RULES`) and floor (:data:`GATES`) tables.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from fnmatch import fnmatchcase
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

SCHEMA = "repro-wallclock/v1"

#: Document kinds, one per suite.
KINDS = ("kernels", "e2e", "scale", "serve", "quality", "stream")

#: Generator categories whose instances carry a planted ground truth —
#: their quality entries score NMI/ARI in addition to modularity.
TRUTH_CATEGORIES = ("planted", "lfr")


# ----------------------------------------------------------------------
# Timer, summary, A/B runner
# ----------------------------------------------------------------------
def timed(fn: Callable[..., Any], *args: Any) -> tuple[Any, float]:
    """``(fn(*args), wall seconds)`` of one call."""
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


class Summary(NamedTuple):
    """Wall-time samples (seconds) and their order statistics."""

    samples: tuple[float, ...]
    n: int
    best: float
    median: float
    iqr: float
    mean: float
    max: float

    @classmethod
    def of(cls, samples: Sequence[float]) -> "Summary":
        """Summarize a non-empty sequence of samples."""
        arr = np.asarray(samples, dtype=np.float64)
        q1, median, q3 = (float(q) for q in np.percentile(arr, (25, 50, 75)))
        return cls(
            tuple(arr.tolist()), arr.size, float(arr.min()), median, q3 - q1,
            float(arr.mean()), float(arr.max()),
        )


def latency_ms(summary: Summary) -> dict[str, float]:
    """An entry's ``p50_ms``/``max_ms``. With tens of samples a "p99" is
    the max or interpolated next to it, so the tail is named for what it
    is; the sample count is the entry's ``repeats`` (or ``batches``)."""
    return {
        "p50_ms": round(summary.median * 1e3, 3),
        "max_ms": round(summary.max * 1e3, 3),
    }


def time_best(fn: Callable[[], Any], repeats: int, warmup: int = 1) -> Summary:
    """Samples of ``max(1, repeats)`` timed calls of ``fn`` after
    ``warmup`` untimed ones; ``.best`` is the best-of."""
    for _ in range(warmup):
        fn()
    return Summary.of([timed(fn)[1] for _ in range(max(1, repeats))])


class Arm(NamedTuple):
    """One side of an :func:`interleave` run."""

    summary: Summary
    #: ``keep`` of every call's return value, warmups first.
    results: list
    #: Wall seconds of the warmup calls (a JIT arm's compile call).
    warmup_s: list


def interleave(
    arms: Mapping[str, Any],
    rounds: int,
    warmup: int = 0,
    keep: Callable[[Any], Any] = lambda result: result,
) -> dict[str, Arm]:
    """Interleaved A/B: each round calls every arm once, in ``arms`` order,
    so drifting host load biases neither side.

    An arm is a callable, timed whole, or a ``(prepare, run)`` pair of
    which only ``run(prepare())`` is timed. The first ``warmup`` rounds
    are not sampled. ``keep`` maps each return value (untimed) to what
    :attr:`Arm.results` holds, so large outputs need not stay alive.
    """
    runs = {name: ([], [], []) for name in arms}
    for r in range(warmup + max(1, rounds)):
        for name, arm in arms.items():
            samples, results, warm = runs[name]
            if isinstance(arm, tuple):
                result, seconds = timed(arm[1], arm[0]())
            else:
                result, seconds = timed(arm)
            results.append(keep(result))
            (warm if r < warmup else samples).append(seconds)
    return {name: Arm(Summary.of(s), res, w) for name, (s, res, w) in runs.items()}


# ----------------------------------------------------------------------
# Entries and documents
# ----------------------------------------------------------------------
def entry(
    name: str, graph: Any, size: str, repeats: int, wall_s: float, **extra: Any
) -> dict[str, Any]:
    """A benchmark record: the required keys, then the suite's fields."""
    return {
        "name": name, "graph": graph.name, "size": size, "n": int(graph.n),
        "m": int(graph.m), "repeats": int(repeats), "wall_s": float(wall_s),
        **extra,
    }


def host_info(workers: int | None = None) -> dict[str, Any]:
    """Host metadata, including the *resolved* execution backend (serial
    when ``workers <= 1`` or shared memory is unavailable) and
    ``cpu_count``, the denominator of any multicore speedup claim."""
    from repro.community import kernel_backends
    from repro.graph.sharding import shard_support
    from repro.parallel.backend import resolve_backend

    backend = resolve_backend(workers)
    return {
        "platform": platform.platform(), "python": platform.python_version(),
        "numpy": np.__version__, "backend": backend.kind,
        "workers": int(backend.workers), "cpu_count": int(os.cpu_count() or 1),
        "kernel_backends": kernel_backends(), "shards": shard_support(),
    }


def build_document(
    kind: str, preset: str, entries: list[dict[str, Any]], workers: int | None = None
) -> dict:
    """A ``repro-wallclock/v1`` document around a suite's entries."""
    return {
        "schema": SCHEMA, "kind": kind, "preset": preset,
        "host": host_info(workers), "benchmarks": entries,
    }


def merge_baseline(doc: dict, baseline: dict) -> dict:
    """Attach before/after numbers from a baseline run of the same suite.

    Entries are matched on (name, graph, size); every matched entry gains
    ``before_s`` (baseline), ``after_s`` (this run) and ``speedup``.

    A match whose instance changed shape (``n``/``m`` differ — e.g. a
    generator's RNG stream was deliberately re-drawn) is *not* comparable;
    it gains ``baseline_skipped`` instead of a bogus speedup.
    """
    index = {
        (e["name"], e["graph"], e["size"]): e for e in baseline.get("benchmarks", [])
    }
    for e in doc["benchmarks"]:
        base = index.get((e["name"], e["graph"], e["size"]))
        if base is None:
            continue
        if (base.get("n"), base.get("m")) != (e["n"], e["m"]):
            e["baseline_skipped"] = "instance changed (n/m differ from baseline)"
            continue
        e["before_s"] = float(base["wall_s"])
        e["after_s"] = float(e["wall_s"])
        if e["after_s"] > 0:
            e["speedup"] = round(e["before_s"] / e["after_s"], 3)
    return doc


def write_document(doc: dict, path: str) -> None:
    """Write a benchmark document as stable, human-diffable JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")


# ----------------------------------------------------------------------
# Schema and floor tables
# ----------------------------------------------------------------------
def _in(lo: float, hi: float = float("inf")) -> Callable[[Any], bool]:
    return lambda v: isinstance(v, (int, float)) and lo <= v <= hi


#: Field checks: ``(predicate, what a failing value must be)``.
_NUMBER = (_in(float("-inf")), "a number")
_NONNEG = (_in(0), "a non-negative number")
_UNIT = (_in(0, 1), "a number in [0, 1]")
_FLAG = (lambda v: isinstance(v, bool), "a boolean")
_TEXT = (lambda v: isinstance(v, str) and bool(v), "a non-empty string")
_COUNT = (lambda v: isinstance(v, int) and v >= 1, "a positive integer")
_GIVEN = (lambda v: v is not None, "given")
_STREAM, _QUALITY = ("stream",), ("quality",)


class Rule(NamedTuple):
    """Fields the entries named like ``names`` (an fnmatch pattern) carry
    in documents of ``kinds`` — with ``where=(field, values)``, only those
    whose ``field`` is one of ``values``. ``optional`` rules check only
    the fields an entry has."""

    names: str
    fields: dict[str, tuple[Callable[[Any], bool], str]]
    kinds: tuple[str, ...] = KINDS
    where: tuple[str, tuple] | None = None
    optional: bool = False

    def covers(self, kind: Any, e: dict) -> bool:
        """Whether entry ``e`` of a ``kind`` document falls under the rule."""
        return (
            kind in self.kinds
            and fnmatchcase(str(e.get("name", "")), self.names)
            and (self.where is None or e.get(self.where[0]) in self.where[1])
        )


ENTRY_RULES: tuple[Rule, ...] = (
    # every entry: the keys entry() writes
    Rule(
        "*",
        {**dict.fromkeys(("name", "graph", "size", "n", "m", "repeats"), _GIVEN),
         "wall_s": _NONNEG},
    ),
    # serve_stats' "backend" is the server's pool block, not a kernel backend
    Rule(
        "*",
        {"backend": (lambda v: v in ("numpy", "numba"), "'numpy' or 'numba'")},
        ("kernels", "e2e", "scale", "quality", "stream"),
        optional=True,
    ),
    Rule(
        "*_backend_ab",
        {"identical": _FLAG, "numpy_wall_s": _NONNEG, "compile_s": _NONNEG},
    ),
    Rule("plp_sharded_ab", {"labels_match": _FLAG, "shards": _COUNT}),
    Rule(
        "serve_[!s]*",  # every scenario; not serve_stats
        {"p50_ms": _NONNEG, "max_ms": _NONNEG, "cache_speedup": _NONNEG},
        ("serve",),
    ),
    Rule("*_stream", {"events_per_s": _NONNEG}, _STREAM),
    Rule("*", {"events_per_s": _NONNEG}, _STREAM, optional=True),
    Rule("dpl[pm]_stream", {"p50_ms": _NONNEG, "max_ms": _NONNEG}, _STREAM),
    Rule(
        "freeze_delta_ab",
        {"identical": _FLAG, "full_wall_s": _NONNEG, "freeze_speedup": _NONNEG,
         "dirty_fraction": _UNIT},
        _STREAM,
    ),
    Rule(
        "dplm_incremental_ab",
        {"full_wall_s": _NONNEG, "update_speedup": _NONNEG, "nmi_min": _UNIT,
         "nmi_mean": _UNIT},
        _STREAM,
    ),
    Rule(
        "*",
        {"algorithm": _TEXT, "category": _TEXT, "sim_time_s": _NUMBER,
         "modularity": _NUMBER, "communities": _COUNT},
        _QUALITY,
    ),
    Rule(
        "*",
        {"nmi": _UNIT, "ari": (_in(-1, 1), "a number in [-1, 1]")},
        _QUALITY,
        ("category", TRUTH_CATEGORIES),
    ),
)


def validate_document(doc: dict) -> list[str]:
    """Return a list of schema problems (empty = valid)."""
    problems: list[str] = []
    if doc.get("schema") != SCHEMA:
        problems.append(f"schema must be {SCHEMA!r}, got {doc.get('schema')!r}")
    kind = doc.get("kind")
    if kind not in KINDS:
        problems.append(f"kind must be one of {', '.join(KINDS)}, got {kind!r}")
    if not isinstance(doc.get("host"), dict):
        problems.append("host info missing")
    benches = doc.get("benchmarks")
    if not isinstance(benches, list) or not benches:
        return problems + ["benchmarks must be a non-empty list"]
    for i, e in enumerate(benches):
        problems += [
            f"benchmarks[{i}].{field} must be {need}"
            for rule in ENTRY_RULES
            if rule.covers(kind, e)
            for field, (ok, need) in rule.fields.items()
            if not (rule.optional and e.get(field) is None) and not ok(e.get(field))
        ]
    if kind == "quality":
        from repro.bench.pareto import validate_pareto_block

        problems += validate_pareto_block(doc.get("pareto"))
    return problems


class Gate(NamedTuple):
    """A pass/fail check of a suite's CLI, armed by the ``flag`` option
    (always, when ``None``). It reads ``field`` of every ``kind`` entry
    named like ``name`` (and matching ``where``): the field must reach
    the flag's value when that is a number, stay strictly under the
    entry's ``below`` field when one is named, or else be true. A missing
    entry or field fails the gate."""

    kind: str
    flag: str | None
    name: str
    field: str
    below: str | None = None
    where: tuple[str, tuple] | None = None


GATES: tuple[Gate, ...] = (
    Gate("scale", "min_gen_eps", "rmat_generate", "edges_per_s"),
    Gate("scale", "assert_sharded", "plp_sharded_ab", "labels_match"),
    Gate("scale", "assert_sharded", "plp_sharded_ab", "worker_peak_rss_mb",
         below="mono_worker_peak_rss_mb"),
    Gate("quality", "min_nmi", "*_quality", "nmi", where=("category", ("planted",))),
    Gate("stream", None, "freeze_delta_ab", "identical"),
    Gate("stream", "min_freeze_speedup", "freeze_delta_ab", "freeze_speedup"),
    Gate("stream", "min_events_per_s", "dplp_stream", "events_per_s"),
    Gate("stream", "min_nmi", "dplm_incremental_ab", "nmi_min"),
    Gate("serve", "min_cache_speedup", "serve_cold", "cache_speedup"),
)


def check_gates(
    kind: str, entries: list[dict[str, Any]], options: Mapping[str, Any]
) -> list[tuple[bool, str]]:
    """``(passed, message)`` for every armed gate of ``kind``."""
    out: list[tuple[bool, str]] = []
    for gate in GATES:
        floor = True if gate.flag is None else options.get(gate.flag)
        if gate.kind != kind or floor is None or floor is False:
            continue
        rule = Rule(gate.name, {}, (kind,), gate.where)
        hits = [e for e in entries if rule.covers(kind, e)]
        if not hits:
            out.append((False, f"no {gate.name} entry for the {gate.field} gate"))
        for e in hits:
            value = e.get(gate.field)
            if gate.below is not None:
                bound = e.get(gate.below)
                ok = value is not None and bound is not None and value < bound
                verdict = f"{'<' if ok else 'not below'} {gate.below} {bound}"
            elif floor is True:
                ok, verdict = value is True, ""
            else:
                ok = value is not None and value >= floor
                verdict = f"{'>=' if ok else 'below floor'} {floor:g}"
            message = f"{e['name']} on {e['graph']}: {gate.field} {value} {verdict}"
            out.append((ok, message.rstrip()))
    return out


def add_floor_options(parser: Any, kind: str) -> None:
    """Declare the ``--min-*`` options of ``kind``'s floors in :data:`GATES`."""
    for gate in GATES:
        if gate.kind == kind and (gate.flag or "").startswith("min_"):
            parser.add_argument(
                "--" + gate.flag.replace("_", "-"), type=float, default=None,
                help=f"fail (exit 1) if {gate.field} of {gate.name} falls below",
            )


def report_gates(
    kind: str, entries: list[dict[str, Any]], options: Mapping[str, Any]
) -> int:
    """Print every armed gate's verdict; the exit code (1 = a gate failed)."""
    results = check_gates(kind, entries, options)
    for ok, message in results:
        print(f"{'ok' if ok else 'FAIL'}: {message}")
    return 0 if all(ok for ok, _ in results) else 1


def publish(
    kind: str, entries: list[dict[str, Any]], options: Mapping[str, Any]
) -> int:
    """The tail of every suite's CLI; returns its exit code.

    Builds the document (plus the quality Pareto block and the
    ``--baseline`` numbers), refuses to write one that fails
    :func:`validate_document`, writes ``--out``, prints it and applies
    the armed :data:`GATES`.
    """
    from repro.bench.pareto import format_pareto, quality_pareto_report

    doc = build_document(kind, options["preset"], entries, options.get("workers"))
    if kind == "quality":
        doc["pareto"] = quality_pareto_report(entries)
    if options.get("baseline"):
        with open(options["baseline"], encoding="utf-8") as fh:
            doc = merge_baseline(doc, json.load(fh))
    problems = validate_document(doc)
    for problem in problems:
        print(f"schema problem: {problem}", file=sys.stderr)
    if problems:
        return 1
    write_document(doc, options["out"])
    print(format_rows(doc["benchmarks"]))
    if kind == "quality":
        print(format_pareto(doc["pareto"]))
    print(f"wrote {options['out']}")
    return report_gates(kind, entries, options)


#: ``(field, suffix)``: a human-readable row gains ``suffix`` when its
#: entry has ``field``.
ROW_FORMATS: tuple[tuple[str, str], ...] = (
    ("speedup", "before={before_s:.6f}s  speedup={speedup:.2f}x"),
    ("workers_speedup", "serial={serial_wall_s:.6f}s  x{workers_speedup:.2f}"),
    ("backend_speedup", "numpy={numpy_wall_s:.6f}s  x{backend_speedup:.2f} numba"),
    ("compile_s", "compile={compile_s:.3f}s  identical={identical}"),
    ("edges_per_s", "{edges_per_s:.0f} edges/s"),
    ("events_per_s", "{events_per_s:.0f} events/s"),
    ("p50_ms", "p50={p50_ms:.3f}ms  max={max_ms:.3f}ms"),
    ("cache_speedup", "cache x{cache_speedup}"),
    ("freeze_speedup", "full={full_wall_s:.6f}s  delta x{freeze_speedup:.1f}"),
    ("dirty_fraction", "dirty={dirty_fraction:.4f}  identical={identical}"),
    ("update_speedup", "full={full_wall_s:.3f}s  x{update_speedup:.2f}"),
    ("nmi_min", "nmi_min={nmi_min:.4f}"),
    ("gen_speedup", "loop={loop_wall_s:.3f}s  gen x{gen_speedup:.0f}"),
    ("peak_rss_mb", "peak={peak_rss_mb:.0f}MiB"),
    ("modularity", "sim={sim_time_s:.4f}s  mod={modularity:.3f}"),
    ("nmi", "nmi={nmi:.3f}  ari={ari:.3f}"),
    ("shards", "k={shards}  mono={mono_wall_s:.3f}s  labels_match={labels_match}"),
    ("worker_peak_rss_mb", "worker={worker_peak_rss_mb}MiB"),
    ("mono_worker_peak_rss_mb", "mono_worker={mono_worker_peak_rss_mb}MiB"),
)


def format_rows(entries: Iterable[dict[str, Any]]) -> str:
    """One human-readable line per entry."""
    return "\n".join(
        f"{e['name']:>20s}  {e['graph']:<24s} {e['size']:>5s}  {e['wall_s']:.6f}s"
        + "".join(
            "  " + suffix.format_map(e)
            for field, suffix in ROW_FORMATS
            if e.get(field) is not None
        )
        for e in entries
    )
