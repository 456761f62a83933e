"""Regenerate ``pins.json``: what each checked result must be.

For every workload and seed it records ``[label digest, sim_s,
modularity]`` of the results a run at the default length reaches,
computed directly (untimed, untraced, and for ``serve_mix`` without the
server). A run compares each result whose key is pinned; a later change
that moves labels or simulated time on purpose regenerates the table::

    python3 perfbench/pin.py --seeds 0-9
"""

from __future__ import annotations

import argparse
import fcntl
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from common import PINS_PATH, detect, label_digest, nproc  # noqa: E402

import detect_rmat  # noqa: E402
import serve_mix  # noqa: E402
import stream_churn  # noqa: E402

#: How far into each workload the pins reach: detection passes, event
#: batches, and requests per serve client. A run that goes further, or on
#: another seed, checks the rest against direct runs of the same
#: detections (``detect_rmat``, ``serve_mix``) or its other oracles only
#: (``stream_churn``: the full-rebuild twin and traced-vs-untraced).
DEPTH = {"detect_rmat": 10, "stream_churn": 220, "serve_mix": 360}


def pin_detect(seed: int, cfg: dict, passes: int) -> dict:
    from repro.parallel.backend import shutdown_all
    from repro.partition.quality import modularity

    pins = {}
    for i in range(passes):
        graph = detect_rmat.make_graph(seed, i, cfg)
        for alg in detect_rmat.ALGORITHMS:
            result = detect(graph, alg, i, nproc())
            pins[detect_rmat.pin_key(i, alg)] = [
                label_digest(result.labels),
                float(result.timing.total),
                float(modularity(graph, result.partition)),
            ]
        shutdown_all()
    return pins


def pin_stream(seed: int, cfg: dict, batches: int) -> dict:
    from repro.partition.quality import modularity

    graph, churn = stream_churn.make_inputs(seed, cfg)
    pipe = stream_churn.Pipeline(graph)
    pins = {}
    for b, batch in enumerate(churn[:batches]):
        snap, _, result = pipe.step(batch)
        pins[stream_churn.pin_key(b)] = [
            label_digest(result.labels),
            float(result.timing.total),
            float(modularity(snap, result.partition)),
        ]
    return pins


def pin_serve(seed: int, cfg: dict, requests: int) -> dict:
    graphs = serve_mix.make_graphs(seed, cfg)
    keys = set()
    for seq in serve_mix.make_sequences(seed, cfg, nproc()):
        for req in seq[:requests]:
            if req[0] == "detect":
                keys.add(req[1:4])
            else:
                keys.update((req[1], alg, req[2]) for alg in serve_mix.ALGORITHMS)
    pins = {}
    for g, alg, s in sorted(keys):
        digest, sim_s, q, _ = serve_mix.reference(graphs[g], alg, s)
        pins[serve_mix.pin_key(g, alg, s)] = [digest, sim_s, q]
    return pins


PINNERS = {
    "detect_rmat": (pin_detect, detect_rmat.FULL),
    "stream_churn": (pin_stream, stream_churn.FULL),
    "serve_mix": (pin_serve, serve_mix.FULL),
}


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def save(name: str, seed: int, pins: dict) -> None:
    """Merge one seed's pins into the table (under a lock, so several
    pinning processes can share it)."""
    with open(PINS_PATH.with_suffix(".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        table = json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}
        table.setdefault(name, {})[str(seed)] = pins
        text = json.dumps(table, indent=1, sort_keys=True)
        # One pinned result per line.
        text = re.sub(r"\[\n\s+([^\]]*?)\n\s+\]", lambda m: "[" + " ".join(m[1].split()) + "]", text)
        PINS_PATH.write_text(text + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-9 or 1,4,7")
    parser.add_argument("--workloads", default=",".join(PINNERS))
    args = parser.parse_args(argv)
    for name in args.workloads.split(","):
        pinner, cfg = PINNERS[name]
        for seed in parse_seeds(args.seeds):
            save(name, seed, pinner(seed, cfg, DEPTH[name]))
            print(f"pinned {name} seed {seed}", flush=True)
    from repro.parallel.backend import shutdown_all

    shutdown_all()
    return 0


if __name__ == "__main__":
    sys.exit(main())
