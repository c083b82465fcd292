"""Time the layers of one population-dynamics generation, per shipped tree config.

    python3 tools/gen_layers.py [--src DIR] [--size 1000000] [--repeats 9] [--out FILE]

For each config in ``configs/`` that runs a tree scenario (no ``x_dist``),
the probe evolves a generation-0 pool of ``--size`` samples one R
generation through ``simulate.evolve_pool_r``, on the pipeline's own
streams, and splits the node steps (``branching.node_sums``) of its blocks
into three layers:

* root draw: ``law.draw_roots``, the (Q, N, C) vectors of a block;
* parent gather: the terms that ``simulate._evolve`` passes, each weight
  times a parent drawn from the pool;
* segment sum: the rest of the node step, the per-node sums of the child
  terms and Q.

``generation`` is the same call untimed. Each figure is the median over
``--repeats`` generations, in ms. The output is one JSON object, printed
and, with ``--out``, written to a file; it holds the machine, the treetail
sources timed and, per config, the layers and the sha256 of the
generation's values, which two versions of the node step must share. The
probe stops if the timed generation differs from the untimed one.

``--src`` selects the treetail sources to time (default: this tree's
``src``), so the same probe times two checkouts, such as a parent commit
and a change:

    python3 tools/gen_layers.py --src ../parent/src --out before.json
    python3 tools/gen_layers.py --out after.json

The probe is not part of the test suite.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _layered_generation(simulate, law, pool, streams):
    """``evolve_pool_r`` with its node steps split into layers: (pool, seconds per layer).

    ``simulate`` calls ``node_sums`` through its module global, which is
    swapped for a wrapper for the call, so the layers time the sources' own
    root draw and gather.
    """
    spent = dict.fromkeys(("root_draw", "parent_gather", "node_step"), 0.0)
    node_sums = simulate.node_sums

    def timed(key, fn):
        def call(*args):
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                spent[key] += time.perf_counter() - start
        return call

    class TimedRoots:
        draw_roots = staticmethod(timed("root_draw", law.draw_roots))

    def timed_node_sums(_law, rng, out, terms=None, add_q=True):
        step = timed("node_step", node_sums)
        return step(TimedRoots, rng, out, terms and timed("parent_gather", terms), add_q)

    simulate.node_sums = timed_node_sums
    try:
        pool = simulate.evolve_pool_r(law, pool, streams)
    finally:
        simulate.node_sums = node_sums
    spent["segment_sum"] = spent.pop("node_step") - spent["root_draw"] - spent["parent_gather"]
    return pool, spent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="treetail sources to time")
    parser.add_argument("--size", type=int, default=1_000_000, help="samples per generation")
    parser.add_argument("--repeats", type=int, default=9, help="generations timed per config")
    parser.add_argument("--out", type=Path, help="also write the JSON object here")
    args = parser.parse_args(argv)
    if args.size < 1 or args.repeats < 1:
        parser.error("--size and --repeats must be positive")

    sys.path.insert(0, str(args.src.resolve()))
    from treetail import harness, simulate
    from treetail.streams import StreamTree

    result = {
        "src": str(args.src.resolve()),
        "size": args.size,
        "repeats": args.repeats,
        "unit": "ms, median over the repeats",
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__},
        "configs": {},
    }
    for path in sorted((ROOT / "configs").glob("*.json")):
        config = harness.load_config(path)
        if config.x_dist is not None:
            continue
        streams = StreamTree(config.seed)
        prev = simulate.init_pool(config.law, args.size, streams)
        layers, whole = [], []
        for _ in range(args.repeats):
            start = time.perf_counter()
            pool = simulate.evolve_pool_r(config.law, prev, streams)
            whole.append(time.perf_counter() - start)
            digest = hashlib.sha256(pool.values.tobytes()).hexdigest()
            del pool
            pool, seconds = _layered_generation(simulate, config.law, prev, streams)
            if hashlib.sha256(pool.values.tobytes()).hexdigest() != digest:
                raise SystemExit(f"{config.name}: the timed generation differs from evolve_pool_r")
            del pool
            layers.append(seconds)
        result["configs"][config.name] = {
            **{key: round(1e3 * statistics.median(s[key] for s in layers), 2)
               for key in ("root_draw", "parent_gather", "segment_sum")},
            "generation": round(1e3 * statistics.median(whole), 2),
            "values_sha256": digest,
        }
    text = json.dumps(result, indent=1)
    print(text)
    if args.out is not None:
        args.out.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
