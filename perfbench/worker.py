"""One iteration of a perfbench workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload verify-zn --config configs/zn-baseline.json \\
        --out DIR [--seed N] [--setup-only] [--trace]
    python3 perfbench/worker.py --cli-child SPANS.json -- <treetail arguments>

The first form is set-up followed by one run of the workload. Set-up is
what a fresh interpreter pays before any work: import treetail (and
treetail.cli for cli-pools) and parse the config. The worker records the
monotonic time at which set-up ended, so that the parent, which noted the
time it spawned the worker, can take set-up time as the difference. It
then runs the workload once at threads=1, measures its wall time, CPU time
and peak memory, checks its outputs, and writes DIR/result.json. Nothing
is printed; a failure is recorded in the result's ``errors``.

``--trace`` records spans around the treetail entry points while the
workload runs (see spans.py) and adds them to the result, then times one
generation of a 1M pool at threads=1 and threads=2.

The second form runs one treetail CLI command with spans recorded and
writes them to SPANS.json; the traced cli-pools iteration runs its
commands this way.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

from spans import CLI_IMPORT, CLI_PROCESS, Tracer, tracing

CLI_ENTRY = "from treetail.cli import main; main()"
CLI_TIMEOUT_S = 170
SWEEP_SIZE = 1_000_000
SWEEP_REPEATS = 5
TAIL_HEADER = "p,x,ccdf_num,ccdf_den,ratio,ci_low,ci_high"


def _usage() -> tuple[float, float]:
    """(user+sys CPU seconds, peak RSS in MB) of this process and its waited-for children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(me.ru_maxrss, kids.ru_maxrss) / 1024.0


def _threads_kwarg(fn) -> dict:
    # the benchmark measures the single-threaded pipeline; it keeps working
    # if a later version drops the threads parameter
    return {"threads": 1} if "threads" in inspect.signature(fn).parameters else {}


# ---------------------------------------------------------------------------
# verify workloads: load_config -> run_scenario -> write_report in-process
# ---------------------------------------------------------------------------

def run_verify(config, out: Path) -> None:
    from treetail import harness

    report = harness.run_scenario(config, **_threads_kwarg(harness.run_scenario))
    harness.write_report(report, out / "report")


def check_verify(out: Path) -> tuple[str, list[str]]:
    raw = (out / "report" / "report.json").read_bytes()
    doc = json.loads(raw)
    errors = []
    verdicts = doc.get("verdicts")
    if not isinstance(verdicts, dict) or not verdicts:
        errors.append("report.json has no verdicts")
    else:
        errors += [f"verdict {k} is {v!r}, not a bool" for k, v in verdicts.items()
                   if not isinstance(v, bool)]
    if not isinstance(doc.get("passed"), bool):
        errors.append("report.json 'passed' is not a bool")
    return hashlib.sha256(raw).hexdigest(), errors


# ---------------------------------------------------------------------------
# cli-pools: four treetail commands, each its own process
# ---------------------------------------------------------------------------

def cli_commands(config_path: str, seed: int) -> list[list[str]]:
    import treetail.cli

    params = {p.name for p in treetail.cli.cli.params}
    pinned = ["--seed", str(seed)] + (["--threads", "1"] if "threads" in params else [])
    return [
        pinned + ["simulate", config_path, "--out", "r.pool", "--kind", "r"],
        pinned + ["simulate", config_path, "--out", "rstar.pool", "--kind", "rstar"],
        ["ks", "r.pool", "rstar.pool"],
        ["--seed", str(seed), "tail", "--num", "r.pool", "--den", "rstar.pool", "--out", "tail"],
    ]


def run_cli(commands, out: Path, trace: bool) -> tuple[list[str], list[tuple[float, float]]]:
    """Run the commands in order in ``out``.

    Returns their standard outputs and the monotonic (spawn, exit) time of
    each process.
    """
    import treetail

    # the commands run in ``out``, so a relative PYTHONPATH would not reach src
    src = str(Path(treetail.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    outputs, lifetimes = [], []
    for i, args in enumerate(commands):
        if trace:
            prefix = [sys.executable, str(Path(__file__).resolve()), "--cli-child", f"spans-{i}.json", "--"]
        else:
            prefix = [sys.executable, "-c", CLI_ENTRY]
        spawned = time.monotonic()
        proc = subprocess.run(prefix + args, cwd=out, env=env, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        lifetimes.append((spawned, time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"treetail {' '.join(args)} exited {proc.returncode}: {proc.stderr[-2000:]}")
        outputs.append(proc.stdout)
    return outputs, lifetimes


def check_cli(config, out: Path, outputs: list[str]) -> tuple[str, list[str]]:
    from treetail.pools import load_pool

    errors = []
    digest = hashlib.sha256()
    for name in ("r.pool", "rstar.pool"):
        data = (out / name).read_bytes()
        digest.update(data)
        count = len(load_pool(out / name))
        if count != config.pool_size:
            errors.append(f"{name} reloads with {count} values, {config.pool_size} were written")
    ks_text = outputs[2]
    digest.update(ks_text.encode())
    ks = float(ks_text)
    if not (math.isfinite(ks) and 0.0 <= ks <= 1.0):
        errors.append(f"ks printed {ks!r}, outside [0, 1]")
    tail = (out / "tail.csv").read_bytes()
    digest.update(tail)
    header, *rows = tail.decode().splitlines()
    if header != TAIL_HEADER or not rows:
        errors.append("tail.csv has no header or no rows")
    for row in rows:
        values = [float(v) for v in row.split(",")]
        if len(values) != 7 or not all(math.isfinite(v) for v in values):
            errors.append(f"tail.csv row {row!r} is not 7 finite numbers")
    return digest.hexdigest(), errors


def process_spans(out: Path, lifetimes) -> list[dict]:
    """One CLI_PROCESS span per traced command, parent of that process's own spans.

    The process span runs from spawn to exit, so its self time is what the
    command pays outside treetail: interpreter start, argument parsing and
    teardown.
    """
    merged = []
    for i, (spawned, ended) in enumerate(lifetimes):
        root = len(merged)
        merged.append({"id": root, "name": CLI_PROCESS, "start": spawned, "end": ended,
                       "parent": None, "counts": {}})
        for doc in json.loads((out / f"spans-{i}.json").read_text()):
            doc["id"] += root + 1
            doc["parent"] = root if doc["parent"] is None else doc["parent"] + root + 1
            merged.append(doc)
    return merged


def cli_child(spans_path: str, cli_args: list[str]) -> int:
    start = time.monotonic()
    import treetail.cli

    tracer = Tracer()
    tracer.add_span(CLI_IMPORT, start, time.monotonic())
    code = 0
    try:
        with tracing(tracer):
            treetail.cli.cli.main(args=cli_args, prog_name="treetail")
    except SystemExit as exc:
        code = exc.code or 0
    finally:
        Path(spans_path).write_text(json.dumps([s.to_json() for s in tracer.spans]))
    return code


# ---------------------------------------------------------------------------
# threads sweep
# ---------------------------------------------------------------------------

def threads_sweep(config) -> dict:
    """Median ms of one generation at threads=1 and threads=2, same values required.

    The pool has SWEEP_SIZE members, or the config's pool size if smaller.
    """
    import numpy as np
    from treetail import simulate
    from treetail.streams import StreamTree

    if "threads" not in inspect.signature(simulate.evolve_pool_r).parameters:
        return {"skipped": "simulate.evolve_pool_r takes no threads parameter"}
    streams = StreamTree(config.seed)
    pool = simulate.init_pool(config.law, min(SWEEP_SIZE, config.pool_size), streams)
    times = {1: [], 2: []}
    reference = None
    for rep in range(SWEEP_REPEATS):
        for threads in ((1, 2) if rep % 2 == 0 else (2, 1)):
            start = time.perf_counter()
            values = simulate.evolve_pool_r(config.law, pool, streams, threads=threads).values
            times[threads].append(time.perf_counter() - start)
            if reference is None:
                reference = values
            elif not np.array_equal(values, reference):
                raise RuntimeError(f"threads={threads} changed the evolved values")
    return {"gen_ms_t1": 1e3 * statistics.median(times[1]),
            "gen_ms_t2": 1e3 * statistics.median(times[2])}


# ---------------------------------------------------------------------------

def run_iteration(args, result: dict) -> None:
    cli = args.workload == "cli-pools"
    import treetail
    if cli:
        import treetail.cli
    from treetail.harness import load_config

    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    result["ready"] = time.monotonic()
    result["treetail"] = str(Path(treetail.__file__).resolve())
    if args.setup_only:
        return

    out = Path(args.out)
    tracer = Tracer() if args.trace and not cli else None
    with tracing(tracer) if tracer else nullcontext():
        cpu0, _ = _usage()
        start = time.perf_counter()
        if cli:
            commands = cli_commands(str(Path(args.config).resolve()), config.seed)
            outputs, lifetimes = run_cli(commands, out, args.trace)
        else:
            run_verify(config, out)
        result["wall_s"] = time.perf_counter() - start
        cpu1, result["peak_rss_mb"] = _usage()
    result["cpu_s"] = cpu1 - cpu0
    if tracer:
        result["spans"] = [s.to_json() for s in tracer.spans]
    elif args.trace:
        result["spans"] = process_spans(out, lifetimes)

    digest, errors = check_cli(config, out, outputs) if cli else check_verify(out)
    result["digest"] = digest
    result["errors"] += errors
    if args.trace:
        result["sweep"] = threads_sweep(config)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--cli-child"]:
        if len(argv) < 3 or argv[2] != "--":
            sys.exit("usage: worker.py --cli-child SPANS.json -- <treetail arguments>")
        return cli_child(argv[1], argv[3:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    result = {"errors": []}
    try:
        run_iteration(args, result)
    except Exception:  # the parent counts the iteration as failed and shows why
        result["errors"].append(traceback.format_exc())
    Path(args.out, "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
