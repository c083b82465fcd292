"""perfbench: the treetail benchmark.

    python3 perfbench/run.py --workload verify-zn [--seed N] [--seconds 20] [--trace 0|1]

Run from the root of a treetail source tree. Each iteration of a workload
is one fresh worker interpreter (worker.py) at threads=1 on the checkout's
own ``src``; iterations repeat until ``--seconds`` have passed and at least
MIN_ITERATIONS have run.

With ``--trace 0`` the last line of standard output is a JSON object whose
``metrics`` are the end-to-end metrics of BENCHMARK.json, each the median
over the run's iterations: wall_s, cpu_s, setup_s, peak_rss_mb and ok_frac.
With ``--trace 1`` the run does fewer untraced iterations, then one traced
iteration plus a threads sweep, and ``metrics`` are the per-layer metrics.
The lines before it give quartiles, sample counts, the outputs' sha256 and
the machine. METRICS.md describes every metric and workload.

The run exits 2 without a result when the tree it runs in has no treetail
sources or configs.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from spans import Span, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ".perfbench_work"

# workload -> config; cli-pools drives the CLI on zn-baseline
WORKLOADS = {
    "verify-zn": "zn-baseline.json",
    "verify-q": "q-baseline.json",
    "verify-sum": "sum-appendix.json",
    "cli-pools": "zn-baseline.json",
}

# every run must end within 180 s; keep room for the slowest iteration
DEADLINE_S = 165.0
# an untraced run reports medians over at least this many iterations, and
# over at least MIN_SETUP_SAMPLES fresh interpreters for setup_s
MIN_ITERATIONS = 2
MIN_SETUP_SAMPLES = 5


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), as statistics.quantiles gives them; one value repeats."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def machine_facts() -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "cpu_model": "unknown",
        "python": platform.python_version(),
        "loadavg_at_start": list(os.getloadavg()),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
    }
    for package in ("numpy", "scipy", "click"):
        try:
            facts[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            facts[package] = "missing"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                facts[f"l{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return facts


def missing_inputs(root: Path) -> str | None:
    if not (root / "src" / "treetail" / "__init__.py").is_file():
        return f"no treetail sources under {root / 'src'}"
    for name in sorted(set(WORKLOADS.values())):
        if not (root / "configs" / name).is_file():
            return f"missing config configs/{name}"
    if not (root / "BENCHMARK.json").is_file():
        return "missing BENCHMARK.json"
    return None


class Runner:
    """Spawns worker interpreters for one workload and collects their results."""

    def __init__(self, root: Path, work: Path, workload: str, config: Path, seed: int | None):
        self.root = root
        self.work = work
        self.workload = workload
        self.config = config
        self.seed = seed
        self.count = 0
        self.deadline = time.monotonic() + DEADLINE_S
        self.src = str(root / "src")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (self.src, os.environ.get("PYTHONPATH")) if p))

    def time_left(self) -> float:
        return self.deadline - time.monotonic()

    def spawn(self, *flags: str) -> dict:
        """Run one worker; return its result with ``setup_s`` and ``errors`` filled in."""
        self.count += 1
        out = self.work / f"iter-{self.count}"
        out.mkdir(parents=True)
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", self.workload,
               "--config", str(self.config), "--out", str(out), *flags]
        if self.seed is not None:
            cmd += ["--seed", str(self.seed)]
        with open(out / "worker.log", "wb") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT, start_new_session=True)
            try:
                code = proc.wait(timeout=max(1.0, self.time_left()))
            except subprocess.TimeoutExpired:
                code = "timeout"
            finally:
                # the worker's CLI children share its process group
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
        try:
            result = json.loads((out / "result.json").read_text())
        except (OSError, ValueError):
            log_tail = (out / "worker.log").read_text(errors="replace")[-2000:]
            result = {"errors": [f"worker exited {code} without a result: {log_tail}"]}
        if code != 0:
            result["errors"].append(f"worker exited {code}")
        if "ready" in result:
            result["setup_s"] = result["ready"] - spawned
            if not result["treetail"].startswith(self.src + os.sep):
                result["errors"].append(f"imported treetail from {result['treetail']}, not {self.src}")
        shutil.rmtree(out, ignore_errors=True)
        return result


def check_digests(results: list[dict]) -> str | None:
    """Fail every iteration whose output bytes differ from the first one's."""
    digests = [r["digest"] for r in results if "digest" in r]
    if not digests:
        return None
    for i, r in enumerate(results, 1):
        if "digest" in r and r["digest"] != digests[0]:
            r["errors"].append(f"iteration {i} output sha256 {r['digest']} differs from {digests[0]}")
    return digests[0]


def run_benchmark(workload: str, seed: int | None, seconds: float, trace: bool,
                  root: Path = ROOT, work: Path | None = None, config_dir: Path | None = None) -> dict:
    """Run one workload; return the result dict printed by ``main``."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    work = (root / WORK_DIR if work is None else work) / f"{workload}-{os.getpid()}-{time.time_ns()}"
    config = (root / "configs" if config_dir is None else config_dir) / WORKLOADS[workload]
    runner = Runner(root, work, workload, config, seed)
    facts = machine_facts()
    started = time.monotonic()
    # a traced run spends half its time on untraced iterations, the
    # baseline of trace.overhead_frac, then runs one traced iteration
    budget, least = (seconds / 2, 1) if trace else (seconds, MIN_ITERATIONS)
    try:
        iterations = []
        while True:
            t0 = time.monotonic()
            iterations.append(runner.spawn())
            took = time.monotonic() - t0
            if runner.time_left() < 2 * took:
                break
            if len(iterations) >= least and time.monotonic() - started >= budget:
                break
        probes = []
        if not trace:
            while len(iterations) + len(probes) < MIN_SETUP_SAMPLES and runner.time_left() > 10:
                probes.append(runner.spawn("--setup-only"))
        traced = [runner.spawn("--trace")] if trace else []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    digest = check_digests(iterations + traced)
    attempts = iterations + probes + traced
    failed = sum(1 for r in attempts if r["errors"])
    good = [r for r in iterations if not r["errors"]]
    samples = {
        "wall_s": [r["wall_s"] for r in good],
        "cpu_s": [r["cpu_s"] for r in good],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
        "setup_s": [r["setup_s"] for r in iterations + probes if "setup_s" in r and not r["errors"]],
    }
    summary = {name: quartiles(v) for name, v in samples.items() if v}
    values = {name: q[1] for name, q in summary.items()}
    values["ok_frac"] = 1.0 - failed / len(attempts)
    notes = []
    if trace:
        values = {}
        if traced and not traced[0]["errors"] and good:
            values = layer_values(traced[0], summary["wall_s"][1], notes)
        section = "per_layer"
    else:
        section = "end_to_end"
    errors = [e for r in attempts for e in r["errors"]]
    errors += [f"no value for metric {m['name']}" for m in spec[section] if m["name"] not in values]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in spec[section]}
    return {
        "correct": not errors,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": metrics,
        "details": {
            "workload": workload, "seed": seed, "trace": int(trace), "seconds": seconds,
            "sha256": digest, "samples": samples,
            "quartiles": {k: {"q1": q[0], "median": q[1], "q3": q[2], "n": len(samples[k])}
                          for k, q in summary.items()},
            "errors": errors,
            "notes": notes, "machine": facts,
        },
    }


def layer_values(traced: dict, untraced_wall: float, notes: list[str]) -> dict:
    values = layer_metrics([Span.from_json(d) for d in traced["spans"]])
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.overhead_frac"] = traced["wall_s"] / untraced_wall - 1.0
    sweep = traced["sweep"]
    if "skipped" in sweep:
        notes.append(f"threads sweep skipped: {sweep['skipped']}")
    values["simulate.evolve.gen_ms_t1"] = sweep.get("gen_ms_t1", 0.0)
    values["simulate.evolve.gen_ms_t2"] = sweep.get("gen_ms_t2", 0.0)
    return values


def print_result(result: dict) -> None:
    d = result["details"]
    print(f"perfbench workload={d['workload']} seed={d['seed']} trace={d['trace']} "
          f"seconds={d['seconds']}")
    print("machine: " + json.dumps(d["machine"], sort_keys=True))
    print("note: no memory-bandwidth metric is reported; a 1M float64 pool is 8 MB, "
          f"far below 4x the last-level cache ({d['machine'].get('l3', 'unknown')})")
    print(f"outputs sha256: {d['sha256']}")
    for name, q in d["quartiles"].items():
        print(f"  {name:<12} median {q['median']:.4f}  q1 {q['q1']:.4f}  q3 {q['q3']:.4f}  n={q['n']}")
    print(f"  failed_frac  {result['failed']}/{result['attempted']}")
    for note in d["notes"]:
        print(f"note: {note}")
    for error in d["errors"]:
        print(f"error: {error}", file=sys.stderr)
    if d["trace"]:
        for name, m in result["metrics"].items():
            print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def save_result(result: dict, root: Path) -> None:
    d = result["details"]
    out = root / WORK_DIR / "results"
    out.mkdir(parents=True, exist_ok=True)
    name = f"{d['workload']}-seed{d['seed']}-trace{d['trace']}-{time.time_ns()}.json"
    (out / name).write_text(json.dumps(result, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one treetail benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="replaces the config's seed (default: the config's own)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that Runner.spawn kills the running worker's group
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    problem = missing_inputs(ROOT)
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    # byte-compile up front, so that no timed import pays for compiling
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    save_result(result, ROOT)
    print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
