"""In-memory spans around the public entry points of each treetail module.

``Tracer.install`` replaces the entry points listed in ``FUNCTIONS``,
``METHODS`` and ``CLI_COMMANDS`` with wrappers that record one span per
call: name, start, end, the span that was open when the call began, and a
few work counts taken from the call's arguments or result. Every reference
to a patched function inside the package is replaced, because modules bind
each other's functions by name (``harness`` imports ``validate_regime``,
``cli`` imports ``save_pool``). ``Tracer.uninstall`` puts every original
back and checks that it did.

Span times are ``time.monotonic``, one clock for every process on the
machine, so spans recorded in separate CLI processes line up.

``layer_metrics`` turns a list of spans into the per-layer metrics the
benchmark reports. A span's self time is its duration minus the part of
its interval that its direct children cover; overlapping children are
counted once.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

EVOLVE = "simulate.evolve"
DRAW_ROOTS = "branching.draw_roots"

# Per-generation bytes of the population step, computed from array sizes,
# not measured: per child the random pick, the gathered parent value, the
# weighted product and the repeat index; per output q, n and the segment sum.
BYTES_PER_CHILD = 4 * 8
BYTES_PER_OUTPUT = 3 * 8


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _one_generation(args, kwargs, result):
    return {"generations": 1}


def _steps(args, kwargs, result):
    return {"generations": int(_arg(args, kwargs, 2, "steps"))}


def _ks_samples(args, kwargs, result):
    return {"samples_in": len(_arg(args, kwargs, 0, "a")) + len(_arg(args, kwargs, 1, "b"))}


def _draw_roots(args, kwargs, result):
    # args[0] is the law: methods are wrapped unbound
    return {"nodes": int(_arg(args, kwargs, 1, "size")), "children": int(result[1].sum())}


def _draws(args, kwargs, result):
    return {"draws": int(_arg(args, kwargs, 2, "size"))}


def _file_bytes(index, name):
    def count(args, kwargs, result):
        return {"bytes": os.path.getsize(_arg(args, kwargs, index, name))}
    return count


# (module, function, span name, counter)
FUNCTIONS = (
    ("asymptotics", "compute_constants", "asymptotics.compute_constants", None),
    ("branching", "validate_regime", "branching.validate_regime", None),
    ("branching", "sample_zn_many", "branching.sample_zn_many", None),
    ("simulate", "init_pool", "simulate.init_pool", None),
    ("simulate", "evolve_pool_w", EVOLVE, _one_generation),
    ("simulate", "evolve_pool_r", EVOLVE, _one_generation),
    ("simulate", "iterate_fixed_point", EVOLVE, _steps),
    ("simulate", "sample_weighted_sum", "simulate.sample_weighted_sum", None),
    ("tailstats", "ks_distance", "tailstats.ks_distance", _ks_samples),
    ("tailstats", "tail_ratio", "tailstats.tail_ratio", None),
    ("tailstats", "tail_ratio_analytic", "tailstats.tail_ratio_analytic", None),
    ("tailstats", "hill_curve", "tailstats.hill_curve", None),
    ("tailstats", "hill", "tailstats.hill", None),
    ("harness", "run_scenario", "harness.run_scenario", None),
    ("harness", "write_report", "harness.write_report", None),
    ("pools", "save_pool", "pools.save_pool", _file_bytes(1, "path")),
    ("pools", "load_pool", "pools.load_pool", _file_bytes(0, "path")),
)

# (module, base class, method, span name, counter); every class of the
# module that derives from the base and defines the method is patched
METHODS = (
    ("branching", "BranchingLaw", "draw_roots", DRAW_ROOTS, _draw_roots),
    ("distributions", "Distribution", "sample_many", "distributions.sample_many", _draws),
    ("streams", "StreamTree", "child", "streams.child", None),
)

CLI_COMMANDS = ("simulate", "ks", "tail")
CLI_IMPORT = "cli.import"
CLI_PROCESS = "cli.process"

# the counts each span name carries, reported as 0 where the name never ran
COUNT_KEYS = {
    EVOLVE: ("generations",),
    "tailstats.ks_distance": ("samples_in",),
    DRAW_ROOTS: ("nodes", "children"),
    "distributions.sample_many": ("draws",),
    "pools.save_pool": ("bytes",),
    "pools.load_pool": ("bytes",),
}

SPAN_NAMES = tuple(dict.fromkeys(
    [name for _, _, name, _ in FUNCTIONS]
    + [name for *_, name, _ in METHODS]
    + [f"cli.{c}" for c in CLI_COMMANDS]
    + [CLI_IMPORT, CLI_PROCESS]
))


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "counts")

    def __init__(self, id, name, start, end, parent, counts=None):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.counts = counts or {}

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}

    @classmethod
    def from_json(cls, doc: dict) -> "Span":
        return cls(**doc)


class Tracer:
    """Records spans while installed; holds them in memory until read."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add_span(self, name, start, end, counts=None) -> Span:
        stack = self._stack()
        span = Span(len(self.spans), name, start, end, stack[-1].id if stack else None, counts)
        self.spans.append(span)
        return span

    def wrap(self, fn, name, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = self.add_span(name, time.monotonic(), None)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.monotonic()
                stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result
        return traced

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        """Wrap the entry points of the already imported treetail package."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        package = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "treetail" or n.startswith("treetail."))]
        for module_name, attr, name, count in FUNCTIONS:
            original = getattr(importlib.import_module(f"treetail.{module_name}"), attr)
            wrapped = self.wrap(original, name, count)
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)
        for module_name, base_name, attr, name, count in METHODS:
            module = importlib.import_module(f"treetail.{module_name}")
            base = getattr(module, base_name)
            for cls in vars(module).values():
                if isinstance(cls, type) and issubclass(cls, base) and attr in vars(cls):
                    self._patch(cls, attr, self.wrap(vars(cls)[attr], name, count))
        cli = sys.modules.get("treetail.cli")
        if cli is not None:
            for command in CLI_COMMANDS:
                cmd = cli.cli.commands[command]
                self._patch(cmd, "callback", self.wrap(cmd.callback, f"cli.{command}"))

    def uninstall(self):
        """Restore every patched attribute, then check that each is the original."""
        patches, self._patches = self._patches, []
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        for owner, attr, original in patches:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner!r}.{attr} was not restored")


@contextmanager
def tracing(tracer: Tracer):
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def covered(lo: float, hi: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its direct children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - covered(s.start, s.end, children[s.id]) for s in spans}


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds, self seconds and summed counts.

    Inclusive seconds add up only the outermost span of each name, so a
    layer that calls itself is not counted twice.
    """
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    out = {}
    for name in SPAN_NAMES:
        out[name] = {"calls": 0, "s": 0.0, "self_s": 0.0}
        out[name].update(dict.fromkeys(COUNT_KEYS.get(name, ()), 0))
    for s in spans:
        row = out[s.name]
        row["calls"] += 1
        row["self_s"] += selfs[s.id]
        parent = by_id.get(s.parent)
        while parent is not None and parent.name != s.name:
            parent = by_id.get(parent.parent)
        if parent is None:
            row["s"] += s.end - s.start
        for key, value in s.counts.items():
            row[key] += value
    return out


def layer_metrics(spans) -> dict[str, float]:
    """Flat per-layer metrics: ``<span>.<calls|s|self_s|count>`` plus evolve totals."""
    summary = summarize(spans)
    metrics = {}
    for name, row in summary.items():
        for key, value in row.items():
            metrics[f"{name}.{key}"] = value
    by_id = {s.id: s for s in spans}
    children = outputs = 0
    for s in spans:
        parent = by_id.get(s.parent)
        if s.name == DRAW_ROOTS and parent is not None and parent.name == EVOLVE:
            children += s.counts.get("children", 0)
            outputs += s.counts.get("nodes", 0)
    evolve = summary[EVOLVE]
    generations = evolve["generations"]
    metrics[f"{EVOLVE}.gen_ms"] = 1e3 * evolve["s"] / generations if generations else 0.0
    metrics[f"{EVOLVE}.children"] = children
    metrics[f"{EVOLVE}.bytes_computed"] = BYTES_PER_CHILD * children + BYTES_PER_OUTPUT * outputs
    metrics["trace.self_sum_s"] = sum(row["self_s"] for row in summary.values())
    return metrics
