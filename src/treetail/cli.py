"""Command-line front end.

Subcommands mirror the pipeline stages: ``constants`` (closed forms only),
``simulate`` (produce a pool file), ``tail`` (ratio curve between two
pools), ``verify`` (full scenario verification into a report directory),
and ``ks`` (two-sample distance between pool files).

Exit codes: 0 success, 2 verification failure, 1 anything else.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from . import records, simulate as simkernel, tailstats
from .errors import DomainError, TreetailError
from .harness import load_config, run_scenario, scenario_constants, write_report
from .pools import KIND_R_PARTIAL, KIND_W, export_csv, load_pool, save_pool
from .streams import StreamTree, TAG_BOOTSTRAP


def _guard(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except TreetailError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
    return wrapper


@click.group()
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="json",
              show_default=True, help="Output format for printed results.")
@click.pass_context
@_guard
def cli(ctx, seed, fmt):
    """Tail-asymptotics toolkit for branching-tree fixed points."""
    if seed is not None and seed < 0:
        raise DomainError(f"--seed must be non-negative, got {seed}")
    ctx.ensure_object(dict)
    ctx.obj.update(seed=seed, fmt=fmt)


def _load(ctx, config_path):
    config = load_config(config_path)
    if ctx.obj["seed"] is not None:
        config = replace(config, seed=ctx.obj["seed"])
    return config


@cli.command()
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.pass_context
@_guard
def constants(ctx, config_path):
    """Print the theoretical tail constants for a scenario config."""
    config = _load(ctx, config_path)
    doc = records.to_json(scenario_constants(config))
    if ctx.obj["fmt"] == "json":
        click.echo(json.dumps(doc, indent=2))
    else:
        # one row per scalar in field order, then one per h_n
        table = doc.pop("h_n_table")
        click.echo("name,value")
        for key, value in doc.items():
            click.echo(f"{key},{value}")
        for n, v in table.items():
            click.echo(f"h_{n},{v}")


@cli.command()
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False), help="Pool file to write.")
@click.option("--kind", type=click.Choice(["w", "r", "rstar"]), default="r", show_default=True,
              help="Which process to sample: W_n, the horizon sum, or the fixed-point iterate.")
@click.option("--depth", type=int, default=None, help="Override the config depth.")
@click.option("--export-csv", "csv_path", type=click.Path(dir_okay=False), default=None,
              help="Also write the values as CSV.")
@click.pass_context
@_guard
def simulate(ctx, config_path, out, kind, depth, csv_path):
    """Evolve a pool to the configured depth and save it."""
    config = _load(ctx, config_path)
    depth = config.depth if depth is None else depth
    if depth < 0:
        raise DomainError(f"depth must be >= 0, got {depth}")
    # a step holds the last pool, the new pool and one block's temporaries
    # (under 1.4 pool sizes beyond the last at 2^20); 3 is a conservative guard
    simkernel.check_memory(3 * 8 * config.pool_size, f"simulate with pool_size {config.pool_size}")
    streams = StreamTree(config.seed)
    if kind == "rstar":
        # the start is not bound here, so only the last iterate is kept
        pool = simkernel.iterate_fixed_point(
            config.law, simkernel.constant_pool(config.law, config.pool_size, 0.0), depth, streams)
    else:
        pool_kind = KIND_W if kind == "w" else KIND_R_PARTIAL
        pool = simkernel.init_pool(config.law, config.pool_size, streams, kind=pool_kind)
        step = simkernel.evolve_pool_w if kind == "w" else simkernel.evolve_pool_r
        for _ in range(depth):
            pool = step(config.law, pool, streams)
    save_pool(pool, out)
    if csv_path is not None:
        export_csv(pool, csv_path)
    click.echo(f"wrote {pool.kind} pool, generation {pool.generation}, {pool.values.size} samples -> {out}")


@cli.command()
@click.option("--num", "num_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--den", "den_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--grid", default="0.01,0.003,0.001", show_default=True,
              help="Comma-separated tail probabilities in (0, 0.5).")
@click.option("--min-exceedances", type=int, default=100, show_default=True)
@click.option("--bootstrap-b", type=int, default=1000, show_default=True)
@click.option("--level", type=float, default=0.95, show_default=True)
@click.option("--out", "prefix", default=None, help="Write <prefix>.csv and <prefix>.json.")
@click.pass_context
@_guard
def tail(ctx, num_path, den_path, grid, min_exceedances, bootstrap_b, level, prefix):
    """Tail-ratio curve between two saved pools."""
    try:
        probs = tuple(float(p) for p in grid.split(","))
    except ValueError:
        raise DomainError(f"--grid must be comma-separated numbers, got {grid!r}") from None
    # each pool is sketched as tail_ratio would sketch it and dropped before
    # the next is read, so one pool is held at a time
    den = _sketch(den_path, lambda n: tailstats.den_sketch_bounds(n, probs))
    num = _sketch(num_path, lambda n: tailstats.num_sketch_bounds(n, den, probs))
    rng = StreamTree(ctx.obj["seed"] or 0).child(TAG_BOOTSTRAP, 0, 0)
    report = tailstats.tail_ratio(
        num, den, probs,
        min_exceedances=min_exceedances, bootstrap_b=bootstrap_b, level=level, rng=rng)
    if prefix is not None:
        Path(f"{prefix}.csv").write_text(report.to_csv_text())
        Path(f"{prefix}.json").write_text(json.dumps(report.to_json_dict(), indent=2) + "\n")
    if ctx.obj["fmt"] == "json":
        click.echo(json.dumps(report.to_json_dict(), indent=2))
    else:
        click.echo(report.to_csv_text(), nl=False)


def _sketch(path, bounds) -> tailstats.TailSketch:
    """The tail sketch of a pool file's n values, with (floor, keep) = ``bounds(n)``."""
    values = load_pool(path).values
    return tailstats.TailSketch.of(values, *bounds(values.size))


def _sorted_values(path) -> np.ndarray:
    """A pool file's values, sorted in the array they were read into.

    The pool is dropped here, so its read-only values are this command's to sort.
    """
    values = load_pool(path).values
    values.setflags(write=True)
    values.sort()
    return values


@cli.command()
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "outdir", required=True, type=click.Path(file_okay=False),
              help="Directory for report.json, tail.csv, hill.csv, decay.csv.")
@click.pass_context
@_guard
def verify(ctx, config_path, outdir):
    """Run the full verification pipeline; exit 2 if any verdict fails."""
    config = _load(ctx, config_path)
    report = run_scenario(config)
    write_report(report, outdir)
    for name, ok in report.verdicts.items():
        click.echo(f"[{'PASS' if ok else 'FAIL'}] {name}")
    click.echo(f"report written to {outdir}")
    if not report.passed:
        sys.exit(2)


@cli.command()
@click.argument("pool_a", type=click.Path(exists=True, dir_okay=False))
@click.argument("pool_b", type=click.Path(exists=True, dir_okay=False))
@click.pass_context
@_guard
def ks(ctx, pool_a, pool_b):
    """Two-sample Kolmogorov-Smirnov distance between two saved pools."""
    # each pool is sorted in the array it was read into, so two pools are held
    click.echo(repr(tailstats.ks_distance(_sorted_values(pool_a), _sorted_values(pool_b))))


def main():
    cli(prog_name="treetail")


if __name__ == "__main__":
    main()
