import hashlib
import json
import subprocess
import sys
from pathlib import Path

from treetail import simulate
from treetail.harness import load_config
from treetail.streams import StreamTree

ROOT = Path(__file__).resolve().parent.parent


def test_gen_layers_times_every_tree_config_and_matches_the_untimed_generation():
    # just past one block, so the generation spans the block seam; the probe
    # exits non-zero if its timed generation differs from evolve_pool_r's
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "gen_layers.py"),
                          "--size", "70000", "--repeats", "1"],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    trees = [config for config in map(load_config, sorted((ROOT / "configs").glob("*.json")))
             if config.x_dist is None]
    assert trees and set(result["configs"]) == {config.name for config in trees}
    assert (result["size"], result["repeats"]) == (70_000, 1)
    for config in trees:
        layers = result["configs"][config.name]
        for key in ("root_draw", "parent_gather", "segment_sum", "generation"):
            assert isinstance(layers[key], float) and layers[key] >= 0.0, key
        # the generation it timed is the pipeline's R^(1) on the config's streams
        streams = StreamTree(config.seed)
        pool = simulate.evolve_pool_r(config.law, simulate.init_pool(config.law, 70_000, streams), streams)
        assert layers["values_sha256"] == hashlib.sha256(pool.values.tobytes()).hexdigest()
