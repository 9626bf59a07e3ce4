"""CLI configuration: unset flags leave PipelineConfig's own defaults."""

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_PROBE = """
import json, sys
from hypertrace_ingester_ray.cli import build_parser, pipeline_config_from_args
out = {}
for argv in sys.argv[1:]:
    cfg = pipeline_config_from_args(build_parser().parse_args(argv.split()))
    out[argv] = [cfg.num_partitions, cfg.max_turns_per_conv, cfg.session_gap_us]
print(json.dumps(out))
"""


def _configs(env_partitions, *argvs):
    env = dict(os.environ, HTR_NUM_PARTITIONS=env_partitions)
    res = subprocess.run(
        [sys.executable, "-c", _PROBE, *argvs],
        cwd=REPO, env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(res.stdout.strip().splitlines()[-1])


def test_cli_honours_num_partitions_env_default():
    run = "run --input x --out y"
    prep = "prepare-corpus --input x --out y"
    got = _configs("12", run, prep, run + " --num-partitions 3 --session-gap-sec 2")
    assert got[run] == [12, 100_000, None]
    assert got[prep] == [12, 100_000, None]
    assert got[run + " --num-partitions 3 --session-gap-sec 2"] == [3, 100_000, 2_000_000]
