"""Kill/resume soak at full scale with the round-4 features ON (VERDICT r4 #7).

Protocol (north rule: a killed run resumed into the same --out must produce
no duplicate and no missing routed rows):

    # 1. build the ~96M-turn corpus once (resume-friendly shard writer)
    python tools/soak_resume.py corpus

    # 2. run A, SIGKILLed mid-run, then resumed into the same out dir
    timeout -s KILL <T> python tools/soak_resume.py run --out /dev/shm/soakA
    ray stop --force   # reap orphaned raylet from the killed driver
    python tools/soak_resume.py run --out /dev/shm/soakA   # resume

    # 3. run B uninterrupted
    python tools/soak_resume.py run --out /dev/shm/soakB

    # 4. verify A internally (dup-free keys, counter accounting, metrics)
    python tools/soak_resume.py verify --out /dev/shm/soakA

    # 5. compare view_counts A == B (no missing rows); a resumed A must
    #    ship fewer exchange bytes than B's full run
    python tools/soak_resume.py compare --a /dev/shm/soakA --b /dev/shm/soakB

Ray starts with ``os.cpu_count()`` CPUs (``RAY_GRAFT_CPUS`` overrides) and
its default object-store size (``HTR_OBJECT_STORE_GB`` overrides).
``GRAFT_SF_DIR`` picks the source scale (default sf0.1, about 96M turns;
an sf0.01 dir gives a tenth) and ``HTR_TURNS_PER_EVENT`` the turns per
source event (default 960).  At 960 every hash partition is above the
reduce-batch target and runs alone; smaller values (48 at sf0.01: about
3k rows per partition) make partitions share sink files, so a kill can
land between the commits of one batch.

Features exercised (all post-round-1, hence the re-run — the original soak
evidence in BASELINE.md predates them):
- M2 column-derived tenant with drop-if-absent (every 101st conv carries no
  tenant → rows_no_tenant > 0),
- F5 deterministic rate limiting (hot 3000-turn conversations clipped per
  (conv, 60 s window) → rows_rate_limited > 0),
- F4 nested AND/OR exclude-rule tree (the reference-shaped example from
  config.py's docstring),
- resume identity guard now hashes the full config (a mismatched resume is
  refused rather than silently mixed).
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import sys

import numpy as np
import pyarrow as pa

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
TURNS_PER_EVENT = int(os.environ.get("HTR_TURNS_PER_EVENT", "960"))
MEAN_TURNS = 24
NUM_PARTITIONS = 128

CONFIG_JSON = {
    # reference-shaped config (config.py docstring): flat rule + nested tree
    "tenant_id": "soak",
    "tenant_column": "tenant",
    "drop_rules": [
        [{"column": "role", "op": "EQ", "value": "system"}],
        {
            "and": [
                {"column": "tool", "op": "EXISTS"},
                {
                    "or": [
                        {"column": "role", "op": "EQ", "value": "tool"},
                        {"column": "text", "op": "CONTAINS", "value": "boom"},
                    ]
                },
            ]
        },
    ],
    # synthetic ts spacing peaks at ~17 rows/(conv,minute): 12 clips the
    # busy-minute tail of hot conversations without gutting normal ones
    "rate_limit": {"max_rows_per_window": 12, "window_sec": 60},
    "num_partitions": NUM_PARTITIONS,
}


def corpus_dir() -> tuple:
    import pyarrow.parquet as pq

    n_events = pq.ParquetFile(os.path.join(SF_DIR, "events.parquet")).metadata.num_rows
    n_convs = max(200, (n_events * TURNS_PER_EVENT) // MEAN_TURNS)
    return f"/tmp/htr_bench_corpus/v4_{os.path.basename(os.path.normpath(SF_DIR))}_{n_convs}", n_convs


def build_corpus() -> str:
    from hypertrace_ingester_ray.sources.transcripts import write_synthetic_transcripts

    out, n_convs = corpus_dir()
    write_synthetic_transcripts(
        out,
        n_convs=n_convs,
        convs_per_file=max(1000, n_convs // 64),
        seed=42,
        mean_turns=MEAN_TURNS,
        dup_rate=0.005,
        hot_conv_every=max(1000, n_convs // 20),
        hot_turns=3000,
    )
    return out


def _add_tenant(batch: pa.Table) -> pa.Table:
    """Deterministic per-conversation tenant; ~1/101 convs have none
    (drop-if-absent path).  Vectorized: pandas SipHash over the conv_id
    column (stable across processes — the same primitive the shuffle's
    _hash_column uses), no per-row Python."""
    from pandas.util import hash_array

    conv = batch["conv_id"].combine_chunks().to_numpy(zero_copy_only=False)
    h = hash_array(conv, categorize=False)
    tenant = np.where(h % 101 == 0, None, np.where(h % 2 == 0, "acme", "globex"))
    return batch.append_column("tenant", pa.array(tenant, pa.string()))


def run(out_dir: str) -> dict:
    import ray

    if not ray.is_initialized():
        # the box's CPUs and Ray's own object-store sizing unless overridden
        store_gb = os.environ.get("HTR_OBJECT_STORE_GB")
        ray.init(
            address="local",
            num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", os.cpu_count())),
            include_dashboard=False,
            object_store_memory=int(float(store_gb) * 1e9) if store_gb else None,
        )
    import logging

    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    from hypertrace_ingester_ray.config import pipeline_config_from_dict
    from hypertrace_ingester_ray.pipelines.ingest import run_pipeline

    corpus, _ = corpus_dir()
    cfg = pipeline_config_from_dict(CONFIG_JSON)
    ds = ray.data.read_parquet(corpus).map_batches(_add_tenant, batch_format="pyarrow")
    summary = run_pipeline(ds, out_dir, cfg)
    print(json.dumps({k: v for k, v in summary.items() if k != "phases"}, default=str))
    ray.shutdown()
    return summary


def _load_manifest(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "_run_manifest.json")) as f:
        return json.load(f)


def verify(out_dir: str) -> None:
    """Internal consistency of a (killed+resumed) run: dup-free routed keys,
    manifest counter accounting, metrics total == per_turn rows."""
    import duckdb

    m = _load_manifest(out_dir)
    con = duckdb.connect()
    pt = os.path.join(out_dir, "per_turn", "*.parquet")
    total, distinct = con.execute(
        f"SELECT count(*), count(DISTINCT (conv_id, turn_idx)) FROM read_parquet('{pt}')"
    ).fetchone()
    assert total == distinct, f"DUPLICATE per_turn keys: {total} vs {distinct}"
    assert total == m["view_counts"]["per_turn"], "manifest/sink per_turn mismatch"
    mx = os.path.join(out_dir, "metrics", "*.parquet")
    (mtotal,) = con.execute(
        f"SELECT sum(num_calls) FROM read_parquet('{mx}')"
    ).fetchone()
    assert int(mtotal) == total, f"metrics {mtotal} != per_turn {total}"
    accounted = (
        m["view_counts"]["per_turn"]
        + m["rows_deduped"]
        + m["rows_capped"]
        + m["rows_no_tenant"]
        + m["rows_rate_limited"]
    )
    assert accounted == m["rows_in"], f"accounting {accounted} != rows_in {m['rows_in']}"
    assert m["rows_no_tenant"] > 0, "tenant drop path not exercised"
    assert m["rows_rate_limited"] > 0, "rate-limit path not exercised"
    parts = len(glob.glob(os.path.join(out_dir, "_manifests", "part-*.json")))
    print(
        json.dumps(
            {
                "ok": True,
                "per_turn": total,
                "dup_keys": 0,
                "metrics_total": int(mtotal),
                "rows_in": m["rows_in"],
                "rows_no_tenant": m["rows_no_tenant"],
                "rows_rate_limited": m["rows_rate_limited"],
                "rows_deduped": m["rows_deduped"],
                "resumed_partitions": m["resumed_partitions"],
                "exchange_bytes": m["exchange_bytes"],
                "committed_partitions": parts,
                "turns_per_sec": m["turns_per_sec"],
            }
        )
    )


def compare(a: str, b: str) -> None:
    """Run A (killed and resumed) routed the same rows as run B (one
    uninterrupted run of the same corpus).  When A's last run resumed
    partitions and B's did not, A must also have shipped fewer exchange
    bytes than B: a committed partition never rides the exchange."""
    ma, mb = _load_manifest(a), _load_manifest(b)
    assert ma["view_counts"] == mb["view_counts"], (
        f"view_counts differ:\nA={ma['view_counts']}\nB={mb['view_counts']}"
    )
    for k in ("rows_in", "rows_deduped", "rows_no_tenant", "rows_rate_limited"):
        assert ma[k] == mb[k], f"{k}: {ma[k]} != {mb[k]}"
    if ma["resumed_partitions"] > 0 and mb["resumed_partitions"] == 0:
        assert ma["exchange_bytes"] < mb["exchange_bytes"], (
            f"resumed run A shipped {ma['exchange_bytes']} exchange bytes, "
            f"not fewer than run B's {mb['exchange_bytes']}: committed "
            "partitions went through the exchange"
        )
    print(
        json.dumps(
            {
                "ok": True,
                "view_counts": ma["view_counts"],
                "a_resumed": ma["resumed_partitions"],
                "b_resumed": mb["resumed_partitions"],
                "a_exchange_bytes": ma["exchange_bytes"],
                "b_exchange_bytes": mb["exchange_bytes"],
            }
        )
    )


def main() -> None:
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="cmd", required=True)
    sub.add_parser("corpus")
    r = sub.add_parser("run")
    r.add_argument("--out", required=True)
    v = sub.add_parser("verify")
    v.add_argument("--out", required=True)
    c = sub.add_parser("compare")
    c.add_argument("--a", required=True)
    c.add_argument("--b", required=True)
    args = ap.parse_args()
    if args.cmd == "corpus":
        print(build_corpus())
    elif args.cmd == "run":
        run(args.out)
    elif args.cmd == "verify":
        verify(args.out)
    else:
        compare(args.a, args.b)


if __name__ == "__main__":
    main()
