"""CLI driver — the ``ray job submit`` entry point.

Examples (run from the repo root so workers can import the package):

  python -m hypertrace_ingester_ray.cli run \
      --input /tmp/corpus --out /tmp/run1 --num-partitions 128

  python -m hypertrace_ingester_ray.cli synth --out /tmp/corpus --n-convs 100000

  python -m hypertrace_ingester_ray.cli run \
      --events /root/testdata/sf0.01 --out /tmp/run2

A killed ``run`` resumes when re-invoked with the same ``--out``: partitions
with committed manifests are skipped (state/lineage.py).
"""

from __future__ import annotations

import argparse
import json
import sys
import os


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hypertrace_ingester_ray")
    sub = ap.add_subparsers(dest="cmd", required=True)

    run = sub.add_parser("run", help="run the flagship pipeline")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="transcript parquet file/dir")
    src.add_argument("--events", help="sf dir: derive transcripts from events.parquet")
    src.add_argument(
        "--bucketed-corpus",
        help="replay a prepare-corpus layout with ZERO query-time shuffle "
             "(bucket count must match --num-partitions)",
    )
    run.add_argument("--out", required=True)
    # None sentinels so a --config file's values (or PipelineConfig's
    # defaults) are only overridden when a flag was explicitly passed
    run.add_argument("--num-partitions", type=int, default=None)
    run.add_argument("--max-turns-per-conv", type=int, default=None)
    run.add_argument("--session-gap-sec", type=float, default=None)
    run.add_argument("--num-cpus", type=int, default=None)
    run.add_argument(
        "--object-store-gb", type=float, default=None,
        help="size the object store to the shuffle (input+sort output must "
             "fit or Ray spills to disk)",
    )
    run.add_argument("--config", help="JSON pipeline config (see config.py); CLI flags override")

    prep = sub.add_parser(
        "prepare-corpus",
        help="pre-pay the shuffle: normalize + bucket a corpus by conv_id "
             "for repeated zero-shuffle replays (run --bucketed-corpus)",
    )
    psrc = prep.add_mutually_exclusive_group(required=True)
    psrc.add_argument("--input", help="transcript parquet file/dir")
    psrc.add_argument("--events", help="sf dir: derive transcripts from events.parquet")
    prep.add_argument("--out", required=True)
    prep.add_argument("--num-partitions", type=int, default=None)
    prep.add_argument("--num-cpus", type=int, default=None)

    synth = sub.add_parser("synth", help="write a synthetic transcript corpus")
    synth.add_argument("--out", required=True)
    synth.add_argument("--n-convs", type=int, default=10_000)
    synth.add_argument("--seed", type=int, default=42)
    synth.add_argument("--hot-conv-every", type=int, default=0)
    return ap


def pipeline_config_from_args(args):
    """The ``PipelineConfig`` a ``run`` or ``prepare-corpus`` invocation
    uses: the ``--config`` file or ``PipelineConfig``'s own defaults
    (``num_partitions`` follows ``HTR_NUM_PARTITIONS``), then every flag
    that was passed explicitly."""
    from .pipelines.ingest import PipelineConfig

    if getattr(args, "config", None):
        from .config import load_pipeline_config

        cfg = load_pipeline_config(args.config)
    else:
        cfg = PipelineConfig()
    if args.num_partitions is not None:
        cfg.num_partitions = args.num_partitions
    if getattr(args, "max_turns_per_conv", None) is not None:
        cfg.max_turns_per_conv = args.max_turns_per_conv
    if getattr(args, "session_gap_sec", None) is not None:
        cfg.session_gap_us = int(args.session_gap_sec * 1e6)
    return cfg


def main(argv=None):
    args = build_parser().parse_args(argv)

    if args.cmd == "synth":
        from .sources.transcripts import write_synthetic_transcripts

        out = write_synthetic_transcripts(
            args.out,
            n_convs=args.n_convs,
            seed=args.seed,
            hot_conv_every=args.hot_conv_every,
        )
        print(json.dumps({"corpus": out, "n_convs": args.n_convs}))
        return 0

    import ray

    if not ray.is_initialized():
        # Under `ray job submit` the job server exports RAY_ADDRESS pointing
        # at the cluster — attach to it (per-node resources are the
        # cluster's own; the sizing flags only apply to a fresh local
        # session).  Default to a fresh local instance otherwise.
        addr = os.environ.get("RAY_ADDRESS", "local")
        if addr == "local":
            kwargs = {"num_cpus": args.num_cpus} if args.num_cpus else {}
            if getattr(args, "object_store_gb", None):
                kwargs["object_store_memory"] = int(args.object_store_gb * 1024**3)
            ray.init(address="local", include_dashboard=False, **kwargs)
        else:
            ray.init(address=addr)
    try:
        from .pipelines.ingest import prepare_bucketed_corpus, run_pipeline
        from .sources.transcripts import transcripts_from_events

        cfg = pipeline_config_from_args(args)
        if args.cmd == "prepare-corpus":
            source = (
                transcripts_from_events(args.events)
                if args.events
                else args.input
            )
            summary = prepare_bucketed_corpus(source, args.out, cfg)
            print(json.dumps(summary, default=str))
            return 0

        if args.bucketed_corpus:
            summary = run_pipeline(
                None, args.out, cfg, bucketed_corpus=args.bucketed_corpus
            )
        else:
            source = (
                transcripts_from_events(args.events)
                if args.events
                else args.input
            )
            summary = run_pipeline(source, args.out, cfg)
        print(json.dumps(summary, default=str))
        return 0
    finally:
        ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
