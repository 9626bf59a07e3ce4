"""Local stand-in for the driver's correctness gate.

Runs every ``queries()`` entry at the given sf_dir, runs the matching
``oracle_sql()`` in DuckDB over the same Parquet tables, and compares
row count, column names, and order-insensitive values.  Every result line
ends with ``sha=<12 hex>``, a SHA-256 of the query's normalized, sorted
rows, so two gate logs (say, before and after a change) show which
queries returned identical values.

Usage (from /root/repo):  python tools/check_correctness.py [sf_dir]
"""

from __future__ import annotations

import hashlib
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import pandas as pd

TABLES = (
    "region nation customer supplier part orders lineitem events documents "
    "embeddings"
).split()


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa

    try:
        import ray
        from ray.data import Dataset

        if isinstance(result, Dataset):
            # Dataset.to_pandas() skips zero-row blocks, so a typed empty
            # result would lose its columns; its Arrow blocks keep them
            blocks = ray.get(result.to_arrow_refs())
            typed = [t for t in blocks if t.num_rows] or [
                t for t in blocks if t.num_columns
            ][:1]
            if typed:
                return pa.concat_tables(typed, promote_options="default").to_pandas()
            sch = result.schema()
            base = getattr(sch, "base_schema", sch)
            if isinstance(base, pa.Schema):
                return base.empty_table().to_pandas()
            return pd.DataFrame()
    except ImportError:
        pass
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    df = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    return df


def digest(df: pd.DataFrame) -> str:
    """Short SHA-256 of the normalized, sorted rows (floats to 9
    significant digits, so summation order does not show)."""
    df = normalize(df)
    try:
        csv = df.to_csv(index=False, float_format="%.9g")
    except TypeError:
        # an extension column (e.g. Ray's pickled-object fallback for ints
        # beyond int64) that the CSV writer cannot render: use its str()
        csv = df.astype(str).to_csv(index=False)
    return hashlib.sha256(csv.encode()).hexdigest()[:12]


def compare(name: str, mine: pd.DataFrame, oracle: pd.DataFrame) -> str:
    if sorted(mine.columns) != sorted(oracle.columns):
        return f"SCHEMA MISMATCH mine={sorted(mine.columns)} oracle={sorted(oracle.columns)}"
    if len(mine) != len(oracle):
        return f"ROWCOUNT MISMATCH mine={len(mine)} oracle={len(oracle)}"
    a, b = normalize(mine), normalize(oracle)
    try:
        pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=False, rtol=1e-9)
    except AssertionError as e:
        return "VALUE MISMATCH: " + str(e).split("\n")[0]
    return "OK"


def main(sf_dir: str, only=None):
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=16, include_dashboard=False)
    import logging

    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    import __ray_entry__ as entry

    con = duckdb.connect()
    for t in TABLES:
        con.sql(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    qs = entry.queries()
    if only:
        qs = {k: v for k, v in qs.items() if k in only}
        missing = set(only) - set(qs)
        if missing:
            print("UNKNOWN QUERIES:", sorted(missing))
            return 1
    oracles = entry.oracle_sql()
    failures = 0
    # restart Ray every N queries: one 130-query session accumulates enough
    # task/ref churn to trip nondeterministic Ray-core check failures
    # (reference_count.cc:581 / task_manager.cc:930, both observed ~115
    # queries in); fresh sessions keep the gate about the ENGINE
    session_budget = 40
    since_restart = 0
    for name, fn in qs.items():
        if since_restart >= session_budget:
            ray.shutdown()
            ray.init(address="local", num_cpus=16, include_dashboard=False)
            ray.data.DataContext.get_current().enable_progress_bars = False
            logging.getLogger("ray.data").setLevel(logging.ERROR)
            since_restart = 0
        since_restart += 1
        t0 = time.perf_counter()
        try:
            mine = to_pandas(fn(sf_dir))
        except Exception as e:
            print(f"{name:28s} QUERY ERROR: {type(e).__name__}: {e}")
            failures += 1
            continue
        dt = time.perf_counter() - t0
        sha = digest(mine)
        if name not in oracles:
            print(f"{name:28s} rows-only: {len(mine)} rows   ({dt:.1f}s) sha={sha}")
            continue
        try:
            oracle = con.sql(oracles[name]).df()
        except Exception as e:
            print(f"{name:28s} ORACLE ERROR: {e}")
            failures += 1
            continue
        verdict = compare(name, mine, oracle)
        print(f"{name:28s} {verdict}  ({len(mine)} rows, {dt:.1f}s) sha={sha}")
        if verdict != "OK":
            failures += 1
    print("FAILURES:", failures)
    return failures


if __name__ == "__main__":
    argv = sys.argv[1:]
    only = None
    if "--only" in argv:
        i = argv.index("--only")
        only = [q for a in argv[i + 1 :] for q in a.split(",")]
        argv = argv[:i]
    sf = argv[0] if argv else "/root/testdata/sf0.01"
    raise SystemExit(1 if main(sf, only=only) else 0)
