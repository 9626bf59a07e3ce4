"""Analytic window functions, pivot, distinct-count (stages/analytics.py)
and sketches (stages/sketches.py) — checked against pandas ground truth."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data

from hypertrace_ingester_ray.stages import analytics, sketches


@pytest.fixture(scope="module")
def long_table(ray_session):
    rng = np.random.RandomState(7)
    n = 2000
    t = pa.table(
        {
            "k": pa.array([f"g{int(i)}" for i in rng.randint(0, 17, n)]),
            "ord": pa.array(np.arange(n, dtype=np.int64)),
            "v": pa.array(rng.randint(0, 40, n).astype(np.int64)),
            "cat": pa.array(
                [["a", "b", "c", "zz"][int(i)] for i in rng.randint(0, 4, n)]
            ),
        }
    )
    return ray.data.from_arrow(t).repartition(5), t.to_pandas()


def test_window_functions_match_pandas(long_table, ray_session):
    ds, pdf = long_table
    out = (
        analytics.window_functions(
            ds,
            key="k",
            order_col="ord",
            lag={"prev_v": "v"},
            lead={"next_cat": "cat"},
            cumsum={"run_v": "v"},
            row_number="rn",
            num_partitions=4,
        )
        .to_pandas()
        .sort_values("ord")
        .reset_index(drop=True)
    )
    g = pdf.sort_values("ord").groupby("k", sort=False)
    exp = pdf.sort_values("ord").assign(
        prev_v=g["v"].shift(1),
        next_cat=g["cat"].shift(-1),
        run_v=g["v"].cumsum(),
        rn=g.cumcount() + 1,
    )
    exp = exp.sort_values("ord").reset_index(drop=True)
    pd.testing.assert_series_equal(
        out["prev_v"].astype("float64"), exp["prev_v"], check_names=False
    )
    assert out["next_cat"].where(out["next_cat"].notna(), None).tolist() == \
        exp["next_cat"].where(exp["next_cat"].notna(), None).tolist()
    assert (out["run_v"] == exp["run_v"]).all()
    assert (out["rn"] == exp["rn"]).all()


def test_window_functions_null_cumsum(ray_session):
    t = pa.table(
        {
            "k": ["a", "a", "a"],
            "ord": pa.array([1, 2, 3], pa.int64()),
            "v": pa.array([5, None, 7], pa.int64()),
        }
    )
    out = (
        analytics.window_functions(
            ray.data.from_arrow(t), key="k", order_col="ord", cumsum={"s": "v"}
        )
        .to_pandas()
        .sort_values("ord")
    )
    assert out["s"].tolist() == [5, 5, 12]  # NULL treated as 0, like SQL SUM


def test_pivot_counts(long_table, ray_session):
    ds, pdf = long_table
    out = (
        analytics.pivot_counts(
            ds, row_key="k", col_key="cat", categories=["a", "b", "c"]
        )
        .to_pandas()
        .set_index("k")
        .sort_index()
    )
    exp = (
        pdf.assign(one=1)
        .pivot_table(
            index="k", columns="cat", values="one", aggfunc="sum", fill_value=0
        )
        .sort_index()
    )
    for c in ("a", "b", "c"):
        assert (out[f"{c}_cnt"] == exp[c]).all()
    assert "zz_cnt" not in out.columns  # only requested categories


def test_pivot_counts_null_category_counts_zero(ray_session):
    """A NULL ``col_key`` matches no category: ``SUM(CASE WHEN c = 'x' THEN
    1 ELSE 0 END)`` is 0 for a row key whose rows are all NULL, in every
    block layout (a NULL indicator used to become INT64_MIN)."""
    t = pa.table(
        {
            "r": pa.array(["a", "a", "b", "b", "b"]),
            "c": pa.array([None, None, "x", None, "y"], pa.string()),
        }
    )
    for blocks in (1, 3):
        out = (
            analytics.pivot_counts(
                ray.data.from_arrow(t).repartition(blocks),
                row_key="r",
                col_key="c",
                categories=["x", "y"],
            )
            .to_pandas()
            .set_index("r")
            .sort_index()
        )
        assert out["x_cnt"].tolist() == [0, 1], blocks
        assert out["y_cnt"].tolist() == [0, 1], blocks


def test_distinct_count_exact(long_table, ray_session):
    ds, pdf = long_table
    out = (
        analytics.distinct_count(ds, key="k", value_col="v", num_partitions=4)
        .to_pandas()
        .set_index("k")["n_distinct"]
        .sort_index()
    )
    exp = pdf.groupby("k")["v"].nunique().sort_index()
    assert (out == exp).all()


def test_distinct_count_ignores_nulls(ray_session):
    t = pa.table(
        {"k": ["a", "a", "b"], "v": pa.array([1, None, None], pa.int64())}
    )
    out = (
        analytics.distinct_count(ray.data.from_arrow(t), key="k", value_col="v")
        .to_pandas()
        .set_index("k")["n_distinct"]
    )
    assert out.get("a") == 1
    assert out.get("b", 0) in (0, None) or "b" not in out.index


# ---------------------------------------------------------------------------
# sketches
# ---------------------------------------------------------------------------


def test_hll_error_bound(ray_session):
    rng = np.random.RandomState(3)
    rows = []
    true = {"s": 500, "m": 5_000, "l": 20_000}
    ks, vs = [], []
    for k, card in true.items():
        vals = rng.randint(0, 1 << 62, card * 2).astype(np.int64) % card
        base = hash(k) % 100000 * 1_000_000
        ks += [k] * len(vals)
        vs += list(base + vals)  # disjoint value spaces per key
    ds = ray.data.from_arrow(
        pa.table({"k": pa.array(ks), "v": pa.array(vs, pa.int64())})
    ).repartition(6)
    out = (
        sketches.hll_distinct(ds, key="k", value_col="v", p=12, num_partitions=4)
        .to_pandas()
        .set_index("k")["n_distinct_approx"]
    )
    for k, card in true.items():
        exact = len(set(v for kk, v in zip(ks, vs) if kk == k))
        assert abs(out[k] - exact) / exact < 0.05, (k, out[k], exact)


def test_hll_deterministic_across_partitioning(ray_session):
    t = pa.table(
        {
            "k": pa.array(["x"] * 1000),
            "v": pa.array(np.arange(1000, dtype=np.int64) % 333),
        }
    )
    a = sketches.hll_distinct(
        ray.data.from_arrow(t), key="k", value_col="v"
    ).to_pandas()
    b = sketches.hll_distinct(
        ray.data.from_arrow(t).repartition(7), key="k", value_col="v"
    ).to_pandas()
    assert a["n_distinct_approx"].tolist() == b["n_distinct_approx"].tolist()


def test_bloom_anti_join_exact(ray_session):
    big = ray.data.from_arrow(
        pa.table({"id": pa.array(np.arange(5000, dtype=np.int64))})
    ).repartition(4)
    small = ray.data.from_arrow(
        pa.table({"id": pa.array(np.arange(0, 5000, 7, dtype=np.int64))})
    )
    out = sketches.bloom_anti_join(big, small, key="id").to_pandas()["id"]
    exp = [i for i in range(5000) if i % 7 != 0]
    assert sorted(out.tolist()) == exp


def test_bloom_anti_join_strings(ray_session):
    big = ray.data.from_arrow(
        pa.table({"id": pa.array([f"doc-{i}" for i in range(400)])})
    )
    small = ray.data.from_arrow(
        pa.table({"id": pa.array([f"doc-{i}" for i in range(0, 400, 5)])})
    )
    out = sketches.bloom_anti_join(big, small, key="id").to_pandas()["id"]
    assert sorted(out.tolist()) == sorted(
        f"doc-{i}" for i in range(400) if i % 5 != 0
    )


def test_rolling_frames_match_pandas(long_table, ray_session):
    ds, pdf = long_table
    out = (
        analytics.window_functions(
            ds,
            key="k",
            order_col="ord",
            rolling={
                "rs": ("v", 3, "sum"),
                "rmin": ("v", 3, "min"),
                "rmax": ("v", 3, "max"),
                "rmean": ("v", 3, "mean"),
                "rc": ("v", 3, "count"),
            },
            num_partitions=4,
        )
        .to_pandas()
        .sort_values("ord")
        .reset_index(drop=True)
    )
    g = pdf.sort_values("ord").groupby("k", sort=False)["v"]
    r = g.rolling(4, min_periods=1)
    exp = pdf.sort_values("ord").assign(
        rs=r.sum().reset_index(level=0, drop=True),
        rmin=r.min().reset_index(level=0, drop=True),
        rmax=r.max().reset_index(level=0, drop=True),
        rmean=r.mean().reset_index(level=0, drop=True),
        rc=r.count().reset_index(level=0, drop=True),
    ).sort_values("ord").reset_index(drop=True)
    for c in ("rs", "rmin", "rmax", "rc"):
        assert out[c].astype("int64").tolist() == exp[c].astype("int64").tolist(), c
    assert np.allclose(out["rmean"], exp["rmean"])


@pytest.mark.parametrize("window", [1, 2, 5, 8, 64])
def test_rolling_minmax_sparse_table_widths(window, ray_session):
    """RMQ sparse-table correctness across window widths incl. > group size."""
    rng = np.random.RandomState(window)
    n = 500
    pdf = pd.DataFrame(
        {
            "k": rng.randint(0, 5, n),
            "ord": np.arange(n),
            "v": rng.randint(-1000, 1000, n).astype(np.int64),
        }
    )
    ds = ray.data.from_pandas(pdf).repartition(3)
    out = (
        analytics.window_functions(
            ds,
            key="k",
            order_col="ord",
            rolling={"rmin": ("v", window, "min"), "rmax": ("v", window, "max")},
            num_partitions=3,
        )
        .to_pandas()
        .sort_values("ord")
        .reset_index(drop=True)
    )
    g = pdf.groupby("k", sort=False)["v"].rolling(window + 1, min_periods=1)
    exp_min = g.min().reset_index(level=0, drop=True).sort_index()
    exp_max = pdf.groupby("k", sort=False)["v"].rolling(
        window + 1, min_periods=1
    ).max().reset_index(level=0, drop=True).sort_index()
    assert out["rmin"].tolist() == exp_min.astype("int64").tolist()
    assert out["rmax"].tolist() == exp_max.astype("int64").tolist()


def test_rank_dense_rank_ntile(ray_session):
    pdf = pd.DataFrame(
        {
            "k": ["a"] * 7 + ["b"] * 3,
            "val": [1, 1, 2, 2, 2, 3, 9, 5, 5, 5],
            "ord": range(10),
        }
    )
    ds = ray.data.from_pandas(pdf).repartition(2)
    out = (
        analytics.window_functions(
            ds,
            key="k",
            order_col="val",
            order_extra=["ord"],
            rank="rnk",
            dense_rank="drnk",
            ntile=("nt", 3),
            num_partitions=2,
        )
        .to_pandas()
        .sort_values(["k", "val", "ord"])
        .reset_index(drop=True)
    )
    assert out["rnk"].tolist() == [1, 1, 3, 3, 3, 6, 7, 1, 1, 1]
    assert out["drnk"].tolist() == [1, 1, 2, 2, 2, 3, 4, 1, 1, 1]
    # NTILE(3) over 7 rows: buckets of 3,2,2; over 3 rows: 1,1,1
    assert out["nt"].tolist() == [1, 1, 1, 2, 2, 3, 3, 1, 2, 3]


def test_sessionize_gap_split(ray_session):
    ts = np.array([0, 10, 1000, 1010, 5000, 0, 20000], dtype="datetime64[us]")
    pdf = pd.DataFrame(
        {
            "u": [1, 1, 1, 1, 1, 2, 2],
            "ts": ts,
            "eid": range(7),
        }
    )
    out = (
        analytics.sessionize(
            ray.data.from_pandas(pdf).repartition(2),
            key="u",
            ts_col="ts",
            gap=500,
            order_extra=["eid"],
            num_partitions=2,
        )
        .to_pandas()
        .sort_values("eid")
        .reset_index(drop=True)
    )
    assert out["session_seq"].tolist() == [1, 1, 2, 2, 3, 1, 2]


def _dims_with_nulls(seed: int) -> pa.Table:
    """300 (lang, source, n) rows plus NULL ``lang`` and NULL ``n`` rows,
    including a (lang, source) group whose ``n`` is all NULL."""
    rng = np.random.RandomState(seed)
    m = 300
    lang = [["en", "fr", "de", None][i] for i in rng.randint(0, 4, m)]
    source = [["web", "book"][i] for i in rng.randint(0, 2, m)]
    n = [int(v) if v % 7 else None for v in rng.randint(1, 100, m)]
    return pa.table(
        {
            "lang": pa.array(lang + ["xx", "xx"], pa.string()),
            "source": pa.array(source + ["web", "web"], pa.string()),
            "n": pa.array(n + [None, None], pa.int64()),
        }
    )


def _sorted_str(df: pd.DataFrame) -> pd.DataFrame:
    """Rows as strings, sorted: an engine-neutral comparison (a NULL is
    "NULL" and an integral float prints as an int, whether a nullable
    int64 column came back as float64 or as ``Int64``)."""

    def cell(v):
        if v is None or v is pd.NA or (isinstance(v, float) and np.isnan(v)):
            return "NULL"
        if isinstance(v, (float, np.floating)) and float(v).is_integer():
            return str(int(v))
        return str(v)

    df = df.astype(object).apply(lambda col: col.map(cell))
    df.columns = range(df.shape[1])
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def test_rollup_matches_duckdb(ray_session):
    import duckdb

    t = _dims_with_nulls(3)
    # and with every n NULL: each SUM, the grand total's too, is NULL
    all_null = t.set_column(2, "n", pa.nulls(t.num_rows, pa.int64()))
    for t in (t, all_null):
        out = analytics.rollup_counts(
            ray.data.from_arrow(t).repartition(4),
            dims=["lang", "source"],
            sum_col="n",
        ).to_pandas()
        assert out["n_rows"].dtype == np.int64
        exp = duckdb.sql(
            "SELECT lang, source, CAST(count(*) AS BIGINT) AS n_rows, "
            "CAST(SUM(n) AS BIGINT) AS sum_n FROM t "
            "GROUP BY ROLLUP(lang, source)"
        ).df()
        pd.testing.assert_frame_equal(_sorted_str(out), _sorted_str(exp))


def test_cube_matches_duckdb(ray_session):
    import duckdb

    t = _dims_with_nulls(5)
    out = analytics.cube_counts(
        ray.data.from_arrow(t).repartition(4),
        dims=["lang", "source"],
        sum_col="n",
    ).to_pandas()
    exp = duckdb.sql(
        "SELECT lang, source, CAST(count(*) AS BIGINT) AS n_rows, "
        "CAST(SUM(n) AS BIGINT) AS sum_n FROM t GROUP BY CUBE(lang, source)"
    ).df()
    assert len(out) == len(exp)
    pd.testing.assert_frame_equal(_sorted_str(out), _sorted_str(exp))


def test_cube_rejects_wide_dims(ray_session):
    pdf = pd.DataFrame({c: [1] for c in "abcde"})
    with pytest.raises(ValueError, match="at most 4 dims"):
        analytics.cube_counts(ray.data.from_pandas(pdf), dims=list("abcde"))


def test_group_quantiles_ceil_rank(ray_session):
    pdf = pd.DataFrame(
        {"g": ["x"] * 4 + ["y"] * 1, "v": [10, 20, 30, 40, 7]}
    )
    out = (
        analytics.group_quantiles(
            ray.data.from_pandas(pdf).repartition(2),
            key="g",
            value_col="v",
            pcts=(25, 50, 75, 100),
            num_partitions=2,
        )
        .to_pandas()
        .sort_values(["g", "pct"])
        .reset_index(drop=True)
    )
    # ceil-rank convention: rank = ceil(p*n/100)
    assert out[out.g == "x"]["value"].tolist() == [10, 20, 30, 40]
    assert out[out.g == "y"]["value"].tolist() == [7, 7, 7, 7]


def test_heavy_hitters_exact_with_compression(ray_session):
    """k smaller than the distinct count forces real MG compression in every
    batch; the confirmed output must still be exactly the >= threshold set."""
    rng = np.random.RandomState(11)
    # 200 distinct light values + 4 heavy ones
    vals = list(rng.randint(1000, 1200, 3000)) + [1, 2, 3, 4] * 500
    rng.shuffle(vals)
    pdf = pd.DataFrame({"w": np.array(vals, dtype=np.int64)})
    out = sketches.heavy_hitters(
        ray.data.from_pandas(pdf).repartition(6),
        value_col="w",
        threshold=400,
        k=64,
    ).to_pandas()
    exp = pdf["w"].value_counts()
    exp = exp[exp >= 400]
    assert sorted(out["w"].tolist()) == sorted(exp.index.tolist())
    assert dict(zip(out["w"], out["cnt"])) == exp.to_dict()


def test_heavy_hitters_guarantee_guard(ray_session):
    pdf = pd.DataFrame({"w": np.arange(5000, dtype=np.int64)})
    with pytest.raises(ValueError, match="increase k"):
        sketches.heavy_hitters(
            ray.data.from_pandas(pdf), value_col="w", threshold=2, k=16
        ).to_pandas()


def test_unpivot_roundtrip(long_table, ray_session):
    ds, pdf = long_table
    wide = analytics.pivot_counts(
        ds, row_key="k", col_key="cat", categories=["a", "b", "c"]
    )
    long = analytics.unpivot(
        wide, id_cols=["k"], value_cols=["a_cnt", "b_cnt", "c_cnt"],
        name_col="cat", value_out="cnt",
    ).to_pandas()
    exp = (
        pdf[pdf.cat.isin(["a", "b", "c"])]
        .groupby(["k", "cat"])
        .size()
        .reset_index(name="cnt")
    )
    merged = long.assign(cat=long["cat"].str.replace("_cnt", "")).merge(
        exp, on=["k", "cat"], how="left", suffixes=("", "_exp")
    )
    merged["cnt_exp"] = merged["cnt_exp"].fillna(0).astype(int)
    assert (merged["cnt"] == merged["cnt_exp"]).all()
    assert len(long) == long["k"].nunique() * 3


def test_group_collect_ordered(ray_session):
    pdf = pd.DataFrame(
        {
            "g": ["x", "y", "x", "x", "y"],
            "o": [3, 1, 1, 2, 2],
            "v": ["c", "p", "a", "b", "q"],
        }
    )
    out = (
        analytics.group_collect(
            ray.data.from_pandas(pdf).repartition(2),
            key="g",
            value_col="v",
            order_by=["o"],
            sep="-",
            num_partitions=2,
        )
        .to_pandas()
        .sort_values("g")
        .reset_index(drop=True)
    )
    assert out["collected"].tolist() == ["a-b-c", "p-q"]
    assert out["n_items"].tolist() == [3, 2]


def test_binned_quantiles_error_bound(ray_session):
    rng = np.random.RandomState(5)
    v = rng.exponential(50.0, 20000)
    pdf = pd.DataFrame({"value": v})
    out = sketches.binned_quantiles(
        ray.data.from_pandas(pdf).repartition(4),
        value_col="value",
        bin_width=2.0,
        pcts=(10, 50, 90),
    ).to_pandas()
    for _, row in out.iterrows():
        exact = np.quantile(v, row["pct"] / 100.0)
        assert abs(row["value"] - exact) <= 2.0 + 1e-9, (row["pct"], row["value"], exact)


def test_table_profile_nulls_and_typed_minmax(ray_session):
    t = pa.table(
        {
            "i": pa.array([9, 10, None, 2], pa.int64()),  # numeric min, not "10"<"2"
            "s": pa.array(["b", None, None, "a"], pa.string()),
        }
    )
    out = (
        analytics.table_profile(ray.data.from_arrow(t).repartition(2))
        .to_pandas()
        .set_index("col_name")
    )
    assert out.loc["i", "n_rows"] == 4 and out.loc["i", "n_nulls"] == 1
    assert out.loc["i", "min_value"] == "2" and out.loc["i", "max_value"] == "10"
    assert out.loc["s", "n_nulls"] == 2
    assert out.loc["s", "min_value"] == "a" and out.loc["s", "max_value"] == "b"


def test_cummax_cummin_window(ray_session):
    pdf = pd.DataFrame(
        {
            "k": ["a"] * 5 + ["b"] * 3,
            "o": list(range(5)) + list(range(3)),
            "v": [3, 1, 4, 1, 5, 9, 2, 6],
        }
    )
    out = (
        analytics.window_functions(
            ray.data.from_pandas(pdf).repartition(2),
            key="k",
            order_col="o",
            cummax={"mx": "v"},
            cummin={"mn": "v"},
            num_partitions=2,
        )
        .to_pandas()
        .sort_values(["k", "o"])
        .reset_index(drop=True)
    )
    assert out["mx"].tolist() == [3, 3, 4, 4, 5, 9, 9, 9]
    assert out["mn"].tolist() == [3, 1, 1, 1, 1, 9, 2, 2]


def test_merge_intervals_islands(ray_session):
    pdf = pd.DataFrame(
        {
            "k": [1, 1, 1, 1, 2],
            "eid": [0, 1, 2, 3, 4],
            # [0,10] [5,8] [9,12] | [20,25]  then key2: [0,1]
            "s": [0, 5, 9, 20, 0],
            "e": [10, 8, 12, 25, 1],
        }
    )
    out = (
        analytics.merge_intervals(
            ray.data.from_pandas(pdf).repartition(2),
            key="k",
            start_col="s",
            end_col="e",
            order_extra=["eid"],
            num_partitions=2,
        )
        .to_pandas()
        .sort_values(["k", "island_seq"])
        .reset_index(drop=True)
    )
    assert out[["k", "island_seq", "island_start", "island_end", "n_rows"]].values.tolist() == [
        [1, 1, 0, 12, 3],
        [1, 2, 20, 25, 1],
        [2, 1, 0, 1, 1],
    ]
    # a contained interval ([5,8] inside [0,10]) must not split the island
    # even though its end is lower than the running max — covered above



def test_funnel_strict_after_semantics(ray_session):
    # user 1 completes all 3 in order; user 2's B event (ts=20) lands after
    # its A (ts=10) despite row order, so it completes 2; user 3 never hits
    # stage A; user 4's first B ties ts with A (strict > rejects the tie)
    # but a later B@11 completes stage 2
    pdf = pd.DataFrame(
        {
            "u": [1, 1, 1, 2, 2, 3, 4, 4, 4],
            "ts": pd.to_datetime(
                [10, 20, 30, 20, 10, 5, 10, 10, 11], unit="s"
            ),
            "st": ["A", "B", "C", "B", "A", "B", "A", "B", "B"],
        }
    )
    out = (
        analytics.funnel(
            ray.data.from_pandas(pdf).repartition(3),
            key="u",
            ts_col="ts",
            stage_col="st",
            stages=["A", "B", "C"],
            num_partitions=2,
        )
        .to_pandas()
        .sort_values("u")
        .reset_index(drop=True)
    )
    assert out["stages_completed"].tolist() == [3, 2, 0, 2]
    assert out["ts_A"].notna().tolist() == [True, True, False, True]
    assert out.loc[3, "ts_B"] == pd.Timestamp(11, unit="s")


def test_funnel_matches_nested_min_walk(ray_session):
    rng = np.random.RandomState(11)
    n = 3000
    pdf = pd.DataFrame(
        {
            "u": rng.randint(0, 40, n),
            "ts": pd.to_datetime(rng.randint(0, 10_000, n), unit="ms"),
            "st": rng.choice(["A", "B", "C", "x"], n),
        }
    )
    out = (
        analytics.funnel(
            ray.data.from_pandas(pdf).repartition(7),
            key="u",
            ts_col="ts",
            stage_col="st",
            stages=["A", "B", "C"],
            num_partitions=4,
        )
        .to_pandas()
        .set_index("u")
        .sort_index()
    )
    for u, g in pdf.groupby("u"):
        prev = pd.Timestamp.min
        done = 0
        for s in ["A", "B", "C"]:
            c = g[(g["st"] == s) & (g["ts"] > prev)]
            if len(c) == 0:
                break
            prev = c["ts"].min()
            assert out.loc[u, f"ts_{s}"] == prev
            done += 1
        assert out.loc[u, "stages_completed"] == done


def test_retention_matches_pandas(ray_session):
    rng = np.random.RandomState(3)
    n = 5000
    pdf = pd.DataFrame(
        {
            "u": rng.randint(0, 60, n),
            "ts": pd.to_datetime(
                rng.randint(0, 20 * 86400, n), unit="s"
            ),
        }
    )
    out = (
        analytics.retention(
            ray.data.from_pandas(pdf).repartition(6),
            key="u",
            ts_col="ts",
            num_partitions=4,
        )
        .to_pandas()
        .sort_values(["cohort_day", "day_offset"])
        .reset_index(drop=True)
    )
    day = pdf["ts"].dt.floor("D")
    first = day.groupby(pdf["u"]).transform("min")
    pairs = pd.DataFrame(
        {
            "u": pdf["u"],
            "cohort_day": first,
            "day_offset": ((day - first).dt.days).astype("int64"),
        }
    ).drop_duplicates()
    exp = (
        pairs.groupby(["cohort_day", "day_offset"])
        .size()
        .rename("n_users")
        .reset_index()
        .sort_values(["cohort_day", "day_offset"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        out, exp, check_dtype=False, check_exact=True
    )


def test_retention_nulls_match_duckdb(ray_session):
    """The ``user_retention`` oracle's NULL rules: a NULL-``ts`` row gets a
    NULL ``day_offset``, a key whose every ``ts`` is NULL gets a NULL
    cohort, and a NULL key joins nothing."""
    import duckdb

    import __ray_entry__ as entry

    day = 86_400_000_000
    users = ["a", "a", "a", "a", "b", "b", "c", "c", None, "d", "d", "d"]
    ts = [0, 3, 2 * day, None, None, None, day, 3 * day + 5, 0, day, None, None]
    events = pa.table(
        {"user_id": users, "ts": pa.array(ts, pa.timestamp("us"))}
    )
    out = analytics.retention(
        ray.data.from_arrow(events).repartition(3),
        key="user_id",
        ts_col="ts",
        num_partitions=2,
    ).to_pandas()
    exp = duckdb.sql(
        "SELECT CAST(cohort_day AS TIMESTAMP) AS cohort_day, day_offset, "
        f"n_users FROM ({entry.oracle_sql()['user_retention']})"
    ).df()
    assert len(exp) == 7
    pd.testing.assert_frame_equal(_sorted_str(out), _sorted_str(exp))


def test_zscore_outliers_exact_integer_cutoff(ray_session):
    rng = np.random.RandomState(5)
    n = 4000
    pdf = pd.DataFrame(
        {
            "id": np.arange(n, dtype=np.int64),
            "k": rng.choice(["a", "b", "c"], n),
            "v": np.round(rng.gamma(2.0, 25.0, n), 2),
        }
    )
    out = analytics.group_zscore_outliers(
        ray.data.from_pandas(pdf).repartition(5),
        key="k",
        value_col="v",
        keep_cols=["id", "k"],
        sigma=2,
    ).to_pandas()
    import math

    got = set(out["id"].tolist())
    for k, g in pdf.groupby("k"):
        v = np.floor(g["v"].to_numpy() * 100).astype(np.int64)
        nn, s, q = len(v), int(v.sum()), int((v.astype(object) ** 2).sum())
        d = 4 * (nn * q - s * s)
        exp = set(g["id"].to_numpy()[v * nn - s > math.isqrt(d)].tolist())
        assert exp == {i for i in got if pdf.loc[i, "k"] == k}
    assert len(got) > 0  # gamma tail guarantees some outliers


def test_zscore_outliers_overflow_guard(ray_session):
    pdf = pd.DataFrame(
        {"id": [1, 2], "k": ["a", "a"], "v": [1e9, 2e9]}
    )
    with pytest.raises(Exception, match="int64|OverflowError|too large"):
        analytics.group_zscore_outliers(
            ray.data.from_pandas(pdf),
            key="k",
            value_col="v",
            keep_cols=["id"],
        ).to_pandas()


def test_hopping_window_distinct(ray_session):
    """Same user in several hops counts once per window; counts match a
    pandas brute force over the exploded windows."""
    import pandas as pd

    from hypertrace_ingester_ray.stages.metrics import hopping_window_distinct

    ts = np.array([0, 10, 25, 40, 55, 70], dtype=np.int64) * 1_000_000
    users = np.array([1, 1, 2, 1, 3, 2], dtype=np.int64)
    t = pa.table(
        {
            "ts": pa.array(ts).cast(pa.timestamp("us")),
            "user_id": pa.array(users),
        }
    )
    out = (
        hopping_window_distinct(
            ray.data.from_arrow(t),
            window_us=60_000_000,
            hop_us=15_000_000,
            value_col="user_id",
            num_partitions=4,
        )
        .to_pandas()
        .sort_values("window_start")
        .reset_index(drop=True)
    )
    rows = []
    for s, u in zip(ts, users):
        base = (s // 15_000_000) * 15_000_000
        for i in range(4):
            rows.append((base - i * 15_000_000, u))
    exp = (
        pd.DataFrame(rows, columns=["w", "u"])
        .groupby("w")
        .u.nunique()
        .reset_index()
    )
    assert list(out.window_start.astype(np.int64)) == list(exp.w)
    assert list(out.n_distinct) == list(exp.u)


def test_winsorize_clamps_to_group_band(ray_session):
    """Values clamp into their own group's [P25, P75] band; other groups'
    bands don't leak."""
    t = pa.table(
        {
            "g": pa.array(["a"] * 8 + ["b"] * 4),
            "v": pa.array(
                [1, 2, 3, 4, 5, 6, 7, 100, 10, 20, 30, 40], pa.int64()
            ),
        }
    )
    out = (
        analytics.winsorize(
            ray.data.from_arrow(t), key="g", value_col="v",
            lo_pct=25, hi_pct=75, num_partitions=2,
        )
        .to_pandas()
        .sort_values(["g", "v"])
        .reset_index(drop=True)
    )
    # group a: ranks ceil(25*8/100)=2 -> lo=2; ceil(75*8/100)=6 -> hi=6
    a = out[out.g == "a"]
    assert a.v_wins.min() == 2 and a.v_wins.max() == 6
    assert a[a.v == 100].v_wins.iloc[0] == 6
    # group b: lo = rank 1 -> 10, hi = rank 3 -> 30
    b = out[out.g == "b"]
    assert list(b.v_wins) == [10, 20, 30, 30]


def test_group_diversity_simpson(ray_session):
    """0 for single-type keys; exact integer value for a known mix."""
    t = pa.table(
        {
            "u": pa.array([1] * 4 + [2] * 3, pa.int64()),
            "e": pa.array(["a", "a", "b", "b", "x", "x", "x"]),
        }
    )
    out = (
        analytics.group_diversity(
            ray.data.from_arrow(t), key="u", value_col="e", num_partitions=2
        )
        .to_pandas()
        .set_index("u")
        .sort_index()
    )
    # u=1: n=4, ss=4+4=8 -> (16-8)*1e6//16 = 500000
    assert out.loc[1, "simpson_x1e6"] == 500_000 and out.loc[1, "n_events"] == 4
    # u=2: single type -> 0
    assert out.loc[2, "simpson_x1e6"] == 0


def test_cms_counts_bounds(ray_session):
    """CMS estimates never undercount; with a sketch far wider than the
    vocabulary they are exact, and partitioning never changes the answer."""
    rng = np.random.RandomState(9)
    words = [f"w{i}" for i in rng.zipf(1.5, 3000) % 40]
    t = pa.table({"word": pa.array(words)})
    exact = pd.Series(words).value_counts()
    terms = ["w1", "w2", "w17", "absent"]
    a = sketches.cms_counts(
        ray.data.from_arrow(t), terms, value_col="word", depth=4, width=4096
    ).to_pandas().set_index("term").approx_cnt
    b = sketches.cms_counts(
        ray.data.from_arrow(t).repartition(7), terms,
        value_col="word", depth=4, width=4096,
    ).to_pandas().set_index("term").approx_cnt
    assert (a == b).all()  # deterministic across partitioning
    for w in terms:
        true = int(exact.get(w, 0))
        assert a[w] >= true
        assert a[w] == true  # width 4096 >> 40 distinct: no collisions


def test_partition_count_invariance(ray_session):
    """Operator outputs must not depend on num_partitions (the multi-node
    determinism invariant: same answer on any cluster shape).  Operators
    whose one exchange is ``combine_by_key`` take no partition count; for
    them the input's block count varies instead."""
    rng = np.random.RandomState(21)
    n = 800
    t = pa.table(
        {
            "k": pa.array([f"g{i}" for i in rng.randint(0, 9, n)]),
            "k2": pa.array([f"h{i}" for i in rng.randint(0, 4, n)]),
            "v": pa.array(rng.randint(0, 500, n).astype(np.int64)),
        }
    )

    def run(op, p):
        return (
            op(ray.data.from_arrow(t).repartition(3), p)
            .to_pandas()
            .sort_values(lambda_cols)
            .reset_index(drop=True)
        )

    def by_blocks(op):
        # p sets the input's block count
        return lambda ds, p: op(ds.repartition(p))

    cases = {
        "distinct": (
            lambda ds, p: analytics.distinct_count(
                ds, key="k", value_col="v", num_partitions=p
            ),
            ["k"],
        ),
        "cube": (
            by_blocks(
                lambda ds: analytics.cube_counts(
                    ds, dims=["k", "k2"], sum_col="v"
                )
            ),
            ["k", "k2", "n_rows"],
        ),
        "rollup": (
            by_blocks(
                lambda ds: analytics.rollup_counts(
                    ds, dims=["k", "k2"], sum_col="v"
                )
            ),
            ["k", "k2", "n_rows"],
        ),
        "grouping_sets": (
            by_blocks(
                lambda ds: analytics.grouping_sets_counts(
                    ds, dims=["k", "k2"], sets=[["k2"], ["k"], []], sum_col="v"
                )
            ),
            ["k", "k2", "n_rows"],
        ),
        "pivot": (
            by_blocks(
                lambda ds: analytics.pivot_counts(
                    ds, row_key="k", col_key="k2", categories=["h0", "h2"]
                )
            ),
            ["k"],
        ),
        "winsorize": (
            lambda ds, p: analytics.winsorize(
                ds, key="k", value_col="v", num_partitions=p
            ),
            ["k", "v", "v_wins"],
        ),
        "diversity": (
            lambda ds, p: analytics.group_diversity(
                ds, key="k", value_col="v", num_partitions=p
            ),
            ["k"],
        ),
    }
    for name, (op, lambda_cols) in cases.items():
        a, b = run(op, 2), run(op, 7)
        assert a.equals(b), f"{name}: differs across partition counts"


def test_cooccurrence_counts(ray_session):
    """Pairs are unordered (a<b), counted once per key even with repeats,
    and null values are ignored."""
    t = pa.table(
        {
            "k": pa.array(["c1"] * 4 + ["c2"] * 2 + ["c3"]),
            "v": pa.array(["x", "y", "x", None, "y", "x", "z"]),
        }
    )
    out = (
        analytics.cooccurrence_counts(
            ray.data.from_arrow(t), key="k", value_col="v", num_partitions=3
        )
        .to_pandas()
        .set_index(["value_a", "value_b"])
        .n_keys
    )
    # c1: {x,y}; c2: {x,y}; c3: {z} alone -> only pair (x,y) with count 2
    assert out.to_dict() == {("x", "y"): 2}


def test_resample_gapfill(ray_session):
    """Every step between a key's min and max bucket appears exactly once,
    gaps zero-filled; off-grid buckets raise."""
    t = pa.table(
        {
            "k": pa.array(["a", "a", "a", "b", "b"]),
            "bucket": pa.array([0, 30, 30, 20, 20], pa.int64()),
        }
    )
    out = (
        analytics.resample_gapfill(
            ray.data.from_arrow(t).repartition(3),
            key="k",
            bucket_col="bucket",
            step=10,
            num_partitions=2,
        )
        .to_pandas()
        .sort_values(["k", "bucket"])
        .reset_index(drop=True)
    )
    assert list(out.itertuples(index=False, name=None)) == [
        ("a", 0, 1),
        ("a", 10, 0),
        ("a", 20, 0),
        ("a", 30, 2),
        ("b", 20, 2),
    ]

    bad = pa.table({"k": ["a"], "bucket": pa.array([7], pa.int64())})
    import pytest as _pytest

    with _pytest.raises(Exception, match="off the step"):
        analytics.resample_gapfill(
            ray.data.from_arrow(bad), key="k", bucket_col="bucket", step=10
        ).materialize()


def test_group_moments_exact_and_guarded(ray_session):
    """Moments match a direct computation; inputs >= 2^31 raise loudly."""
    t = pa.table(
        {
            "k": pa.array(["a", "a", "b"]),
            "x": pa.array([3, -5, 7], pa.int64()),
            "y": pa.array([2, 4, 6], pa.int64()),
        }
    )
    out = (
        analytics.group_moments(
            ray.data.from_arrow(t).repartition(2),
            key="k",
            x_col="x",
            y_col="y",
            num_partitions=2,
        )
        .to_pandas()
        .set_index("k")
    )
    a = out.loc["a"]
    assert (a.n, a.sum_x, a.sum_y) == (2, -2, 6)
    assert (a.sum_xx, a.sum_yy, a.sum_xy) == (34, 20, -14)
    b = out.loc["b"]
    assert (b.n, b.sum_xx, b.sum_xy) == (1, 49, 42)

    big = pa.table(
        {
            "k": ["a"],
            "x": pa.array([1 << 31], pa.int64()),
            "y": pa.array([1], pa.int64()),
        }
    )
    import pytest as _pytest

    with _pytest.raises(Exception, match="overflow"):
        analytics.group_moments(
            ray.data.from_arrow(big), key="k", x_col="x", y_col="y"
        ).materialize()


def test_cogroup_join_full_outer(ray_session):
    """Full-outer keeps unmatched keys from BOTH sides with nulls on the
    missing side; the key column is coalesced."""
    from hypertrace_ingester_ray.stages.joins import cogroup_join

    left = ray.data.from_arrow(
        pa.table({"k": [1, 2], "l": ["L1", "L2"]})
    ).repartition(2)
    right = ray.data.from_arrow(
        pa.table({"k": [2, 3], "r": ["R2", "R3"]})
    ).repartition(2)
    out = (
        cogroup_join(left, right, on=["k"], how="full_outer", num_partitions=3)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert list(out.k) == [1, 2, 3]
    assert out.l.tolist()[0] == "L1" and pd.isna(out.l.tolist()[2])
    assert pd.isna(out.r.tolist()[0]) and out.r.tolist()[2] == "R3"


def test_global_rank_matches_pandas(ray_session):
    """RANK / DENSE_RANK over the whole dataset without a global sort:
    ties share ranks, both directions, distinct-cardinality guard, null
    guard."""
    import numpy as np
    import pandas as pd
    import ray

    from hypertrace_ingester_ray.stages.analytics import global_rank

    rng = np.random.RandomState(11)
    pdf = pd.DataFrame(
        {"id": np.arange(3000), "v": rng.randint(0, 80, 3000).astype(np.int64)}
    )
    for desc in (False, True):
        got = global_rank(
            ray.data.from_pandas(pdf).repartition(5),
            col="v", descending=desc, out_col="r", dense_col="dr",
        ).to_pandas().sort_values("id").reset_index(drop=True)
        exp_r = pdf["v"].rank(method="min", ascending=not desc).astype(np.int64)
        exp_dr = pdf["v"].rank(method="dense", ascending=not desc).astype(np.int64)
        assert (got["r"].to_numpy() == exp_r.to_numpy()).all(), desc
        assert (got["dr"].to_numpy() == exp_dr.to_numpy()).all(), desc

    with pytest.raises(ValueError, match="max_distinct"):
        global_rank(
            ray.data.from_pandas(pdf), col="id", max_distinct=100
        ).materialize()

    pdf2 = pdf.copy()
    pdf2.loc[0, "v"] = None
    with pytest.raises(Exception, match="null"):
        global_rank(ray.data.from_pandas(pdf2), col="v").materialize()


def test_distinct_rows(ray_session):
    """distinct_rows == SELECT DISTINCT: dup rows collapse, null is its own
    group, single- and multi-column variants, partition-count invariant."""
    import pyarrow as pa
    import ray.data

    from hypertrace_ingester_ray.stages.analytics import distinct_rows

    t = pa.table(
        {
            "a": pa.array([1, 1, 2, 2, 2, None, None, 3], pa.int64()),
            "b": pa.array(["x", "x", "y", "y", "z", "x", "x", None]),
            "c": pa.array(range(8), pa.int64()),
        }
    )
    for nparts in (1, 3, 7):
        got = (
            distinct_rows(ray.data.from_arrow(t), ["a", "b"], num_partitions=nparts)
            .to_pandas()
            .sort_values(["a", "b"], na_position="first")
            .reset_index(drop=True)
        )
        assert list(got.columns) == ["a", "b"]
        norm = got.astype(object).where(got.notna(), None)
        rows = set(map(tuple, norm.values.tolist()))
        assert rows == {
            (1.0, "x"),
            (2.0, "y"),
            (2.0, "z"),
            (None, "x"),
            (3.0, None),
        }, (nparts, rows)
    one = distinct_rows(ray.data.from_arrow(t), "b", num_partitions=2).to_pandas()
    assert set(one["b"].tolist()) == {"x", "y", "z", None}


def test_transition_counts(ray_session):
    """transition_counts == lead()-pair GROUP BY: pairs never cross group
    boundaries, singleton groups emit nothing, partition-count invariant."""
    import pyarrow as pa
    import ray.data

    from hypertrace_ingester_ray.stages.analytics import transition_counts

    t = pa.table(
        {
            "g": pa.array(["c1"] * 4 + ["c2"] * 3 + ["c3"], pa.string()),
            "i": pa.array([0, 1, 2, 3, 0, 1, 2, 0], pa.int64()),
            "s": pa.array(["a", "b", "a", "b", "b", "b", "a", "a"]),
        }
    )
    expected = {("a", "b"): 2, ("b", "a"): 2, ("b", "b"): 1}
    for nparts in (1, 4):
        got = transition_counts(
            ray.data.from_arrow(t),
            key="g",
            order_col="i",
            state_col="s",
            num_partitions=nparts,
        ).to_pandas()
        m = {
            (r.from_state, r.to_state): r.cnt for r in got.itertuples()
        }
        assert m == expected, (nparts, m)


def test_grouping_sets_counts(ray_session):
    """grouping_sets_counts == pandas marginals for the requested sets only;
    unrequested crosses absent; empty set = grand total."""
    import pyarrow as pa
    import ray.data

    rng = np.random.RandomState(3)
    n = 500
    pdf = pd.DataFrame(
        {
            "a": [f"a{i}" for i in rng.randint(0, 4, n)],
            "b": [f"b{i}" for i in rng.randint(0, 3, n)],
            "v": rng.randint(0, 100, n).astype("int64"),
        }
    )
    out = analytics.grouping_sets_counts(
        ray.data.from_pandas(pdf).repartition(4),
        dims=["a", "b"],
        sets=[["a"], ["b"], []],
        sum_col="v",
    ).to_pandas()
    # per-a marginal
    a_rows = out[out["a"].notna() & out["b"].isna()].set_index("a")
    exp_a = pdf.groupby("a").agg(n_rows=("v", "size"), sum_v=("v", "sum"))
    assert (a_rows["n_rows"].sort_index() == exp_a["n_rows"].sort_index()).all()
    assert (a_rows["sum_v"].sort_index() == exp_a["sum_v"].sort_index()).all()
    # per-b marginal
    b_rows = out[out["b"].notna() & out["a"].isna()].set_index("b")
    exp_b = pdf.groupby("b").agg(n_rows=("v", "size"), sum_v=("v", "sum"))
    assert (b_rows["n_rows"].sort_index() == exp_b["n_rows"].sort_index()).all()
    # grand total; and NO (a, b) cross rows
    g = out[out["a"].isna() & out["b"].isna()]
    assert len(g) == 1 and g["n_rows"].iloc[0] == n
    assert g["sum_v"].iloc[0] == pdf["v"].sum()
    assert (out["a"].notna() & out["b"].notna()).sum() == 0


def test_group_linear_fit_matches_numpy(ray_session):
    """group_linear_fit == numpy polyfit (within fixed-point truncation);
    negative slopes truncate toward zero like SQL //; zero-variance keys
    yield NULLs."""
    import pyarrow as pa
    import ray.data

    rng = np.random.RandomState(2)
    rows_k, rows_x, rows_y = [], [], []
    truths = {"up": 35, "down": -27}
    for k, slope in truths.items():
        x = rng.randint(0, 24, 400)
        noise = rng.randint(-40, 41, 400)
        y = slope * x + 500 + noise
        rows_k += [k] * 400
        rows_x += x.tolist()
        rows_y += y.tolist()
    rows_k += ["flat"] * 5
    rows_x += [7] * 5  # zero x-variance
    rows_y += [1, 2, 3, 4, 5]
    t = pa.table(
        {
            "k": pa.array(rows_k),
            "x": pa.array(rows_x, pa.int64()),
            "y": pa.array(rows_y, pa.int64()),
        }
    )
    out = (
        analytics.group_linear_fit(
            ray.data.from_arrow(t).repartition(4),
            key="k", x_col="x", y_col="y", num_partitions=3,
        )
        .to_pandas()
        .set_index("k")
    )
    pdf = pd.DataFrame({"k": rows_k, "x": rows_x, "y": rows_y})
    for k, slope in truths.items():
        g = pdf[pdf["k"] == k]
        exp_s, exp_i = np.polyfit(g["x"], g["y"], 1)
        got_s = out.loc[k, "slope_x1000000"] / 1e6
        got_i = out.loc[k, "intercept_x1000000"] / 1e6
        assert abs(got_s - exp_s) < 1e-4, (k, got_s, exp_s)
        assert abs(got_i - exp_i) < 1e-3, (k, got_i, exp_i)
    assert pd.isna(out.loc["flat", "slope_x1000000"])


def test_hll_set_ops_error_bound(ray_session):
    """hll_set_ops union/intersection within ~5% of exact on overlapping
    integer sets (p=12 → ~1.6% standard error)."""
    import pyarrow as pa
    import ray.data

    a_vals = np.arange(0, 30_000, dtype=np.int64)
    b_vals = np.arange(20_000, 60_000, dtype=np.int64)  # overlap = 10k
    a = ray.data.from_arrow(pa.table({"v": pa.array(a_vals)})).repartition(5)
    b = ray.data.from_arrow(pa.table({"v": pa.array(b_vals)})).repartition(3)
    out = sketches.hll_set_ops(a, b, value_col="v").to_pandas().iloc[0]
    assert abs(out["n_a_approx"] - 30_000) / 30_000 < 0.05
    assert abs(out["n_b_approx"] - 40_000) / 40_000 < 0.05
    assert abs(out["n_union_approx"] - 60_000) / 60_000 < 0.05
    assert abs(out["n_intersect_approx"] - 10_000) / 10_000 < 0.25
