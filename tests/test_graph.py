"""Distributed graph operators (stages/graph.py) vs exact references."""

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from hypertrace_ingester_ray.stages import analytics, graph


def _reference_pagerank(edges, iters=2, scale=10**12, damping=85):
    """Single-machine mirror of the exact integer recurrence."""
    edges = sorted(set(edges))
    nodes = sorted({n for e in edges for n in e})
    idx = {n: i for i, n in enumerate(nodes)}
    deg = np.zeros(len(nodes), dtype=np.int64)
    for s, _ in edges:
        deg[idx[s]] += 1
    rank = np.full(len(nodes), scale // len(nodes), dtype=np.int64)
    base = (100 - damping) * scale // (100 * len(nodes))
    for _ in range(iters):
        contrib = np.where(deg > 0, rank // np.maximum(deg, 1), 0)
        m = np.zeros(len(nodes), dtype=np.int64)
        for s, d in edges:
            m[idx[d]] += contrib[idx[s]]
        rank = base + damping * m // 100
    return dict(zip(nodes, rank.tolist()))


def test_pagerank_matches_reference_random_graph(ray_session):
    rng = np.random.RandomState(13)
    e = [(int(a), int(b)) for a, b in rng.randint(0, 50, (3000, 2)) if a != b]
    pdf = pd.DataFrame(e * 2, columns=["src", "dst"])  # duplicates on purpose
    out = (
        graph.pagerank(
            ray.data.from_pandas(pdf).repartition(6),
            iters=3,
            num_partitions=4,
        )
        .to_pandas()
        .set_index("node")["rank"]
        .to_dict()
    )
    assert out == _reference_pagerank(e, iters=3)


def test_pagerank_dangling_leak_and_sink(ray_session):
    # chain 1 -> 2 -> 3 (3 is dangling), plus isolated-source edge 4 -> 3
    pdf = pd.DataFrame({"src": [1, 2, 4], "dst": [2, 3, 3]})
    out = (
        graph.pagerank(ray.data.from_pandas(pdf), iters=1, num_partitions=2)
        .to_pandas()
        .set_index("node")["rank"]
        .to_dict()
    )
    scale, n = 10**12, 4
    base = 15 * scale // (100 * n)
    r0 = scale // n
    assert out[1] == base  # no inbound
    assert out[2] == base + 85 * r0 // 100
    assert out[3] == base + 85 * (2 * r0) // 100  # from 2 and 4
    assert out[4] == base
    # dangling node 3 leaked its mass: total strictly below scale
    assert sum(out.values()) < scale


def test_distinct_edges(ray_session):
    pdf = pd.DataFrame(
        {"src": [1, 1, 1, 2, 2], "dst": [2, 2, 3, 1, 1]}
    )
    out = (
        analytics.distinct_rows(
            ray.data.from_pandas(pdf).repartition(3), ["src", "dst"],
            num_partitions=2,
        )
        .to_pandas()
        .sort_values(["src", "dst"])
        .values.tolist()
    )
    assert out == [[1, 2], [1, 3], [2, 1]]


def test_triangle_count_known_graph(ray_session):
    """4-clique (4 triangles) + pendant edge + self-loop + duplicate and
    reversed edges: count is exact and orientation-invariant."""
    import pyarrow as pa
    import ray.data

    from hypertrace_ingester_ray.stages.graph import triangle_count

    edges = [
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),  # K4 -> 4 triangles
        (4, 5),           # pendant
        (5, 5),           # self-loop (dropped)
        (2, 1), (3, 1),   # reversed duplicates (deduped)
    ]
    t = pa.table(
        {
            "src": pa.array([e[0] for e in edges], pa.int64()),
            "dst": pa.array([e[1] for e in edges], pa.int64()),
        }
    )
    out = triangle_count(
        ray.data.from_arrow(t).repartition(3), num_partitions=4
    ).to_pandas()
    assert out.n_triangles.tolist() == [4]


def test_bfs_hops_matches_networkx_style_bfs(ray_session):
    """bfs_hops == min-hop distance on a random directed graph (python BFS
    ground truth); unreachable nodes absent; early-stop on dry frontier."""
    from collections import deque

    import numpy as np
    import pyarrow as pa
    import ray.data

    from hypertrace_ingester_ray.stages.graph import bfs_hops

    rng = np.random.RandomState(5)
    n_nodes, n_edges = 60, 150
    srcs = rng.randint(0, n_nodes, n_edges).astype(np.int64)
    dsts = rng.randint(0, n_nodes, n_edges).astype(np.int64)
    seeds = [0, 7]
    adj = {}
    for s, d in zip(srcs, dsts):
        adj.setdefault(int(s), set()).add(int(d))
    dist = {s: 0 for s in seeds}
    q = deque(seeds)
    max_hops = 3
    while q:
        u = q.popleft()
        if dist[u] >= max_hops:
            continue
        for v in adj.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    got = bfs_hops(
        ray.data.from_arrow(
            pa.table({"src": pa.array(srcs), "dst": pa.array(dsts)})
        ),
        ray.data.from_arrow(pa.table({"node": pa.array(seeds, pa.int64())})),
        max_hops=max_hops,
        num_partitions=4,
    ).to_pandas()
    assert dict(zip(got["node"], got["dist"])) == dist
    assert len(got) == len(dist)  # no duplicate node rows


def test_bfs_hops_checkpoint_resume(ray_session, tmp_path):
    """Checkpointed BFS resumes from completed hops: a partial run's
    checkpoints carry a second run past the already-done hops, and the
    resumed result is identical to an unchunked run."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from hypertrace_ingester_ray.stages.graph import bfs_hops

    rng = np.random.RandomState(8)
    srcs = rng.randint(0, 50, 120).astype(np.int64)
    dsts = rng.randint(0, 50, 120).astype(np.int64)
    edges = pa.table({"src": pa.array(srcs), "dst": pa.array(dsts)})
    seeds = pa.table({"node": pa.array([1, 2], pa.int64())})
    ck = str(tmp_path / "bfs_ck")

    full = (
        bfs_hops(
            ray.data.from_arrow(edges),
            ray.data.from_arrow(seeds),
            max_hops=2,
            num_partitions=3,
        )
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    # partial run: 1 hop only, with checkpoints
    bfs_hops(
        ray.data.from_arrow(edges),
        ray.data.from_arrow(seeds),
        max_hops=1,
        num_partitions=3,
        checkpoint_dir=ck,
    ).materialize()
    import os

    assert os.path.exists(os.path.join(ck, "hop_0.parquet"))
    assert os.path.exists(os.path.join(ck, "hop_1.parquet"))
    # resumed run continues to hop 2; hops 0-1 come from checkpoints (the
    # meta.json identity guard requires the SAME seeds+edges — a different
    # run raises, see test_bfs_checkpoint_identity_guard)
    resumed = (
        bfs_hops(
            ray.data.from_arrow(edges),
            ray.data.from_arrow(seeds),
            max_hops=2,
            num_partitions=3,
            checkpoint_dir=ck,
        )
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    assert resumed.equals(full), (len(resumed), len(full))


def test_pagerank_checkpoint_resume_bit_identical(ray_session, tmp_path):
    """A pagerank run resumed from an iteration checkpoint is bit-identical
    to an uninterrupted run (integer fixed-point ranks)."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from hypertrace_ingester_ray.stages.graph import pagerank

    rng = np.random.RandomState(4)
    edges = pa.table(
        {
            "src": pa.array(rng.randint(0, 30, 100).astype(np.int64)),
            "dst": pa.array(rng.randint(0, 30, 100).astype(np.int64)),
        }
    )
    ck = str(tmp_path / "pr_ck")
    full = (
        pagerank(ray.data.from_arrow(edges), iters=3, num_partitions=3)
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    # partial: 2 iters with checkpoints, then resume to 3
    pagerank(
        ray.data.from_arrow(edges), iters=2, num_partitions=3,
        checkpoint_dir=ck,
    ).materialize()
    resumed = (
        pagerank(
            ray.data.from_arrow(edges), iters=3, num_partitions=3,
            checkpoint_dir=ck,
        )
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    assert resumed.equals(full)


def test_bfs_empty_seed_set_returns_typed_empty(ray_session, tmp_path):
    """An empty seed set returns a typed empty (node, dist) dataset instead
    of crashing in the hop-1 cogroup (ADVICE r3), and records termination
    in the checkpoint dir."""
    import os

    import numpy as np
    import pyarrow as pa
    import ray.data

    from hypertrace_ingester_ray.stages.graph import bfs_hops

    edges = pa.table(
        {
            "src": pa.array([1, 2], pa.int64()),
            "dst": pa.array([2, 3], pa.int64()),
        }
    )
    empty_seeds = pa.table({"node": pa.array([], pa.int64())})
    ck = str(tmp_path / "bfs_empty_ck")
    got = bfs_hops(
        ray.data.from_arrow(edges),
        ray.data.from_arrow(empty_seeds),
        max_hops=2,
        num_partitions=2,
        checkpoint_dir=ck,
    )
    assert got.count() == 0
    assert {f.name: str(f.type) for f in got.schema().base_schema} == {
        "node": "int64",
        "dist": "int64",
    }
    assert os.path.exists(os.path.join(ck, "hop_0.parquet"))
    # resuming the terminated-empty run is also a typed empty, not IndexError
    resumed = bfs_hops(
        ray.data.from_arrow(edges),
        ray.data.from_arrow(empty_seeds),
        max_hops=2,
        num_partitions=2,
        checkpoint_dir=ck,
    )
    assert resumed.count() == 0


def test_bfs_checkpoint_identity_guard(ray_session, tmp_path):
    """Resuming a BFS checkpoint dir with different seeds or different edges
    raises loudly instead of silently mixing runs (ADVICE r3); a smaller
    max_hops on resume never returns distances beyond the new budget."""
    import numpy as np
    import pyarrow as pa
    import pytest
    import ray.data

    from hypertrace_ingester_ray.stages.graph import bfs_hops

    rng = np.random.RandomState(11)
    edges = pa.table(
        {
            "src": pa.array(rng.randint(0, 40, 100).astype(np.int64)),
            "dst": pa.array(rng.randint(0, 40, 100).astype(np.int64)),
        }
    )
    seeds = pa.table({"node": pa.array([3], pa.int64())})
    ck = str(tmp_path / "bfs_guard_ck")
    bfs_hops(
        ray.data.from_arrow(edges),
        ray.data.from_arrow(seeds),
        max_hops=3,
        num_partitions=3,
        checkpoint_dir=ck,
    ).materialize()
    # different seeds -> raise
    with pytest.raises(ValueError, match="different run"):
        bfs_hops(
            ray.data.from_arrow(edges),
            ray.data.from_arrow(
                pa.table({"node": pa.array([999], pa.int64())})
            ),
            max_hops=3,
            num_partitions=3,
            checkpoint_dir=ck,
        )
    # different edge set -> raise
    other = pa.table(
        {
            "src": pa.array([1, 2, 3], pa.int64()),
            "dst": pa.array([4, 5, 6], pa.int64()),
        }
    )
    with pytest.raises(ValueError, match="different run"):
        bfs_hops(
            ray.data.from_arrow(other),
            ray.data.from_arrow(seeds),
            max_hops=3,
            num_partitions=3,
            checkpoint_dir=ck,
        )
    # smaller max_hops on resume: loaded hops are capped at the new budget
    small = bfs_hops(
        ray.data.from_arrow(edges),
        ray.data.from_arrow(seeds),
        max_hops=1,
        num_partitions=3,
        checkpoint_dir=ck,
    ).to_pandas()
    assert small["dist"].max() <= 1


def test_pagerank_checkpoint_identity_guard(ray_session, tmp_path):
    """Resuming a pagerank checkpoint dir with different damping or a
    different graph raises; extending iters on the same run still resumes
    (loose key)."""
    import numpy as np
    import pyarrow as pa
    import pytest
    import ray.data

    from hypertrace_ingester_ray.stages.graph import pagerank

    rng = np.random.RandomState(12)
    edges = pa.table(
        {
            "src": pa.array(rng.randint(0, 20, 60).astype(np.int64)),
            "dst": pa.array(rng.randint(0, 20, 60).astype(np.int64)),
        }
    )
    ck = str(tmp_path / "pr_guard_ck")
    pagerank(
        ray.data.from_arrow(edges), iters=1, num_partitions=2,
        checkpoint_dir=ck,
    ).materialize()
    with pytest.raises(ValueError, match="different run"):
        pagerank(
            ray.data.from_arrow(edges), iters=1, damping_pct=50,
            num_partitions=2, checkpoint_dir=ck,
        )
    other = pa.table(
        {
            "src": pa.array([100, 200], pa.int64()),
            "dst": pa.array([200, 300], pa.int64()),
        }
    )
    with pytest.raises(ValueError, match="different run"):
        pagerank(
            ray.data.from_arrow(other), iters=1, num_partitions=2,
            checkpoint_dir=ck,
        )
    # a checkpoint dir with parquet files but no meta.json predates identity
    # tracking: refuse rather than trust
    import json
    import os

    os.remove(os.path.join(ck, "meta.json"))
    with pytest.raises(ValueError, match="no meta.json"):
        pagerank(
            ray.data.from_arrow(edges), iters=2, num_partitions=2,
            checkpoint_dir=ck,
        )
