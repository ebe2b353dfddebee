"""Graph and per-group operators: integer-exact PageRank, k-core,
per-group caps and BFS.

Each gates against an exact pure-Python/numpy reference at more than one
partitioning, proving the distributed plans partition-invariant."""

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray


# ----------------------------------------------------------- integer PageRank
def _rand_graph(seed: int, n_nodes: int = 60, n_edges: int = 200) -> pa.Table:
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_nodes, size=n_edges).astype(np.int64)
    dst = rng.integers(0, n_nodes + 10, size=n_edges).astype(np.int64)
    return pa.table({"id_lo": pa.array(src), "id_hi": pa.array(dst)})


def test_pagerank_int_driver_equals_distributed(ray_session):
    from diffdataflowmlpipelines_ray.stages.iterate import (
        pagerank_int, pagerank_int_ds)

    edges = _rand_graph(3)
    drv = pagerank_int(edges, iters=4).to_pandas()
    ds = ray.data.from_arrow(edges).repartition(5)
    dist = (pagerank_int_ds(ds, iters=4).to_pandas()
            .sort_values("id").reset_index(drop=True))
    drv = drv.sort_values("id").reset_index(drop=True)
    pd.testing.assert_frame_equal(drv, dist)


def test_pagerank_int_mass_and_dangling(ray_session):
    from diffdataflowmlpipelines_ray.stages.iterate import pagerank_int

    # star: hub 0 → leaves 1..9 (all dangling); symmetry forces equal
    # leaf ranks, and floor division only ever LOSES mass
    edges = pa.table({"id_lo": pa.array([0] * 9, type=pa.int64()),
                      "id_hi": pa.array(range(1, 10), type=pa.int64())})
    total = 10**12
    out = pagerank_int(edges, iters=10, total=total).to_pandas()
    r = dict(zip(out["id"], out["rank_micro"]))
    assert len({r[i] for i in range(1, 10)}) == 1       # leaves identical
    assert r[1] > r[0]                                  # mass flows to leaves
    s = sum(r.values())
    assert s <= total
    assert s >= total - 10_000                          # bounded rounding loss


# ------------------------------------------------------------------- k-core
def test_kcore_driver_equals_distributed(ray_session):
    from diffdataflowmlpipelines_ray.stages.iterate import kcore, kcore_ds

    rng = np.random.default_rng(11)
    # sparse random graph + a planted K5 so the 3-core is non-empty
    u = rng.integers(0, 80, size=150).astype(np.int64)
    v = rng.integers(0, 80, size=150).astype(np.int64)
    k5 = [(100 + i, 100 + j) for i in range(5) for j in range(i + 1, 5)]
    eu = np.concatenate([np.minimum(u, v), [a for a, _ in k5]])
    ev = np.concatenate([np.maximum(u, v), [b for _, b in k5]])
    keep = eu != ev
    E = (pd.DataFrame({"u": eu[keep], "v": ev[keep]})
         .drop_duplicates().reset_index(drop=True))
    tbl = pa.Table.from_pandas(E, preserve_index=False)

    drv = kcore(tbl, k=3).to_pandas().sort_values("id").reset_index(drop=True)
    dist = (kcore_ds(ray.data.from_arrow(tbl).repartition(4), k=3)
            .to_pandas().sort_values("id").reset_index(drop=True))
    pd.testing.assert_frame_equal(drv, dist)
    # the planted K5 always survives a 3-core with degree 4 each
    got = dict(zip(drv["id"], drv["core_deg"]))
    assert all(got[100 + i] >= 4 for i in range(5))


def test_kcore_tree_peels_to_empty(ray_session):
    from diffdataflowmlpipelines_ray.stages.iterate import kcore, kcore_ds

    ids = np.arange(1, 64, dtype=np.int64)      # pure binary tree: no 2-core
    tbl = pa.table({"u": pa.array(ids // 2), "v": pa.array(ids)})
    assert kcore(tbl, k=2).num_rows == 0
    assert kcore_ds(ray.data.from_arrow(tbl).repartition(3),
                    k=2).count() == 0


# ------------------------------------------------------------- per-group cap
def _h60(s: str) -> int:
    return int(hashlib.md5(s.encode()).hexdigest()[:15], 16)


@pytest.mark.parametrize("blocks", [1, 5])
def test_cap_per_group_matches_reference(ray_session, blocks):
    from diffdataflowmlpipelines_ray.stages.relational import cap_per_group

    rng = np.random.default_rng(5)
    n = 300
    docs = pd.DataFrame({
        "doc_id": np.arange(n, dtype=np.int64),
        "source": rng.choice(["a", "b", "c"], size=n, p=[0.7, 0.2, 0.1]),
    })
    # brute-force reference: rank by (h, id) within group, head 7
    ref = docs.copy()
    ref["h"] = [_h60(str(i)) for i in ref["doc_id"]]
    ref = (ref.sort_values(["source", "h", "doc_id"])
           .groupby("source").head(7))
    expect = set(map(tuple, ref[["source", "doc_id"]].to_numpy()))

    ds = ray.data.from_pandas(docs).repartition(blocks)
    got = cap_per_group(ds, "source", "doc_id", n=7).to_pandas()
    assert set(map(tuple, got[["source", "doc_id"]].to_numpy())) == expect
    assert got.groupby("source").size().max() <= 7


def test_cap_per_group_small_groups_untouched(ray_session):
    from diffdataflowmlpipelines_ray.stages.relational import cap_per_group

    docs = pd.DataFrame({"doc_id": np.arange(4, dtype=np.int64),
                         "source": ["x", "x", "y", "y"]})
    got = cap_per_group(ray.data.from_pandas(docs), "source", "doc_id",
                        n=10).to_pandas()
    assert len(got) == 4                       # cap above group size: no-op


# -------------------------------------------------------------------- BFS
def _bfs_ref(E: pd.DataFrame, src: int, max_hops: int) -> dict:
    """Dict-and-set BFS reference."""
    adj = {}
    for a, b in zip(E["u"], E["v"]):
        adj.setdefault(int(a), set()).add(int(b))
        adj.setdefault(int(b), set()).add(int(a))
    dist = {src: 0}
    frontier = [src]
    for d in range(1, max_hops + 1):
        nxt = {n for f in frontier for n in adj.get(f, ())
               if n not in dist}
        if not nxt:
            break
        for n in nxt:
            dist[n] = d
        frontier = sorted(nxt)
    return dist


def test_bfs_driver_equals_distributed_with_cycles(ray_session):
    from diffdataflowmlpipelines_ray.stages.iterate import (bfs_hops,
                                                            bfs_hops_ds)

    rng = np.random.default_rng(5)
    u = rng.integers(0, 60, size=120).astype(np.int64)
    v = rng.integers(0, 60, size=120).astype(np.int64)
    keep = u != v
    # an island unreachable from 0 must be absent from the result
    iu = np.array([900, 901], dtype=np.int64)
    iv = np.array([901, 902], dtype=np.int64)
    E = (pd.DataFrame({"u": np.concatenate([u[keep], iu]),
                       "v": np.concatenate([v[keep], iv])})
         .drop_duplicates().reset_index(drop=True))
    tbl = pa.Table.from_pandas(E, preserve_index=False)

    drv = bfs_hops(tbl, source=0).to_pandas()
    dist = (bfs_hops_ds(ray.data.from_arrow(tbl).repartition(4), source=0)
            .to_pandas().sort_values("id").reset_index(drop=True))
    pd.testing.assert_frame_equal(
        drv.astype(np.int64), dist.astype(np.int64))
    want = _bfs_ref(E, 0, 64)
    got = dict(zip(drv["id"], drv["hops"]))
    assert got == want
    assert 900 not in got and 902 not in got


def test_bfs_line_graph_and_hop_cap(ray_session):
    from diffdataflowmlpipelines_ray.stages.iterate import (bfs_hops,
                                                            bfs_hops_ds)

    E = pd.DataFrame({"u": np.arange(0, 9, dtype=np.int64),
                      "v": np.arange(1, 10, dtype=np.int64)})
    tbl = pa.Table.from_pandas(E, preserve_index=False)
    drv = bfs_hops(tbl, source=0, max_hops=4).to_pandas()
    assert dict(zip(drv["id"], drv["hops"])) == {i: i for i in range(5)}
    dist = (bfs_hops_ds(ray.data.from_arrow(tbl).repartition(3),
                        source=0, max_hops=4).to_pandas())
    assert (dist.sort_values("id").reset_index(drop=True)
            .equals(drv.astype(dist.dtypes.to_dict())))
