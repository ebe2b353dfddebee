"""Graph and per-group operators: integer-exact PageRank and per-group
caps.

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
