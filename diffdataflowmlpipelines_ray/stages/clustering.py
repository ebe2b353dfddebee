"""Distributed k-means (Lloyd's) over an embedding column.

The reference has no clustering; this is part of the added LLM-data-pipeline
surface (SURVEY §2.7): the full distributed fit, where every Lloyd
iteration is ONE `map_batches` pass emitting per-block per-cluster partial
sums (k×(dim+2) floats per block — never rows), merged on the driver in
O(blocks · k · dim).  No shuffle at all: the only data movement is the
centroid broadcast down (one `ray.put` per iteration) and the tiny partials
up.

Determinism: centroids are initialized from the k rows with the smallest
stable content hash of their id (a global partial top-k, no RNG state), so
the fit is reproducible at any parallelism / block layout.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from ..functions.hashing import fast_hash64_array
from ..functions.vectors import list_array_from_2d, list_column_to_2d

__all__ = ["kmeans_fit", "kmeans_assign", "gmm1d_fit"]


def _init_centroids(ds, emb_col: str, id_col: str, k: int) -> np.ndarray:
    """Deterministic farthest-point (max-min) seeding — the greedy twin of
    k-means++ with no RNG state.

    Seed 1 = the row with the globally smallest id hash; each further seed
    = the row maximizing its distance to the chosen set (tiebreak: smaller
    id hash).  Every pass is map-only (per-block partial argmax, the
    centroid set broadcast once via ``ray.put``; distances via the
    ‖x‖²+‖c‖²−2x·c matmul form, O(n·k) memory per block, never n×k×d);
    the driver merges ≤ blocks candidate rows per pass.  k−1 extra passes
    buy seeds that split well-separated clusters correctly — the smallest-
    hash-only init (r2) could drop two seeds in one blob and converge to a
    bad local optimum.  Parallelism-invariant: block boundaries cannot
    change an argmax with a total-order tiebreak.  Vectorized xxhash — this
    touches EVERY row and no SQL oracle reproduces the seeding (kmeans
    queries are rows-only)."""
    import ray

    def hashes(tbl: pa.Table) -> np.ndarray:
        ids = tbl[id_col].to_numpy(zero_copy_only=False)
        return fast_hash64_array(ids.astype(str))

    def first_block(tbl: pa.Table) -> pa.Table:
        h = hashes(tbl)
        i = int(np.argmin(h))
        return pa.table({"__h": pa.array(h[i : i + 1]),
                         emb_col: tbl.take(pa.array([i]))[emb_col]})

    # k map-only passes re-reading the (column-pruned) source — same access
    # pattern as the Lloyd iterations; materializing 100 TB into the object
    # store to save re-reads would force a full spill instead
    mat = ds
    parts = pa.concat_tables(list(
        mat.map_batches(first_block, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow")))
    i0 = int(np.argmin(parts["__h"].to_numpy(zero_copy_only=False)))
    cents = [list_column_to_2d(parts[emb_col].take(pa.array([i0])))[0]]

    for _ in range(k - 1):
        cref = ray.put(np.stack(cents))

        def far_block(tbl: pa.Table) -> pa.Table:
            X = list_column_to_2d(tbl[emb_col])
            C = ray.get(cref)
            d2 = ((X * X).sum(1)[:, None] + (C * C).sum(1)[None, :]
                  - 2.0 * (X @ C.T)).min(axis=1)
            h = hashes(tbl)
            # per-block best: max distance, tie → smaller hash
            best = np.lexsort((h, -d2))[0]
            return pa.table({
                "__d": pa.array(d2[best : best + 1]),
                "__h": pa.array(h[best : best + 1]),
                emb_col: tbl.take(pa.array([int(best)]))[emb_col],
            })

        cand = pa.concat_tables(list(
            mat.map_batches(far_block, batch_format="pyarrow")
            .iter_batches(batch_format="pyarrow")))
        d = cand["__d"].to_numpy(zero_copy_only=False)
        h = cand["__h"].to_numpy(zero_copy_only=False)
        best = np.lexsort((h, -d))[0]
        cents.append(list_column_to_2d(
            cand[emb_col].take(pa.array([int(best)])))[0])
    return np.stack(cents)


def kmeans_fit(ds, emb_col: str = "embedding", id_col: str = "vec_id",
               n_clusters: int = 8, max_iters: int = 25, tol: float = 1e-6,
               ) -> dict:
    """Lloyd's k-means: returns {"centroids" (k, dim), "inertia", "iters",
    "sizes" (k,)}.  Euclidean metric; empty clusters keep their previous
    centroid.  Converges when the max squared centroid shift < ``tol``."""
    cent = _init_centroids(ds, emb_col, id_col, n_clusters)
    k, dim = cent.shape
    inertia = float("inf")
    sizes = np.zeros(k, dtype=np.int64)
    iters_run = 0
    for it in range(max_iters):
        ref = ray.put(cent)

        def partial(tbl: pa.Table) -> pa.Table:
            c = ray.get(ref)
            mat = list_column_to_2d(tbl[emb_col])
            # ||x-c||² = ||x||² − 2x·c + ||c||²; argmin over c drops ||x||²
            d = -2.0 * (mat @ c.T) + (c * c).sum(axis=1)[None, :]
            assign = d.argmin(axis=1)
            sums = np.zeros((k, dim))
            np.add.at(sums, assign, mat)
            counts = np.bincount(assign, minlength=k).astype(np.float64)
            sse = float((d[np.arange(len(mat)), assign]
                         + (mat * mat).sum(axis=1)).sum())
            out = np.concatenate(
                [sums, counts[:, None],
                 np.full((k, 1), sse / k)], axis=1)
            return pa.table({
                "cluster": pa.array(np.arange(k, dtype=np.int64)),
                "part": list_array_from_2d(out),
            })

        merged = np.zeros((k, dim + 2))
        for row in ds.map_batches(partial, batch_format="pyarrow").take_all():
            merged[int(row["cluster"])] += np.asarray(row["part"])
        counts = merged[:, dim]
        inertia = float(merged[:, dim + 1].sum())
        new_cent = cent.copy()
        nz = counts > 0
        new_cent[nz] = merged[nz, :dim] / counts[nz, None]
        shift = float(((new_cent - cent) ** 2).sum(axis=1).max())
        cent = new_cent
        sizes = counts.astype(np.int64)
        iters_run = it + 1
        if shift < tol:
            break
    return {"centroids": cent, "inertia": inertia, "iters": iters_run,
            "sizes": sizes}


def kmeans_assign(ds, centroids: np.ndarray, emb_col: str = "embedding",
                  out: str = "cluster"):
    """Stateless assignment pass: nearest-centroid id per row (broadcast
    centroids, one vectorized matmul per block)."""
    ref = ray.put(np.asarray(centroids, dtype=np.float64))

    def assign(tbl: pa.Table) -> pa.Table:
        c = ray.get(ref)
        mat = list_column_to_2d(tbl[emb_col])
        d = -2.0 * (mat @ c.T) + (c * c).sum(axis=1)[None, :]
        return tbl.append_column(
            out, pa.array(d.argmin(axis=1).astype(np.int64)))

    return ds.map_batches(assign, batch_format="pyarrow")


def gmm1d_fit(ds, col: str, k: int = 3, iters: int = 5,
              var_floor: float = 1e-6):
    """1-D Gaussian mixture by distributed EM (diagonal GMM's scalar
    case) — the soft-clustering sibling of ``kmeans_fit``.

    Init is DETERMINISTIC, no RNG: component means at the exact
    distributed order statistics p=(2i+1)/(2k) (``exact_global_quantiles``
    — the same machinery the quantile gates prove), shared variance from
    the one-pass global moments, uniform weights.  Each EM round
    broadcasts the (k,3) parameter table and folds per-block
    responsibility partials (Σr, Σr·x, Σr·x², log-likelihood) — O(blocks
    × k) floats to the driver, zero shuffles at any size.

    Float partials make the fit deterministic per partitioning (pinned)
    but not bit-identical across partitionings — the documented contrast
    with the integer-exact operators; EM's monotone log-likelihood is
    asserted instead.  Returns (params DataFrame (comp, weight, mean,
    var), per-iteration log-likelihood list)."""
    import pandas as pd

    import ray

    from .linalg import column_moments
    from .relational import exact_global_quantiles

    ds = ds.materialize()
    qs = tuple((2 * i + 1) / (2 * k) for i in range(k))
    qd = exact_global_quantiles(ds, col, qs=qs)
    mu = np.array([qd[q] for q in qs], dtype=np.float64)
    mom = column_moments(ds, [col])
    n = mom.n
    var0 = float(mom.cov()[0, 0])
    var = np.full(k, max(var0, var_floor))
    w = np.full(k, 1.0 / k)

    lls = []
    for _ in range(iters):
        ref = ray.put((w.copy(), mu.copy(), var.copy()))

        def part(tbl: pa.Table) -> pa.Table:
            ww, m, v = ray.get(ref)
            x = tbl[col].to_numpy(zero_copy_only=False).astype(
                np.float64)[:, None]
            logp = (np.log(ww)[None, :]
                    - 0.5 * np.log(2 * np.pi * v)[None, :]
                    - (x - m[None, :]) ** 2 / (2 * v)[None, :])
            mx = logp.max(axis=1, keepdims=True)
            pz = np.exp(logp - mx)
            tot = pz.sum(axis=1, keepdims=True)
            r = pz / tot
            ll = float((mx[:, 0] + np.log(tot[:, 0])).sum())
            return pa.table({
                "s0": pa.array([r.sum(axis=0).tobytes()]),
                "s1": pa.array([(r * x).sum(axis=0).tobytes()]),
                "s2": pa.array([(r * x * x).sum(axis=0).tobytes()]),
                "ll": pa.array([ll]),
            })

        s0 = np.zeros(k)
        s1 = np.zeros(k)
        s2 = np.zeros(k)
        ll = 0.0
        for row in ds.map_batches(part, batch_format="pyarrow").take_all():
            s0 += np.frombuffer(row["s0"])
            s1 += np.frombuffer(row["s1"])
            s2 += np.frombuffer(row["s2"])
            ll += float(row["ll"])
        lls.append(ll)
        w = s0 / n
        mu = s1 / s0
        var = np.maximum(s2 / s0 - mu * mu, var_floor)

    out = pd.DataFrame({"comp": np.arange(k, dtype=np.int64),
                        "weight": w, "mean": mu, "var": var})
    return out, lls


def dbscan_exact(ds, eps2_q: int, min_pts: int,
                 emb_col: str = "embedding", id_col: str = "vec_id",
                 quant: float = 4096.0,
                 broadcast_limit: int = 100_000) -> "pa.Table":
    """Exact DBSCAN over an embedding column with ZERO float involvement.

    Inputs quantize to int64 (half-away at scale ``quant``, a POWER OF
    TWO so float32→float64×quant is exact bit-for-bit in both engines)
    and squared euclidean distances are pure integer sums — the ε test
    d² ≤ ``eps2_q`` (quantized units²) is exact by construction, with no
    epsilon, no summation-order drift, and no rounding discipline needed
    at all (a micro-rounded FLOAT distance was rejected: the matmul /
    list_sum chains differ in the last ulp and ~4M pairs × a 1e-6 grid
    makes a boundary flip plausible).  Semantics: a point is CORE when its
    ε-ball holds ≥ ``min_pts`` points INCLUDING itself; clusters are the
    connected components of the core–core ε-graph labeled by MIN core id
    (canonical, order-free); a BORDER point (non-core with ≥1 core
    neighbor) joins the MINIMUM cluster label among its core neighbors
    (deterministic, unlike classic first-reacher DBSCAN); noise is
    excluded.

    Scale plan: the vector matrix broadcasts once (``ray.put``) under
    ``broadcast_limit`` rows and every block computes ITS rows' neighbor
    counts / core flags / edges vectorized against it — three map-only
    passes + the CC of the (tiny) core-edge list.  Past the limit the
    documented path is the bucket-pair exchange (all B² block pairs, the
    exact-kNN standard); raising here keeps the contract honest rather
    than silently shipping an O(n²) broadcast.
    """
    import pandas as pd

    from ..functions.vectors import half_away
    from .iterate import connected_components

    mat_tbl = pa.concat_tables(
        list(ds.select_columns([id_col, emb_col])
             .iter_batches(batch_format="pyarrow")))
    n = mat_tbl.num_rows
    if n > broadcast_limit:
        raise NotImplementedError(
            f"dbscan_exact broadcast tier is bounded at {broadcast_limit} "
            "rows; use the bucket-pair exchange plan for larger inputs")
    ids = mat_tbl[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(ids, kind="mergesort")
    ids = ids[order]
    mat = half_away(
        list_column_to_2d(mat_tbl[emb_col]).astype(np.float64) * quant
    ).astype(np.int64)[order]
    ref = ray.put((ids, mat))

    def quantize(tbl: pa.Table) -> np.ndarray:
        return half_away(
            list_column_to_2d(tbl[emb_col]).astype(np.float64) * quant
        ).astype(np.int64)

    def within_block(block_q: np.ndarray, all_q: np.ndarray) -> np.ndarray:
        # exact integer d² in slabs to bound the (rows × slab × dim)
        # intermediate; ≤ dim·(2·max|q|)² per entry, far inside int64
        out = np.empty((len(block_q), len(all_q)), dtype=bool)
        for s0 in range(0, len(all_q), 512):
            diff = block_q[:, None, :] - all_q[None, s0:s0 + 512, :]
            out[:, s0:s0 + 512] = \
                (diff * diff).sum(axis=2) <= eps2_q
        return out

    def core_pass(tbl: pa.Table) -> pa.Table:
        aid, amat = ray.get(ref)
        bid = tbl[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        within = within_block(quantize(tbl), amat)  # includes self (0)
        return pa.table({
            "vec_id": pa.array(bid),
            "is_core": pa.array(
                (within.sum(axis=1) >= min_pts).astype(np.int64)),
        })

    cores_tbl = pa.concat_tables(list(
        ds.map_batches(core_pass, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow")))
    core_ids = cores_tbl.filter(
        pa.array(cores_tbl["is_core"].to_numpy(zero_copy_only=False) == 1)
    )["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    core_ids = np.sort(core_ids)
    core_ref = ray.put(core_ids)

    def edge_pass(tbl: pa.Table) -> pa.Table:
        aid, amat = ray.get(ref)
        cores = ray.get(core_ref)
        bid = tbl[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        mine_core = np.isin(bid, cores)
        other_core = np.isin(aid, cores)
        within = within_block(quantize(tbl), amat)
        # core–core edges (i < j halves duplication); border attachments
        cc = within & mine_core[:, None] & other_core[None, :] \
            & (bid[:, None] < aid[None, :])
        ci, cj = np.nonzero(cc)
        # border: non-core row, min core neighbor id's CLUSTER resolves
        # in the relabel pass; here emit (border, core-neighbor) pairs
        bb = within & ~mine_core[:, None] & other_core[None, :]
        bi, bj = np.nonzero(bb)
        return pa.table({
            "kind": pa.array(np.concatenate([
                np.zeros(len(ci), dtype=np.int64),
                np.ones(len(bi), dtype=np.int64)])),
            "a": pa.array(np.concatenate([bid[ci], bid[bi]])),
            "b": pa.array(np.concatenate([aid[cj], aid[bj]])),
        })

    pair_parts = [t for t in
                  ds.map_batches(edge_pass, batch_format="pyarrow")
                  .iter_batches(batch_format="pyarrow") if t.num_columns]
    pairs = (pa.concat_tables(pair_parts) if pair_parts
             else pa.table({"kind": pa.array([], pa.int64()),
                            "a": pa.array([], pa.int64()),
                            "b": pa.array([], pa.int64())}))
    kind = pairs["kind"].to_numpy(zero_copy_only=False)
    ce = pairs.filter(pa.array(kind == 0))
    bp = pairs.filter(pa.array(kind == 1))
    if ce.num_rows:
        cc_tbl = connected_components(pa.table({
            "id_lo": ce["a"], "id_hi": ce["b"]})).to_pandas()
        label = dict(zip(cc_tbl["id"].astype(np.int64),
                         cc_tbl["component"].astype(np.int64)))
    else:
        label = {}
    # isolated cores (no core neighbor) are their own cluster
    out_core = pd.DataFrame({
        "vec_id": core_ids,
        "cluster": np.array([label.get(int(i), int(i))
                             for i in core_ids], dtype=np.int64),
        "is_core": np.int64(1),
    })
    bpd = bp.to_pandas()
    if len(bpd):
        bpd["cluster"] = np.array(
            [label.get(int(j), int(j)) for j in bpd["b"]], dtype=np.int64)
        out_border = (bpd.groupby("a", as_index=False)["cluster"].min()
                      .rename(columns={"a": "vec_id"}))
        out_border["is_core"] = np.int64(0)
    else:
        out_border = pd.DataFrame(
            {"vec_id": [], "cluster": [], "is_core": []}, dtype=np.int64)
    out = (pd.concat([out_core, out_border], ignore_index=True)
           .sort_values("vec_id").reset_index(drop=True))
    return pa.Table.from_pandas(out.astype(np.int64), preserve_index=False)
