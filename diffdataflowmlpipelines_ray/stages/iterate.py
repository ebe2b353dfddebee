"""Iterative (fixed-point) dataflow — the DD ``iterate`` analogue.

Differential dataflow's third primitive family besides map/join/reduce is
``iterate`` (fixed-point loops over a collection).  The canonical
data-engineering instance is connected components by min-label propagation,
which is also the scalable replacement for the driver-side union-find in the
dedup pipelines: each round is a pair of groupby-min exchanges over the edge
list; the loop stops when no label changes (the fixpoint / frontier-empty
condition).

``connected_components`` is exact and deterministic: the final label of every
node is the minimum node id of its component.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

__all__ = ["triangle_count", "local_triangle_counts",
           "connected_components", "connected_components_ds",
           "pagerank", "pagerank_ds", "pagerank_int", "pagerank_int_ds",
           "PR_INT_DRIVER_MAX_EDGES", "hits_int", "hits_int_ds",
           "HITS_DRIVER_MAX_EDGES"]


def connected_components(edges, max_iters: int = 64):
    """edges: Dataset or Table with columns id_lo, id_hi → pa.Table
    (id, component) where component = min id in the component.

    Each iteration: label[n] ← min(label[n], min over neighbors' labels) via
    two grouped min-exchanges, then a **pointer-doubling** shortcut
    (label[n] ← label[label[n]]) so path lengths halve every round and the
    fixpoint is reached in O(log diameter) rounds, not O(diameter).  The
    per-round changed-count is the probe; the loop ends at changed == 0.
    ``max_iters`` is a safety net only — with doubling, 64 rounds cover any
    component with diameter < 2^64; if the loop somehow exits non-converged
    a RuntimeError is raised instead of returning wrong labels.

    Runs on the driver with pandas C-kernels: the input here is always a
    *candidate-pair* list (dedup output), orders of magnitude smaller than
    the corpus.  At cluster scale the identical two-groupby round maps to
    `hash_join` + `groupby().min()` over Datasets — same algebra, one shuffle
    pair per round.
    """
    if not isinstance(edges, pa.Table):
        edges = pa.concat_tables(list(edges.iter_batches(batch_format="pyarrow")))
    if edges.num_rows == 0:
        return pa.table({"id": pa.array([], type=pa.int64()),
                         "component": pa.array([], type=pa.int64())})
    ed = edges.to_pandas()[["id_lo", "id_hi"]]
    # undirected edge list, both directions
    sym = pd.concat(
        [ed, ed.rename(columns={"id_lo": "id_hi", "id_hi": "id_lo"})],
        ignore_index=True,
    ).rename(columns={"id_lo": "src", "id_hi": "dst"})
    labels = pd.DataFrame({"id": pd.unique(pd.concat([sym["src"], sym["dst"]]))})
    labels["component"] = labels["id"]
    converged = False
    for _ in range(max_iters):
        # neighbor minimum: join labels onto edges, groupby dst min
        j = sym.merge(labels, left_on="src", right_on="id")[["dst", "component"]]
        neigh = j.groupby("dst", as_index=False)["component"].min().rename(
            columns={"dst": "id", "component": "neigh_min"}
        )
        merged = labels.merge(neigh, on="id", how="left")
        new_comp = merged[["component", "neigh_min"]].min(axis=1).astype(
            labels["component"].dtype
        )
        # pointer doubling: follow the label chain one hop (label-of-label)
        lab = pd.DataFrame({"id": labels["id"], "component": new_comp})
        hop = lab.merge(
            lab.rename(columns={"id": "component", "component": "__cc2"}),
            on="component", how="left",
        )
        new_comp = hop["__cc2"].fillna(hop["component"]).astype(
            labels["component"].dtype
        )
        changed = int((new_comp.to_numpy() != labels["component"].to_numpy()).sum())
        labels["component"] = new_comp.to_numpy()
        if changed == 0:  # fixpoint reached — the iterate frontier is empty
            converged = True
            break
    if not converged:
        raise RuntimeError(
            f"connected_components did not converge in {max_iters} rounds"
        )
    return pa.Table.from_pandas(labels.sort_values("id").reset_index(drop=True),
                                preserve_index=False)


#: stitch-graph size at or below which the contracted graph resolves on the
#: driver (measured count, same size-aware tiering as the dedup pair verify)
_CC_STITCH_DRIVER_MAX = 2_000_000


def connected_components_ds(edges, buckets: int = 64, max_iters: int = 64):
    """Cluster-scale connected components: **two-level contraction**, not a
    per-edge-round fixpoint over the full graph.

    1. **Local contraction** — every edge block resolves its OWN components
       with the vectorized driver algorithm (``connected_components`` on the
       in-memory block): output is a (node, rep) mapping, O(nodes-in-block)
       rows.  No shuffle; this collapses intra-block structure (in practice
       almost all of it — near-dup groups are discovered together).
    2. **Stitch** — one ``groupby(hash(node))`` shuffle: a node holding
       different reps in different blocks proves those reps are connected,
       so the group emits (min_rep, other_rep) stitch edges plus the node's
       chosen (node, min_rep) mapping.  The stitch graph is the CONTRACTED
       graph: O(cross-block adjacency), typically orders of magnitude
       smaller than the input.
    3. **Resolve** — stitch edges ≤ ``_CC_STITCH_DRIVER_MAX`` (metadata
       count) solve on the driver and broadcast the rep→component map;
       larger stitch graphs run the bucketed ``_cc_rounds`` fixpoint and
       join labels back to the mapping by rep-hash bucket — fully
       distributed, no driver structure.

    Replaces the always-rounds design whose 3 shuffles × O(diameter) rounds
    dominated wall time (VERDICT r2: 70 s at sf0.01 → this path is 2
    executions for the common case).  Exact and deterministic: labels are
    component-minimum ids, pytest-equal to ``connected_components``.
    Returns pa.Table (id, component).
    """
    import pandas as pd

    import ray.data as rd

    if isinstance(edges, pa.Table):
        if edges.num_rows == 0:
            return pa.table({"id": pa.array([], type=pa.int64()),
                             "component": pa.array([], type=pa.int64())})
        edges = rd.from_arrow(edges)

    def bucket_of(arr: np.ndarray) -> np.ndarray:
        return ((arr.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
                % buckets).astype(np.int64)

    def local_cc(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return pa.table({"node": pa.array([], type=pa.int64()),
                             "rep": pa.array([], type=pa.int64()),
                             "__b": pa.array([], type=pa.int64())})
        comp = connected_components(tbl, max_iters=max_iters)
        node = comp["id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "node": comp["id"], "rep": comp["component"],
            "__b": pa.array(bucket_of(node)),
        })

    def stitch_group(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = (pdf.drop_duplicates(["node", "rep"])
               .sort_values(["node", "rep"], kind="mergesort"))
        r0 = pdf.groupby("node")["rep"].transform("min")
        mapping = pdf.drop_duplicates("node")[["node", "rep"]]
        extra = pdf[pdf["rep"].to_numpy() != r0.to_numpy()]
        return pd.DataFrame({
            "flag": np.concatenate([np.zeros(len(mapping), np.int8),
                                    np.ones(len(extra), np.int8)]),
            "a": np.concatenate([mapping["node"].to_numpy(dtype=np.int64),
                                 r0[extra.index].to_numpy(dtype=np.int64)]),
            "b": np.concatenate([mapping["rep"].to_numpy(dtype=np.int64),
                                 extra["rep"].to_numpy(dtype=np.int64)]),
        })

    parts = (edges.map_batches(local_cc, batch_format="pyarrow")
             .groupby("__b")
             .map_groups(stitch_group, batch_format="pandas")
             .materialize())

    def only_stitch(tbl: pa.Table) -> pa.Table:
        keep = pc.equal(tbl["flag"], 1)
        t = tbl.filter(keep)
        return pa.table({"id_lo": t["a"], "id_hi": t["b"]})

    def only_mapping(tbl: pa.Table) -> pa.Table:
        t = tbl.filter(pc.equal(tbl["flag"], 0))
        return pa.table({"node": t["a"], "rep": t["b"]})

    stitch = parts.map_batches(only_stitch,
                               batch_format="pyarrow").materialize()
    n_stitch = stitch.count()
    mapping = parts.map_batches(only_mapping, batch_format="pyarrow")

    if n_stitch == 0:
        out = pa.concat_tables(
            list(mapping.iter_batches(batch_format="pyarrow")))
        return pa.table({"id": out["node"],
                         "component": out["rep"]}).sort_by("id")

    if n_stitch <= _CC_STITCH_DRIVER_MAX:
        labels = connected_components(stitch, max_iters=max_iters)
        comp_map = dict(zip(labels["id"].to_pylist(),
                            labels["component"].to_pylist()))
        import ray
        map_ref = ray.put(comp_map)

        def relabel(tbl: pa.Table) -> pa.Table:
            m = ray.get(map_ref)
            rep = tbl["rep"].to_numpy(zero_copy_only=False)
            comp = np.array([m.get(int(r), int(r)) for r in rep],
                            dtype=np.int64)
            return pa.table({"id": tbl["node"], "component": pa.array(comp)})

        out = pa.concat_tables(list(
            mapping.map_batches(relabel, batch_format="pyarrow")
            .iter_batches(batch_format="pyarrow")))
        return out.sort_by("id")

    # huge stitch graph: distributed rounds on the CONTRACTED graph, then a
    # bucketed join of labels back onto the node→rep mapping
    labels = _cc_rounds(stitch, buckets=buckets, max_iters=max_iters)
    from .relational import hash_join

    lab_ds = rd.from_arrow(pa.table({"__rep": labels["id"],
                                     "__comp": labels["component"]}))
    joined = hash_join(mapping, lab_ds, ["rep"], ["__rep"], buckets=buckets,
                       how="left")

    def finish(tbl: pa.Table) -> pa.Table:
        comp = tbl["__comp"].to_numpy(zero_copy_only=False)
        rep = tbl["rep"].to_numpy(zero_copy_only=False)
        comp = np.where(np.isnan(comp.astype(np.float64)), rep, comp)
        return pa.table({"id": tbl["node"],
                         "component": pa.array(comp.astype(np.int64))})

    out = pa.concat_tables(list(
        joined.map_batches(finish, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow")))
    return out.sort_by("id")


def _cc_rounds(edges, buckets: int = 64, max_iters: int = 64):
    """Dataset-native min-label fixpoint — the cluster-scale `iterate` path
    for edge lists too large for one process.

    Per round, TWO bucketed shuffles (the cheap low-cardinality-key pattern,
    never a full-key-domain sort):
      1. co-locate labels with edges by hash(src) bucket and emit each
         edge's (dst, neighbor-label) candidates next to the label rows;
      2. co-locate candidates + labels by hash(node) bucket and take the
         per-node minimum, counting changes.
    The loop ends at changed == 0; raises after ``max_iters`` instead of
    returning wrong labels.  Returns pa.Table (id, component).

    ``connected_components`` (driver pandas + pointer doubling) remains the
    right tool for candidate-bounded inputs like verified dedup pairs; this
    variant trades per-round latency for unbounded edge-list size.
    """
    import pyarrow.compute as pc

    import ray.data as rd

    if isinstance(edges, pa.Table):
        if edges.num_rows == 0:
            return pa.table({"id": pa.array([], type=pa.int64()),
                             "component": pa.array([], type=pa.int64())})
        edges = rd.from_arrow(edges)

    def bucket_of(arr: np.ndarray) -> np.ndarray:
        return ((arr.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
                % buckets).astype(np.int64)

    def sym(tbl: pa.Table) -> pa.Table:
        lo = tbl["id_lo"].combine_chunks() if isinstance(
            tbl["id_lo"], pa.ChunkedArray) else tbl["id_lo"]
        hi = tbl["id_hi"].combine_chunks() if isinstance(
            tbl["id_hi"], pa.ChunkedArray) else tbl["id_hi"]
        src = pa.concat_arrays([lo, hi])
        dst = pa.concat_arrays([hi, lo])
        return pa.table({"src": src, "dst": dst})

    E = edges.map_batches(sym, batch_format="pyarrow").materialize()

    # initial labels: distinct node ids (bucketed dedupe), component = id
    def node_block(tbl: pa.Table) -> pa.Table:
        ids = pc.unique(tbl["src"])
        arr = ids.to_numpy(zero_copy_only=False)
        return pa.table({"id": ids, "__b": pa.array(bucket_of(arr))})

    def dedupe(pdf: pd.DataFrame) -> pd.DataFrame:
        out = pdf.drop_duplicates("id")[["id"]].copy()
        out["component"] = out["id"]
        return out

    L = (E.map_batches(node_block, batch_format="pyarrow")
         .groupby("__b").map_groups(dedupe, batch_format="pandas")
         .materialize())

    for _ in range(max_iters):
        # --- stage 1: labels ⋈ edges on src-bucket → neighbor candidates
        def tag_label(tbl: pa.Table) -> pa.Table:
            ids = tbl["id"].to_numpy(zero_copy_only=False)
            return pa.table({
                "key": tbl["id"], "dst": pa.nulls(len(tbl), pa.int64()),
                "comp": tbl["component"],
                "__b": pa.array(bucket_of(ids)),
            })

        def tag_edge(tbl: pa.Table) -> pa.Table:
            src = tbl["src"].to_numpy(zero_copy_only=False)
            return pa.table({
                "key": tbl["src"], "dst": tbl["dst"],
                "comp": pa.nulls(len(tbl), pa.int64()),
                "__b": pa.array(bucket_of(src)),
            })

        def propagate(pdf: pd.DataFrame) -> pd.DataFrame:
            labs = pdf[pdf["dst"].isna()][["key", "comp"]]
            eds = pdf[pdf["dst"].notna()][["key", "dst"]]
            j = eds.merge(labs, on="key")[["dst", "comp"]].rename(
                columns={"dst": "node"})
            mine = labs.rename(columns={"key": "node"})
            mine = mine.assign(own=1)  # carries the node's current label
            j = j.assign(own=0)
            return pd.concat([mine, j], ignore_index=True).astype(
                {"node": "int64", "comp": "int64", "own": "int64"})

        cand = (L.map_batches(tag_label, batch_format="pyarrow")
                .union(E.map_batches(tag_edge, batch_format="pyarrow"))
                .groupby("__b").map_groups(propagate, batch_format="pandas"))

        # --- stage 2: per-node min over {own label} ∪ {neighbor labels}
        def rebucket(tbl: pa.Table) -> pa.Table:
            nodes = tbl["node"].to_numpy(zero_copy_only=False)
            return tbl.append_column("__b2", pa.array(bucket_of(nodes)))

        def reduce_min(pdf: pd.DataFrame) -> pd.DataFrame:
            g = pdf.groupby("node")
            new = g["comp"].min()
            old = pdf[pdf["own"] == 1].set_index("node")["comp"]
            changed = int((new.loc[old.index] < old).sum())
            out = new.reset_index().rename(columns={"comp": "component",
                                                    "node": "id"})
            out["__changed"] = 0
            if len(out):
                out.loc[out.index[0], "__changed"] = changed
            return out

        L2 = (cand.map_batches(rebucket, batch_format="pyarrow")
              .groupby("__b2").map_groups(reduce_min, batch_format="pandas")
              .materialize())
        changed_total = sum(
            r["__changed"] for r in
            L2.select_columns(["__changed"]).take_all()
        )
        L = L2.drop_columns(["__changed"]).materialize()
        if changed_total == 0:
            out = pa.concat_tables(
                list(L.iter_batches(batch_format="pyarrow"))
            )
            return out.sort_by("id")

        # --- stage 3: pointer doubling (component ← label[component]) so
        # rounds stay O(log diameter) — one more bucketed shuffle
        def tag_lookup(tbl: pa.Table) -> pa.Table:
            ids = tbl["id"].to_numpy(zero_copy_only=False)
            return pa.table({
                "key": tbl["id"], "node": pa.nulls(len(tbl), pa.int64()),
                "comp": tbl["component"], "__b3": pa.array(bucket_of(ids)),
            })

        def tag_query(tbl: pa.Table) -> pa.Table:
            comps = tbl["component"].to_numpy(zero_copy_only=False)
            return pa.table({
                "key": tbl["component"], "node": tbl["id"],
                "comp": tbl["component"], "__b3": pa.array(bucket_of(comps)),
            })

        def shortcut(pdf: pd.DataFrame) -> pd.DataFrame:
            lookup = pdf[pdf["node"].isna()][["key", "comp"]].rename(
                columns={"comp": "__cc2"})
            q = pdf[pdf["node"].notna()][["node", "key", "comp"]]
            j = q.merge(lookup, on="key", how="left")
            comp = j["__cc2"].fillna(j["comp"])
            return pd.DataFrame({"id": j["node"].astype("int64"),
                                 "component": comp.astype("int64")})

        L = (L.map_batches(tag_lookup, batch_format="pyarrow")
             .union(L.map_batches(tag_query, batch_format="pyarrow"))
             .groupby("__b3").map_groups(shortcut, batch_format="pandas")
             .materialize())
    raise RuntimeError(
        f"connected_components_ds did not converge in {max_iters} rounds"
    )


def pagerank(edges, damping: float = 0.85, iters: int = 50) -> pa.Table:
    """Driver-side PageRank (vectorized numpy power iteration) for
    candidate-bounded graphs — the fast twin of ``pagerank_ds`` exactly as
    ``connected_components`` is to ``connected_components_ds``; identical
    update rule (uniform dangling redistribution), so the two agree to
    float tolerance at equal iteration counts."""
    if not isinstance(edges, pa.Table):
        edges = pa.concat_tables(list(edges.iter_batches(batch_format="pyarrow")))
    src = edges["id_lo"].to_numpy(zero_copy_only=False)
    dst = edges["id_hi"].to_numpy(zero_copy_only=False)
    ids = np.unique(np.concatenate([src, dst]))
    n = len(ids)
    if n == 0:
        return pa.table({"id": pa.array([], type=pa.int64()),
                         "rank": pa.array([], type=pa.float64())})
    si = np.searchsorted(ids, src)
    di = np.searchsorted(ids, dst)
    deg = np.zeros(n, dtype=np.int64)
    np.add.at(deg, si, 1)
    r = np.full(n, 1.0 / n)
    for _ in range(iters):
        dangling = float(r[deg == 0].sum())
        contrib = np.zeros(n)
        np.add.at(contrib, di, r[si] / deg[si])
        r = (1.0 - damping) / n + damping * dangling / n \
            + damping * contrib
    return pa.table({"id": pa.array(ids.astype(np.int64)),
                     "rank": pa.array(r)})


def pagerank_ds(edges, damping: float = 0.85, iters: int = 20,
                buckets: int = 32) -> pa.Table:
    """Distributed PageRank over a directed edge list (id_lo → id_hi) — the
    second ``iterate`` instance beside connected components.

    State rows (id, rank, deg) stay in blocks; each iteration is TWO
    bucketed shuffles (contribute by hash(src), re-sum by hash(dst)) plus
    one narrow scan for the global dangling mass.  Dangling nodes' mass
    redistributes uniformly (standard).  The driver holds one scalar per
    round.  Returns pa.Table (id, rank); ranks sum to 1 up to float merge
    noise (tolerance documented, bit equality across parallelism is NOT
    promised — summation order varies)."""
    import pandas as pd
    import pyarrow.compute as pc

    import ray.data as rd

    if isinstance(edges, pa.Table):
        edges = rd.from_arrow(edges)

    def bucket_of(arr: np.ndarray) -> np.ndarray:
        return ((arr.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
                % buckets).astype(np.int64)

    E = edges.map_batches(
        lambda t: pa.table({"src": t["id_lo"], "dst": t["id_hi"]}),
        batch_format="pyarrow").materialize()

    # node universe + out-degree, one bucketed pass each
    def nodes_block(tbl: pa.Table) -> pa.Table:
        cols = []
        for c in ("src", "dst"):
            a = tbl[c]
            cols.append(a.combine_chunks()
                        if isinstance(a, pa.ChunkedArray) else a)
        u = pc.unique(pa.concat_arrays(cols))
        return pa.table({"id": u, "__b": pa.array(
            bucket_of(u.to_numpy(zero_copy_only=False)))})

    def deg_block(tbl: pa.Table) -> pa.Table:
        src = tbl["src"].to_numpy(zero_copy_only=False)
        u, c = np.unique(src, return_counts=True)
        return pa.table({"id": pa.array(u),
                         "deg": pa.array(c.astype(np.int64)),
                         "__b": pa.array(bucket_of(u))})

    def node_state(pdf: pd.DataFrame) -> pd.DataFrame:
        out = (pdf.groupby("id", as_index=False)["deg"].sum()
               if "deg" in pdf else pdf.drop_duplicates("id")[["id"]])
        return out

    nodes = (E.map_batches(nodes_block, batch_format="pyarrow")
             .groupby("__b").map_groups(
                 lambda p: p.drop_duplicates("id")[["id"]],
                 batch_format="pandas").materialize())
    degs = (E.map_batches(deg_block, batch_format="pyarrow")
            .groupby("__b").map_groups(node_state, batch_format="pandas")
            .materialize())
    n = nodes.count()

    # initial state (id, rank, deg): left-join degrees onto the universe
    def with_deg(pdf: pd.DataFrame) -> pd.DataFrame:
        un = pdf[pdf["deg"].isna()][["id"]].drop_duplicates("id")
        dg = pdf[pdf["deg"].notna()][["id", "deg"]]
        st = un.merge(dg, on="id", how="left").fillna({"deg": 0})
        st["rank"] = 1.0 / n
        return st.astype({"id": "int64", "deg": "int64"})

    def tag_by_id(tbl: pa.Table, with_null_deg: bool) -> pa.Table:
        ids = tbl["id"].to_numpy(zero_copy_only=False)
        cols = {"id": tbl["id"],
                "deg": (pa.nulls(tbl.num_rows, pa.float64())
                        if with_null_deg
                        else pc.cast(tbl["deg"], pa.float64())),
                "__b": pa.array(bucket_of(ids))}
        return pa.table(cols)

    S = (nodes.map_batches(lambda t: tag_by_id(t, True),
                           batch_format="pyarrow")
         .union(degs.map_batches(lambda t: tag_by_id(t, False),
                                 batch_format="pyarrow"))
         .groupby("__b").map_groups(with_deg, batch_format="pandas")
         .materialize())

    def tag_edge(tbl: pa.Table) -> pa.Table:
        src = tbl["src"].to_numpy(zero_copy_only=False)
        return pa.table({"id": tbl["src"],
                         "dst": pc.cast(tbl["dst"], pa.float64()),
                         "rank": pa.nulls(tbl.num_rows, pa.float64()),
                         "deg": pa.nulls(tbl.num_rows, pa.float64()),
                         "__b": pa.array(bucket_of(src))})

    Et = E.map_batches(tag_edge, batch_format="pyarrow").materialize()

    for _ in range(iters):
        def tag_state(tbl: pa.Table) -> pa.Table:
            ids = tbl["id"].to_numpy(zero_copy_only=False)
            return pa.table({"id": tbl["id"],
                             "dst": pa.nulls(tbl.num_rows, pa.float64()),
                             "rank": pc.cast(tbl["rank"], pa.float64()),
                             "deg": pc.cast(tbl["deg"], pa.float64()),
                             "__b": pa.array(bucket_of(ids))})

        def contrib(pdf: pd.DataFrame) -> pd.DataFrame:
            st = pdf[pdf["rank"].notna()][["id", "rank", "deg"]]
            eds = pdf[pdf["dst"].notna()][["id", "dst"]]
            j = eds.merge(st, on="id")
            out = pd.DataFrame({
                "node": j["dst"].astype(np.int64),
                "c": (j["rank"] / j["deg"]).to_numpy(dtype=np.float64),
            })
            dang = float(st.loc[st["deg"] == 0, "rank"].sum())
            return pd.concat(
                [out, pd.DataFrame({"node": [-1], "c": [dang]})],
                ignore_index=True)

        C = (S.map_batches(tag_state, batch_format="pyarrow")
             .union(Et)
             .groupby("__b").map_groups(contrib, batch_format="pandas")
             .materialize())
        def only_dangling(tbl: pa.Table) -> pa.Table:
            import pyarrow.compute as _pc

            return tbl.filter(_pc.equal(tbl["node"], -1)).select(["c"])

        dangling = sum(
            r["c"] for r in
            C.map_batches(only_dangling, batch_format="pyarrow").take_all())
        base = (1.0 - damping) / n + damping * dangling / n

        def tag_contrib(tbl: pa.Table) -> pa.Table:
            import pyarrow.compute as _pc

            tbl = tbl.filter(_pc.not_equal(tbl["node"], -1))
            nodes_ = tbl["node"].to_numpy(zero_copy_only=False)
            return pa.table({"node": tbl["node"], "c": tbl["c"],
                             "__deg": pa.nulls(tbl.num_rows, pa.float64()),
                             "__b2": pa.array(bucket_of(nodes_))})

        def tag_old(tbl: pa.Table) -> pa.Table:
            ids = tbl["id"].to_numpy(zero_copy_only=False)
            return pa.table({"node": tbl["id"],
                             "c": pa.nulls(tbl.num_rows, pa.float64()),
                             "__deg": pc.cast(tbl["deg"], pa.float64()),
                             "__b2": pa.array(bucket_of(ids))})

        Cp = C.map_batches(tag_contrib, batch_format="pyarrow")

        def new_rank(pdf: pd.DataFrame) -> pd.DataFrame:
            st = pdf[pdf["__deg"].notna()][["node", "__deg"]]
            cs = pdf[pdf["c"].notna() & (pdf["node"] >= 0)]
            summed = cs.groupby("node", as_index=False)["c"].sum()
            out = st.merge(summed, on="node", how="left").fillna({"c": 0.0})
            return pd.DataFrame({
                "id": out["node"].astype(np.int64),
                "rank": base + damping * out["c"].to_numpy(),
                "deg": out["__deg"].astype(np.int64),
            })

        S = (S.map_batches(lambda t: tag_old(
                pa.table({"id": t["id"], "deg": t["deg"]})),
                batch_format="pyarrow")
             .union(Cp.map_batches(
                 lambda t: t.select(["node", "c", "__deg", "__b2"]),
                 batch_format="pyarrow"))
             .groupby("__b2").map_groups(new_rank, batch_format="pandas")
             .materialize())

    out = pa.concat_tables(list(
        S.map_batches(lambda t: t.select(["id", "rank"]),
                      batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow")))
    return out.sort_by("id")


def triangle_count(edges, u_col: str = "u", v_col: str = "v",
                   node_broadcast_limit: int = 5_000_000,
                   edge_broadcast_limit: int = 5_000_000) -> int:
    """Exact triangle count of an undirected simple graph (Dataset of
    DISTINCT edges, ``u < v``) — the degree-oriented node-iterator plan
    (Schank & Wagner 2005; the MapReduce formulation in Suri & Vassilvitskii
    2011 "Counting Triangles and the Curse of the Last Reducer"):

    1. degrees via one two-phase count;
    2. every edge oriented low→high under the total order (degree, node) —
       the orientation that bounds any node's OUT-degree by O(√m), which is
       exactly what kills the hub-wedge explosion a naive node-iterator
       suffers (the "curse of the last reducer");
    3. one ``groupby(src)`` emits each node's out-neighbour pairs (wedges,
       ordered under the same total order);
    4. wedges ⋈ oriented edges (partitioned semi-join) — each surviving
       wedge row IS one triangle, counted distributed, never collected.

    The degree map broadcasts when nodes ≤ ``node_broadcast_limit``
    (nodes ≪ edges on real graphs); past it, swap in the hash_join-by-node
    tier — the documented trade on every broadcast in this repo.
    """

    def deg_part(tbl: pa.Table) -> pa.Table:
        both = np.concatenate([
            tbl[u_col].to_numpy(zero_copy_only=False),
            tbl[v_col].to_numpy(zero_copy_only=False)])
        n, c = np.unique(both, return_counts=True)
        return pa.table({"node": pa.array(n),
                         "n": pa.array(c.astype(np.int64))})

    import ray

    # the edge plan feeds BOTH the degree pass and the orientation —
    # materialize once or any upstream dedup/shuffle executes twice
    edges = edges.materialize()
    deg_rows = (edges.map_batches(deg_part, batch_format="pyarrow")
                .groupby("node").sum("n").take_all())
    if len(deg_rows) > node_broadcast_limit:
        raise NotImplementedError(
            "degree map exceeds the broadcast tier — wire the "
            "hash_join-by-node orientation for this graph size")
    deg = {r["node"]: r["sum(n)"] for r in deg_rows}
    ref = ray.put(deg)

    def orient(tbl: pa.Table) -> pa.Table:
        d = ray.get(ref)
        u = tbl[u_col].to_numpy(zero_copy_only=False)
        v = tbl[v_col].to_numpy(zero_copy_only=False)
        du = np.fromiter((d[x] for x in u), dtype=np.int64, count=len(u))
        dv = np.fromiter((d[x] for x in v), dtype=np.int64, count=len(v))
        # src = smaller (deg, node) endpoint
        u_first = (du < dv) | ((du == dv) & (u < v))
        return pa.table({"src": pa.array(np.where(u_first, u, v)),
                         "dst": pa.array(np.where(u_first, v, u)),
                         "dd": pa.array(np.where(u_first, dv, du)),
                         })

    O = edges.map_batches(orient, batch_format="pyarrow").materialize()

    #: wedge generation is BUCKETED, not per-group map_groups: hashing src
    #: into ~4×CPU buckets turns 10⁴–10⁶ tiny per-node groups (each a Ray
    #:  dispatch + DataFrame build) into a few dozen vectorized bucket
    #: tasks — measured 2× on the sf0.1 gate graph.  Out-degree is
    #: O(√m) under the orientation, so per-bucket work stays bounded.
    n_buckets = 64

    def add_bucket(tbl: pa.Table) -> pa.Table:
        s = tbl["src"].to_numpy(zero_copy_only=False)
        return tbl.append_column(
            "__b", pa.array((s % n_buckets).astype(np.int64)))

    def _bucket_wedges(pdf: pd.DataFrame):
        """All oriented wedges of this bucket's sources (vectorized per
        source; yields (src_arr, b_arr, c_arr))."""
        order = np.lexsort((pdf["dst"].to_numpy(), pdf["dd"].to_numpy(),
                            pdf["src"].to_numpy()))
        s = pdf["src"].to_numpy()[order]
        d = pdf["dst"].to_numpy()[order]
        starts = np.concatenate([[0], np.flatnonzero(s[1:] != s[:-1]) + 1,
                                 [len(s)]])
        tri_cache: dict = {}
        outs, outb, outc = [], [], []
        for a, b in zip(starts[:-1], starts[1:]):
            k = b - a
            if k < 2:
                continue
            ij = tri_cache.get(k)
            if ij is None:
                ij = np.triu_indices(k, 1)
                tri_cache[k] = ij
            seg = d[a:b]
            outs.append(np.full(len(ij[0]), s[a]))
            outb.append(seg[ij[0]])
            outc.append(seg[ij[1]])
        if not outs:
            z = np.zeros(0, dtype=s.dtype)
            return z, z, z
        return (np.concatenate(outs), np.concatenate(outb),
                np.concatenate(outc))

    m = O.count()
    if m <= edge_broadcast_limit:
        # closure tier 1: the oriented edge set broadcasts once as a
        # sorted complex128 key array (exact for ids < 2⁵³); each bucket
        # counts its closed wedges in place — NO second exchange at all
        ek = np.sort(np.array(
            [complex(r["src"], r["dst"])
             for r in O.map_batches(
                 lambda t: t.select(["src", "dst"]),
                 batch_format="pyarrow").take_all()],
            dtype=np.complex128))
        ek_ref = ray.put(ek)

        def count_bucket(pdf: pd.DataFrame) -> pd.DataFrame:
            _, wb, wc = _bucket_wedges(pdf)
            if not len(wb):
                return pd.DataFrame({"t": [0]})
            keys = wb.astype(np.float64) + 1j * wc.astype(np.float64)
            e = ray.get(ek_ref)
            idx = np.searchsorted(e, keys)
            hit = (idx < len(e)) & (e[np.minimum(idx, len(e) - 1)] == keys)
            return pd.DataFrame({"t": [int(hit.sum())]})

        rows = (O.map_batches(add_bucket, batch_format="pyarrow")
                .groupby("__b").map_groups(count_bucket,
                                           batch_format="pandas")
                .take_all())
        return int(sum(r["t"] for r in rows))

    # closure tier 2: wedges ⋈ oriented edges, fully partitioned
    def wedges(pdf: pd.DataFrame) -> pd.DataFrame:
        _, wb, wc = _bucket_wedges(pdf)
        return pd.DataFrame({"src": wb, "dst": wc})

    W = (O.map_batches(add_bucket, batch_format="pyarrow")
         .groupby("__b").map_groups(wedges, batch_format="pandas"))

    from .relational import hash_join

    closed = hash_join(
        W, O.map_batches(lambda t: t.select(["src", "dst"])
                         .rename_columns(["es", "ed"]),
                         batch_format="pyarrow"),
        ["src", "dst"], ["es", "ed"], how="semi")
    return closed.count()


def pagerank_int_ds(edges, iters: int = 5, total: int = 10**12,
                    damp_num: int = 85, damp_den: int = 100,
                    buckets: int = 16):
    """Integer-exact distributed PageRank → Dataset ``(id, rank_micro)``.

    The float ``pagerank``/``pagerank_ds`` pair is rows-only at the gate
    because a distributed float sum has no defined order.  This variant
    makes the WHOLE power iteration order-independent by running it in
    int64 "rank units" (``total`` units of mass, damping as the rational
    ``damp_num/damp_den``), with every division a floor division:

        r0(v)      = total // n
        contrib(u) = (r(u) * damp_num) // (damp_den * deg(u))   per edge
        base       = ((damp_den - damp_num) * total) // (damp_den * n)
        dshare     = (damp_num * dangling) // (damp_den * n)
        r'(v)      = base + dshare + Σ_in contrib

    Integer sums commute, so the result is bit-equal across any block
    split AND bit-equal to a DuckDB twin applying the same ``//`` algebra
    (positive operands: trunc == floor on both sides).  Rounding loses
    < 1 unit of mass per edge per round — at total=1e12 a relative error
    ~1e-9, far inside float PageRank's own convergence tolerance.

    Scale: per round, ONE partitioned hash-join of the edge list against
    the rank state (both sharded by key bucket, nothing broadcast) and one
    narrow groupby-sum of pre-aggregable (id, c, deg) rows; the driver
    holds one scalar (the dangling mass) per round.  O(iters) rounds of
    O(E) exchange — the same exchange schedule as ``pagerank_ds``.
    """
    import ray.data as rd

    from .relational import hash_join

    if isinstance(edges, pa.Table):
        edges = rd.from_arrow(edges)

    E = edges.map_batches(
        lambda t: pa.table({"src": t["id_lo"], "dst": t["id_hi"]}),
        batch_format="pyarrow").materialize()

    # node universe with out-degree (deg=0 for pure sinks): block partials
    # (src,1)+(dst,0) pre-aggregated, one narrow groupby-sum
    def deg_partial(tbl: pa.Table) -> pa.Table:
        src = tbl["src"].to_numpy(zero_copy_only=False)
        dst = tbl["dst"].to_numpy(zero_copy_only=False)
        us, cs = np.unique(src, return_counts=True)
        ud = np.unique(dst)
        return pa.table({
            "id": pa.array(np.concatenate([us, ud])),
            "deg": pa.array(np.concatenate(
                [cs.astype(np.int64), np.zeros(len(ud), np.int64)]))})

    nodedeg = (E.map_batches(deg_partial, batch_format="pyarrow")
               .groupby("id").sum("deg")
               .map_batches(lambda t: t.rename_columns(["id", "deg"]),
                            batch_format="pyarrow").materialize())
    n = nodedeg.count()
    if n == 0:
        return rd.from_arrow(pa.table({"id": pa.array([], type=pa.int64()),
                                       "rank_micro": pa.array(
                                           [], type=pa.int64())}))
    r0 = total // n
    state = nodedeg.map_batches(
        lambda t: t.append_column(
            "r", pa.array(np.full(t.num_rows, r0, dtype=np.int64))),
        batch_format="pyarrow").materialize()

    base = ((damp_den - damp_num) * total) // (damp_den * n)

    for _ in range(iters):
        def dang_partial(tbl: pa.Table) -> pa.Table:
            deg = tbl["deg"].to_numpy(zero_copy_only=False)
            r = tbl["r"].to_numpy(zero_copy_only=False)
            return pa.table({"d": pa.array(
                [int(r[deg == 0].sum())], type=pa.int64())})

        dang = sum(row["d"] for row in state.map_batches(
            dang_partial, batch_format="pyarrow").take_all())
        dshare = (damp_num * dang) // (damp_den * n)

        j = hash_join(E, state, ["src"], ["id"], buckets=buckets)

        def contrib(tbl: pa.Table) -> pa.Table:
            r = tbl["r"].to_numpy(zero_copy_only=False)
            deg = tbl["deg"].to_numpy(zero_copy_only=False)
            return pa.table({
                "id": tbl["dst"],
                "c": pa.array((r * damp_num) // (damp_den * deg)),
                "deg": pa.array(np.zeros(tbl.num_rows, np.int64))})

        def zeros(tbl: pa.Table) -> pa.Table:
            return pa.table({"id": tbl["id"],
                             "c": pa.array(np.zeros(tbl.num_rows, np.int64)),
                             "deg": tbl["deg"]})

        summed = (j.map_batches(contrib, batch_format="pyarrow")
                  .union(state.map_batches(zeros, batch_format="pyarrow"))
                  .groupby("id").sum(["c", "deg"])
                  .map_batches(lambda t: t.rename_columns(
                      ["id", "c", "deg"]), batch_format="pyarrow"))

        b, d = base, dshare

        def finish(tbl: pa.Table, b=b, d=d) -> pa.Table:
            c = tbl["c"].to_numpy(zero_copy_only=False)
            return pa.table({"id": tbl["id"], "deg": tbl["deg"],
                             "r": pa.array(b + d + c)})

        state = summed.map_batches(finish,
                                   batch_format="pyarrow").materialize()

    return state.map_batches(
        lambda t: pa.table({"id": t["id"], "rank_micro": t["r"]}),
        batch_format="pyarrow")


#: Edge-count ceiling for the driver tier of integer PageRank — same
#: size-tiering contract as ``_CC_DRIVER_MAX_PAIRS``: below it a graph fits
#: one process comfortably (16 B/edge) and the numpy loop beats O(iters)
#: distributed rounds' fixed stage costs by ~100×; above it the Dataset
#: plan takes over with IDENTICAL integer arithmetic (pytest-equal).
PR_INT_DRIVER_MAX_EDGES = 2_000_000


def pagerank_int(edges, iters: int = 5, total: int = 10**12,
                 damp_num: int = 85, damp_den: int = 100) -> pa.Table:
    """Driver-tier twin of ``pagerank_int_ds`` — the same floor-division
    update rule in vectorized numpy, bit-equal by construction (integer
    ops have no summation-order freedom).  For candidate-bounded graphs
    only; the query layer switches on ``PR_INT_DRIVER_MAX_EDGES``."""
    if not isinstance(edges, pa.Table):
        edges = pa.concat_tables(list(edges.iter_batches(
            batch_format="pyarrow")))
    src = edges["id_lo"].to_numpy(zero_copy_only=False)
    dst = edges["id_hi"].to_numpy(zero_copy_only=False)
    ids = np.unique(np.concatenate([src, dst]))
    n = len(ids)
    if n == 0:
        return pa.table({"id": pa.array([], type=pa.int64()),
                         "rank_micro": pa.array([], type=pa.int64())})
    si = np.searchsorted(ids, src)
    di = np.searchsorted(ids, dst)
    deg = np.zeros(n, dtype=np.int64)
    np.add.at(deg, si, 1)
    r = np.full(n, total // n, dtype=np.int64)
    base = ((damp_den - damp_num) * total) // (damp_den * n)
    for _ in range(iters):
        dang = int(r[deg == 0].sum())
        dshare = (damp_num * dang) // (damp_den * n)
        acc = np.zeros(n, dtype=np.int64)
        np.add.at(acc, di, (r[si] * damp_num) // (damp_den * deg[si]))
        r = base + dshare + acc
    return pa.table({"id": pa.array(ids.astype(np.int64)),
                     "rank_micro": pa.array(r)})


#: Same size-tiering contract as PR_INT_DRIVER_MAX_EDGES.
HITS_DRIVER_MAX_EDGES = 2_000_000


def hits_int(edges, iters: int = 4, total: int = 10**12) -> pa.Table:
    """Integer-exact HITS (Kleinberg 1999) on a DIRECTED edge list →
    pa.Table ``(id, hub_units, auth_units)``.

    Hub/authority mutual recursion with L1 normalization to ``total``
    integer units via floor division each half-step — every operation is
    integer, so (like ``pagerank_int``) the result has NO summation-order
    freedom: bit-equal across the driver tier, the distributed tier, and
    the unrolled SQL twin.  The normalization product ``a_i · total``
    runs in Python big ints (object dtype) — numpy int64 would overflow
    at ~9e6 in-degree; DuckDB mirrors it in HUGEINT.

    Both scores start at ``total // n``; a node with no in-edges has
    authority 0 after normalization input (and symmetric for hubs)."""
    if not isinstance(edges, pa.Table):
        edges = pa.concat_tables(list(edges.iter_batches(
            batch_format="pyarrow")))
    src = edges["src"].to_numpy(zero_copy_only=False)
    dst = edges["dst"].to_numpy(zero_copy_only=False)
    ids = np.unique(np.concatenate([src, dst]))
    n = len(ids)
    if n == 0:
        return pa.table({"id": pa.array([], type=pa.int64()),
                         "hub_units": pa.array([], type=pa.int64()),
                         "auth_units": pa.array([], type=pa.int64())})
    si = np.searchsorted(ids, src)
    di = np.searchsorted(ids, dst)
    h = np.full(n, total // n, dtype=np.int64)
    a = np.full(n, total // n, dtype=np.int64)

    def l1_norm(x: np.ndarray) -> np.ndarray:
        s = int(x.sum())
        if s == 0:
            raise ValueError("HITS normalization over an all-zero vector")
        return np.array([(int(v) * total) // s for v in x],
                        dtype=np.int64)

    for _ in range(iters):
        acc = np.zeros(n, dtype=np.int64)
        np.add.at(acc, di, h[si])
        a = l1_norm(acc)
        acc = np.zeros(n, dtype=np.int64)
        np.add.at(acc, si, a[di])
        h = l1_norm(acc)
    return pa.table({"id": pa.array(ids.astype(np.int64)),
                     "hub_units": pa.array(h),
                     "auth_units": pa.array(a)})


def hits_int_ds(edges, iters: int = 4, total: int = 10**12,
                buckets: int = 16) -> pa.Table:
    """Distributed twin of :func:`hits_int`: per half-step ONE partitioned
    hash-join (edge list ⋈ score table by src or dst) and ONE narrow
    pre-aggregated groupby-sum; the L1 total is a scalar to the driver
    and the big-int normalization runs block-local on object dtype.
    Bit-equal to the driver tier (pytest) — integer ops commute."""
    import ray.data as rd

    from .relational import hash_join

    if isinstance(edges, pa.Table):
        edges = rd.from_arrow(edges)
    edges = edges.materialize()

    def node_part(tbl: pa.Table) -> pa.Table:
        u = np.unique(np.concatenate([
            tbl["src"].to_numpy(zero_copy_only=False),
            tbl["dst"].to_numpy(zero_copy_only=False)]))
        return pa.table({"id": pa.array(u.astype(np.int64))})

    nodes = (edges.map_batches(node_part, batch_format="pyarrow")
             .groupby("id").count()
             .map_batches(lambda t: t.select(["id"]),
                          batch_format="pyarrow").materialize())
    n = nodes.count()
    init = total // n

    def mk_scores(ds, col: str):
        return ds.map_batches(
            lambda t: pa.table({
                "nid": t["id"],
                col: pa.array(np.full(t.num_rows, init, dtype=np.int64)),
            }), batch_format="pyarrow").materialize()

    def push(score_ds, score_col: str, join_on: str, group_on: str):
        """Σ score over edges joined on ``join_on``, grouped by the other
        endpoint; returns (Dataset (nid, raw), total_scalar)."""
        j = hash_join(edges, score_ds, [join_on], ["nid"],
                      buckets=buckets)

        def pre(tbl: pa.Table) -> pa.Table:
            pdf = pd.DataFrame({
                "g": tbl[group_on].to_numpy(zero_copy_only=False),
                "s": tbl[score_col].to_numpy(zero_copy_only=False)})
            out = pdf.groupby("g", as_index=False)["s"].sum()
            return pa.Table.from_pandas(out, preserve_index=False)

        raw = (j.map_batches(pre, batch_format="pyarrow")
               .groupby("g").sum("s")
               .map_batches(lambda t: t.rename_columns(["nid", "raw"]),
                            batch_format="pyarrow").materialize())
        def tot_part(tbl: pa.Table) -> pa.Table:
            # empty sort partitions surface as zero-column blocks
            s = (int(tbl["raw"].to_numpy(zero_copy_only=False).sum())
                 if "raw" in tbl.column_names else 0)
            return pa.table({"t": pa.array([s], type=pa.int64())})

        tot = sum(int(r["t"]) for r in raw.map_batches(
            tot_part, batch_format="pyarrow").take_all())
        return raw, tot

    def normalize(raw, tot: int, col: str):
        """Zero-score nodes are simply ABSENT here — a 0 row contributes
        nothing to the next push's join+sum, so dropping it is exact;
        zeros materialize only in the final output assembly."""
        if tot == 0:
            raise ValueError("HITS normalization over an all-zero vector")

        def norm(tbl: pa.Table) -> pa.Table:
            if "raw" not in tbl.column_names:  # zero-column empty block
                return pa.table({"nid": pa.array([], type=pa.int64()),
                                 col: pa.array([], type=pa.int64())})
            v = tbl["raw"].to_numpy(zero_copy_only=False)
            out = np.array([(int(x) * total) // tot for x in v],
                           dtype=np.int64)
            return pa.table({"nid": pc.cast(tbl["nid"], pa.int64()),
                             col: pa.array(out)})

        return raw.map_batches(norm, batch_format="pyarrow").materialize()

    H = mk_scores(nodes, "h")
    A = None
    for _ in range(iters):
        raw_a, ta = push(H, "h", "src", "dst")
        A = normalize(raw_a, ta, "a")
        raw_h, th = push(A, "a", "dst", "src")
        H = normalize(raw_h, th, "h")

    # final assembly: every node appears, absent scores are exact zeros
    out = (hash_join(
        hash_join(nodes,
                  H.map_batches(lambda t: t.rename_columns(["hid", "h"]),
                                batch_format="pyarrow"),
                  ["id"], ["hid"], buckets=buckets, how="left"),
        A.map_batches(lambda t: t.rename_columns(["aid", "a"]),
                      batch_format="pyarrow"),
        ["id"], ["aid"], buckets=buckets, how="left")
        .to_pandas())
    out = pd.DataFrame({
        "id": out["id"].astype(np.int64),
        "hub_units": out["h"].fillna(0).astype(np.int64),
        "auth_units": out["a"].fillna(0).astype(np.int64),
    }).sort_values("id").reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


def local_triangle_counts(edges, u_col: str = "u", v_col: str = "v",
                          node_broadcast_limit: int = 5_000_000,
                          edge_broadcast_limit: int = 5_000_000
                          ) -> pd.DataFrame:
    """Per-node triangle counts of an undirected simple graph (Dataset
    of DISTINCT ``u < v`` edges) — `triangle_count`'s degree-oriented
    node-iterator plan, but each closed wedge credits ALL THREE of its
    corners instead of folding to one scalar: per-bucket closures emit
    (node, +1) partials for (src, b, c), pre-reduced in the bucket via
    ``np.unique`` before the O(nodes)-bounded final fold.  Same two
    closure tiers as `triangle_count` (broadcast sorted complex keys ≤
    ``edge_broadcast_limit``; partitioned wedge⋈edge semi-join above —
    the wedge keeps its corner column through the join, so the credit
    explode costs nothing extra).  Returns a pandas frame
    (node, triangles) over nodes in ≥1 triangle."""
    import ray

    edges = edges.materialize()

    def deg_part(tbl: pa.Table) -> pa.Table:
        both = np.concatenate([
            tbl[u_col].to_numpy(zero_copy_only=False),
            tbl[v_col].to_numpy(zero_copy_only=False)])
        n, c = np.unique(both, return_counts=True)
        return pa.table({"node": pa.array(n),
                         "n": pa.array(c.astype(np.int64))})

    deg_rows = (edges.map_batches(deg_part, batch_format="pyarrow")
                .groupby("node").sum("n").take_all())
    if len(deg_rows) > node_broadcast_limit:
        raise NotImplementedError(
            "degree map exceeds the broadcast tier — wire the "
            "hash_join-by-node orientation for this graph size")
    deg = {r["node"]: r["sum(n)"] for r in deg_rows}
    ref = ray.put(deg)

    def orient(tbl: pa.Table) -> pa.Table:
        d = ray.get(ref)
        u = tbl[u_col].to_numpy(zero_copy_only=False)
        v = tbl[v_col].to_numpy(zero_copy_only=False)
        du = np.fromiter((d[x] for x in u), dtype=np.int64, count=len(u))
        dv = np.fromiter((d[x] for x in v), dtype=np.int64, count=len(v))
        u_first = (du < dv) | ((du == dv) & (u < v))
        return pa.table({"src": pa.array(np.where(u_first, u, v)),
                         "dst": pa.array(np.where(u_first, v, u)),
                         "dd": pa.array(np.where(u_first, dv, du))})

    O = edges.map_batches(orient, batch_format="pyarrow").materialize()
    n_buckets = 64

    def add_bucket(tbl: pa.Table) -> pa.Table:
        s = tbl["src"].to_numpy(zero_copy_only=False)
        return tbl.append_column(
            "__b", pa.array((s % n_buckets).astype(np.int64)))

    def _bucket_wedges(pdf: pd.DataFrame):
        order = np.lexsort((pdf["dst"].to_numpy(), pdf["dd"].to_numpy(),
                            pdf["src"].to_numpy()))
        s = pdf["src"].to_numpy()[order]
        d = pdf["dst"].to_numpy()[order]
        starts = np.concatenate([[0], np.flatnonzero(s[1:] != s[:-1]) + 1,
                                 [len(s)]])
        tri_cache: dict = {}
        outs, outb, outc = [], [], []
        for a, b in zip(starts[:-1], starts[1:]):
            k = b - a
            if k < 2:
                continue
            ij = tri_cache.get(k)
            if ij is None:
                ij = np.triu_indices(k, 1)
                tri_cache[k] = ij
            seg = d[a:b]
            outs.append(np.full(len(ij[0]), s[a]))
            outb.append(seg[ij[0]])
            outc.append(seg[ij[1]])
        if not outs:
            z = np.zeros(0, dtype=s.dtype)
            return z, z, z
        return (np.concatenate(outs), np.concatenate(outb),
                np.concatenate(outc))

    def _credit(nodes: np.ndarray) -> pd.DataFrame:
        n, c = np.unique(nodes, return_counts=True)
        return pd.DataFrame({"node": n, "t": c.astype(np.int64)})

    m = O.count()
    if m <= edge_broadcast_limit:
        ek = np.sort(np.array(
            [complex(r["src"], r["dst"])
             for r in O.map_batches(
                 lambda t: t.select(["src", "dst"]),
                 batch_format="pyarrow").take_all()],
            dtype=np.complex128))
        ek_ref = ray.put(ek)

        def credit_bucket(pdf: pd.DataFrame) -> pd.DataFrame:
            ws, wb, wc = _bucket_wedges(pdf)
            if not len(wb):
                return pd.DataFrame({"node": np.zeros(0, np.int64),
                                     "t": np.zeros(0, np.int64)})
            keys = wb.astype(np.float64) + 1j * wc.astype(np.float64)
            e = ray.get(ek_ref)
            idx = np.searchsorted(e, keys)
            hit = (idx < len(e)) & (e[np.minimum(idx, len(e) - 1)] == keys)
            return _credit(np.concatenate([ws[hit], wb[hit], wc[hit]]))

        parts = (O.map_batches(add_bucket, batch_format="pyarrow")
                 .groupby("__b").map_groups(credit_bucket,
                                            batch_format="pandas")
                 .to_pandas())
    else:
        def wedges(pdf: pd.DataFrame) -> pd.DataFrame:
            ws, wb, wc = _bucket_wedges(pdf)
            return pd.DataFrame({"corner": ws, "src": wb, "dst": wc})

        W = (O.map_batches(add_bucket, batch_format="pyarrow")
             .groupby("__b").map_groups(wedges, batch_format="pandas"))
        from .relational import hash_join

        closed = hash_join(
            W, O.map_batches(lambda t: t.select(["src", "dst"])
                             .rename_columns(["es", "ed"]),
                             batch_format="pyarrow"),
            ["src", "dst"], ["es", "ed"], how="semi")
        parts = (closed.map_batches(
            lambda p: _credit(np.concatenate([
                p["corner"].to_numpy(), p["src"].to_numpy(),
                p["dst"].to_numpy()])), batch_format="pandas")
            .to_pandas())
    if parts.empty or "node" not in parts.columns:
        # a triangle-free graph: every bucket emitted zero credit rows
        # and the concatenated frame may carry no schema at all
        return pd.DataFrame({"node": pd.Series(dtype=np.int64),
                             "triangles": pd.Series(dtype=np.int64)})
    out = parts.groupby("node", as_index=False)["t"].sum()
    return out.rename(columns={"t": "triangles"})
