"""Distributed multivariate moments → PCA and OLS (normal equations).

The reference fits per-column univariate statistics with an invertible
Chan-merge variance accumulator (src/feature_encoders/standard_scaler.rs:35-48);
this module is the d-dimensional generalisation: ONE ``map_batches`` pass
emits per-block (n, mean vector, comoment matrix) partials — d(d+3)/2+1
floats per block, never rows — merged on the driver with the pairwise Chan
update, so the covariance is exact-order-stable (no catastrophic
cancellation from raw Σxᵢxⱼ sums) and the only data movement is the tiny
partials.  At 100 TB the driver merge is O(blocks · d²) with d ≤ a few
hundred; there is NO shuffle.

From the merged moments:
  * ``pca_fit``    — eigh of the d×d covariance on the driver (d is small by
    construction; the data never moves), deterministic sign convention.
  * ``linreg_fit`` — multivariate OLS via the centered normal equations
    β = C⁻¹ₓₓ Cₓᵧ, numerically the textbook two-pass algorithm but done in
    one distributed pass thanks to the Chan merge.
  * ``pca_transform`` — stateless broadcast projection pass.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from ..functions.vectors import list_array_from_2d, list_column_to_2d

__all__ = [
    "Moments", "column_moments", "vector_moments",
    "pca_fit", "pca_transform", "linreg_fit",
    "logreg_fit", "logreg_predict",
]


class Moments:
    """n, mean (d,), M2 (d,d) centered comoment matrix (Σ(x−μ)(x−μ)ᵀ)."""

    __slots__ = ("n", "mean", "m2")

    def __init__(self, n: int, mean: np.ndarray, m2: np.ndarray):
        self.n = int(n)
        self.mean = np.asarray(mean, dtype=np.float64)
        self.m2 = np.asarray(m2, dtype=np.float64)

    @classmethod
    def from_matrix(cls, mat: np.ndarray) -> "Moments":
        mat = np.asarray(mat, dtype=np.float64)
        n = mat.shape[0]
        mean = mat.mean(axis=0) if n else np.zeros(mat.shape[1])
        c = mat - mean
        return cls(n, mean, c.T @ c)

    def merge(self, other: "Moments") -> "Moments":
        """Chan's pairwise update — exact regardless of split sizes."""
        if other.n == 0:
            return self
        if self.n == 0:
            return other
        n = self.n + other.n
        delta = other.mean - self.mean
        mean = self.mean + delta * (other.n / n)
        m2 = self.m2 + other.m2 + np.outer(delta, delta) * (
            self.n * other.n / n)
        return Moments(n, mean, m2)

    def cov(self, ddof: int = 0) -> np.ndarray:
        return self.m2 / max(self.n - ddof, 1)


def _merge_partial_rows(rows) -> Moments:
    """Merge per-block partial rows deterministically (sorted by (n, mean))
    so the float result is identical across schedulings."""
    parts = []
    for r in rows:
        mean = np.asarray(r["mean"], dtype=np.float64)
        d = len(mean)
        parts.append(Moments(int(r["n"]), mean,
                             np.asarray(r["m2"],
                                        dtype=np.float64).reshape(d, d)))
    parts.sort(key=lambda m: (m.n, tuple(m.mean)))
    acc = Moments(0, np.zeros(d), np.zeros((d, d)))
    for p in parts:
        acc = acc.merge(p)
    return acc


def _moments_from(ds, to_matrix) -> Moments:
    def partial(tbl: pa.Table) -> pa.Table:
        m = Moments.from_matrix(to_matrix(tbl))
        return pa.table({
            "n": pa.array([m.n], type=pa.int64()),
            "mean": list_array_from_2d(m.mean[None, :]),
            "m2": list_array_from_2d(m.m2.reshape(1, -1)),
        })

    rows = ds.map_batches(partial, batch_format="pyarrow").take_all()
    return _merge_partial_rows(rows)


def column_moments(ds, cols: list[str]) -> Moments:
    """Joint moments of d scalar columns in one no-shuffle pass."""
    def to_matrix(tbl: pa.Table) -> np.ndarray:
        return np.column_stack([
            tbl[c].to_numpy(zero_copy_only=False).astype(np.float64)
            for c in cols])
    return _moments_from(ds, to_matrix)


def vector_moments(ds, emb_col: str) -> Moments:
    """Joint moments of a fixed-width list<float> column (width inferred)."""
    return _moments_from(ds, lambda tbl: list_column_to_2d(tbl[emb_col]))


def pca_fit(moments: Moments, n_components: int | None = None) -> dict:
    """PCA from the covariance eigendecomposition (population covariance,
    matching sklearn's ddof=1 only in ratio terms — we expose both).

    Sign convention: each component's largest-|.| coordinate is positive, so
    the fit is deterministic (eigh sign is otherwise arbitrary)."""
    cov = moments.cov(ddof=1) if moments.n > 1 else moments.cov()
    vals, vecs = np.linalg.eigh(cov)          # ascending
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    comps = vecs.T                            # (d, d) rows = components
    flip = np.sign(comps[np.arange(len(comps)),
                         np.abs(comps).argmax(axis=1)])
    flip[flip == 0] = 1.0
    comps = comps * flip[:, None]
    k = n_components or len(vals)
    total = float(vals.sum()) or 1.0
    return {
        "mean": moments.mean,
        "components": comps[:k],
        "explained_variance": vals[:k],
        "explained_variance_ratio": vals[:k] / total,
        "n": moments.n,
    }


def pca_transform(ds, model: dict, emb_col: str = "embedding",
                  out: str = "pc"):
    """Stateless projection pass: (x − mean) @ componentsᵀ per block; the
    model (k×d) is broadcast once via ``ray.put``."""
    ref = ray.put((np.asarray(model["mean"]),
                   np.asarray(model["components"])))

    def project(tbl: pa.Table) -> pa.Table:
        mean, comps = ray.get(ref)
        mat = list_column_to_2d(tbl[emb_col])
        proj = (mat - mean) @ comps.T
        return tbl.append_column(out, list_array_from_2d(proj))

    return ds.map_batches(project, batch_format="pyarrow")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # numerically safe logistic (no overflow for |z| large)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logreg_fit(ds, emb_col: str, label_fn, max_iters: int = 25,
               tol: float = 1e-8, ridge: float = 1e-6) -> dict:
    """Binary logistic regression by distributed IRLS (Newton).

    Per iteration: broadcast β once (``ray.put``), ONE ``map_batches`` pass
    emits per-block partials — gradient Xᵀ(y−p) ((d+1,) incl. intercept),
    Hessian XᵀWX ((d+1)², W = p(1−p)), log-loss and correct-count scalars —
    merged on the driver in deterministic sorted order, then one (d+1)×(d+1)
    ridge-damped solve.  Data never moves; per-block uplink is O(d²) floats.
    Same no-shuffle shape as ``kmeans_fit`` (stages/clustering.py).

    ``label_fn(tbl) -> float64 {0,1} array`` derives the target from the
    block, so the label can be a threshold over any column.  Converges when
    ‖Δβ‖∞ < ``tol``."""
    # probe width with a 1-row sample (schema-only; no full read)
    first = ds.take(1)[0]
    d = len(np.asarray(first[emb_col])) + 1
    beta = np.zeros(d)
    loss = float("inf")
    n_total = 0
    acc = 0.0
    iters_run = 0
    for it in range(max_iters):
        ref = ray.put(beta)

        def partial(tbl: pa.Table) -> pa.Table:
            b = ray.get(ref)
            x = list_column_to_2d(tbl[emb_col])
            X = np.column_stack([x, np.ones(len(x))])
            y = np.asarray(label_fn(tbl), dtype=np.float64)
            p = _sigmoid(X @ b)
            g = X.T @ (y - p)
            w = p * (1.0 - p)
            H = (X * w[:, None]).T @ X
            eps = 1e-12
            ll = float(-(y * np.log(p + eps)
                         + (1 - y) * np.log(1 - p + eps)).sum())
            correct = float(((p >= 0.5) == (y >= 0.5)).sum())
            flat = np.concatenate([g, H.reshape(-1),
                                   [ll, correct, float(len(x))]])
            return pa.table({"part": list_array_from_2d(flat[None, :])})

        rows = [np.asarray(r["part"], dtype=np.float64)
                for r in ds.map_batches(partial,
                                        batch_format="pyarrow").take_all()]
        rows.sort(key=lambda a: (a[-1], a[0]))   # deterministic merge order
        tot = np.zeros(d + d * d + 3)
        for r in rows:
            tot += r
        g = tot[:d]
        H = tot[d:d + d * d].reshape(d, d)
        loss = float(tot[-3])
        n_total = int(tot[-1])
        acc = float(tot[-2]) / max(n_total, 1)
        step = np.linalg.solve(H + ridge * np.eye(d), g)
        beta = beta + step
        iters_run = it + 1
        if float(np.abs(step).max()) < tol:
            break
    return {"coef": beta[:-1], "intercept": float(beta[-1]),
            "log_loss": loss / max(n_total, 1), "train_accuracy": acc,
            "iters": iters_run, "n": n_total}


def logreg_predict(ds, model: dict, emb_col: str = "embedding",
                   out: str = "score"):
    """Stateless scoring pass: σ(x·β + b) per row, model broadcast once."""
    ref = ray.put((np.asarray(model["coef"]), float(model["intercept"])))

    def score(tbl: pa.Table) -> pa.Table:
        coef, b = ray.get(ref)
        x = list_column_to_2d(tbl[emb_col])
        return tbl.append_column(out, pa.array(_sigmoid(x @ coef + b)))

    return ds.map_batches(score, batch_format="pyarrow")


def linreg_fit(moments: Moments, x_idx: list[int], y_idx: int) -> dict:
    """OLS on the centered normal equations: β = Cₓₓ⁻¹ Cₓᵧ,
    intercept = μ_y − β·μ_x, R² = β·Cₓᵧ / C_yy.  Exact same estimator as
    lstsq-with-intercept but computed from the one-pass moments."""
    c = moments.cov()
    xi = np.asarray(x_idx)
    cxx = c[np.ix_(xi, xi)]
    cxy = c[xi, y_idx]
    cyy = float(c[y_idx, y_idx])
    beta = np.linalg.solve(cxx, cxy)
    intercept = float(moments.mean[y_idx] - beta @ moments.mean[xi])
    r2 = float(beta @ cxy / cyy) if cyy > 0 else 0.0
    return {"coef": beta, "intercept": intercept, "r2": r2, "n": moments.n}


# --------------------------------------------------------------------- ALS
def _als_init_factors(ids: np.ndarray, k: int, tag: str) -> np.ndarray:
    """Deterministic per-id factor init in [−0.05, 0.05): derived from the
    stable 60-bit hash of ``f"{tag}:{id}:{dim}"`` so it is identical at
    any partitioning (no RNG state to coordinate)."""
    from ..functions.hashing import stable_hash60

    out = np.empty((len(ids), k), dtype=np.float64)
    for i, v in enumerate(ids):
        for j in range(k):
            h = stable_hash60(f"{tag}:{v}:{j}") % 1_000_000
            out[i, j] = (h / 1_000_000 - 0.5) * 0.1
    return out


#: users+items ceiling for the ALS broadcast tier: under it both factor
#: tables are one ``ray.put`` and each half-step is ONE groupby; above it
#: nothing factor-shaped touches the driver and the join-exchange plan runs.
ALS_BROADCAST_MAX = 500_000


def als_factorize(ratings, user_col: str = "user", item_col: str = "item",
                  rating_col: str = "rating", k: int = 8, rounds: int = 3,
                  lam: float = 0.1, buckets: int = 16,
                  broadcast_max: int = ALS_BROADCAST_MAX):
    """Distributed ALS matrix factorization (explicit feedback, ridge λ).

    Half-steps:  V ← per-item ridge solve over (ratings + user factors);
    U ← symmetric.  Factors ride as flat float columns (f0..f{k−1}),
    never Python objects.  Solves run BUCKETED and BATCHED: ids hash
    into ~n_buckets groups, and one task per bucket accumulates every
    id's normal equations with ``np.add.at`` over rows sorted by
    (id, joined-id, rating) and solves them all with ONE stacked
    ``np.linalg.solve((G,k,k),(G,k))`` — never one Ray dispatch per id
    (10⁹ users would mean 10⁹ dispatches), and bit-identical at any
    partitioning or plan tier because the accumulation order is the
    sorted row order in both.  Init is hash-derived per id: no RNG
    state, no driver id list.

    Two plans on the measured id-space size (pytest-equal bit-for-bit):

    - ``users+items ≤ broadcast_max``: both factor tables are one
      ``ray.put``; each half-step is a single bucket ``groupby`` whose
      tasks merge the broadcast table in-block — 2 shuffles/round.
    - above: NOTHING factor-shaped touches the driver — each half-step
      is a partitioned ``hash_join`` (ratings ⋈ factors) + the bucket
      groupby solve; with 10⁹ users / 10⁸ items both tables stay
      sharded Datasets end-to-end.

    Returns ``(U, V, rmse)``: pandas factor tables (bounded output by
    caller's id-space contract) and the final training RMSE (float
    partials — reported, not part of the exactness contract)."""
    import pandas as pd

    from .relational import hash_join

    fcols = [f"f{j}" for j in range(k)]
    n_buckets = 64
    ratings = ratings.materialize()

    def _add_bucket(col: str):
        def add(tbl: pa.Table) -> pa.Table:
            key = tbl[col].to_numpy(zero_copy_only=False)
            b = (pd.util.hash_pandas_object(pd.Series(key), index=False)
                 .to_numpy() % np.uint64(n_buckets)).astype(np.int64)
            return tbl.append_column("__b", pa.array(b))
        return add

    def init_groups(col: str, tag: str, out_id: str):
        def init_bucket(pdf: pd.DataFrame) -> pd.DataFrame:
            ids = np.unique(pdf[col].to_numpy())
            mat = _als_init_factors(ids, k, tag)
            out = {out_id: ids}
            for j, c in enumerate(fcols):
                out[c] = mat[:, j]
            return pd.DataFrame(out)

        return (ratings.map_batches(_add_bucket(col),
                                    batch_format="pyarrow")
                .groupby("__b")
                .map_groups(init_bucket, batch_format="pandas")
                .materialize())

    def solve_bucket_pdf(pdf: pd.DataFrame, group_col: str, join_id: str,
                         out_id: str) -> pd.DataFrame:
        """ALL of one bucket's ids solved in one stacked call.  Rows sort
        by (id, joined-id, rating) so accumulation order — and therefore
        every float — is identical across tiers and partitionings."""
        pdf = pdf.sort_values([group_col, join_id, rating_col],
                              kind="mergesort")
        g = pdf[group_col].to_numpy()
        uniq, gidx = np.unique(g, return_inverse=True)
        X = pdf[fcols].to_numpy(dtype=np.float64)
        r = pdf[rating_col].to_numpy(dtype=np.float64)
        G = len(uniq)
        A = np.zeros((G, k, k))
        np.add.at(A, gidx, X[:, :, None] * X[:, None, :])
        A += lam * np.eye(k)[None, :, :]
        b = np.zeros((G, k))
        np.add.at(b, gidx, X * r[:, None])
        sol = np.linalg.solve(A, b[:, :, None])[:, :, 0]
        out = {out_id: uniq}
        for j, c in enumerate(fcols):
            out[c] = sol[:, j]
        return pd.DataFrame(out)

    U = init_groups(user_col, "u", "uid")
    n_users = U.count()
    n_items = (ratings.groupby(item_col).count()).count()

    if n_users + n_items <= broadcast_max:
        import ray

        U_df = (U.to_pandas().sort_values("uid")
                .reset_index(drop=True))

        def half_step(fac_df: pd.DataFrame, fac_id: str, group_col: str,
                      join_col: str, out_id: str) -> pd.DataFrame:
            ref = ray.put(fac_df)

            def solve_g(pdf: pd.DataFrame) -> pd.DataFrame:
                fac = ray.get(ref)
                m = pdf[[group_col, join_col, rating_col]].merge(
                    fac, left_on=join_col, right_on=fac_id)
                return solve_bucket_pdf(m, group_col, join_col, out_id)

            out = (ratings.map_batches(_add_bucket(group_col),
                                       batch_format="pyarrow")
                   .groupby("__b")
                   .map_groups(solve_g, batch_format="pandas")
                   .to_pandas())
            return out.sort_values(out_id).reset_index(drop=True)

        V_df = None
        for _ in range(rounds):
            V_df = half_step(U_df, "uid", item_col, user_col, "iid")
            U_df = half_step(V_df, "iid", user_col, item_col, "uid")

        u_ref = ray.put((U_df, V_df))

        def rmse_block(tbl: pa.Table) -> pa.Table:
            u_d, v_d = ray.get(u_ref)
            pdf = tbl.to_pandas()
            m = (pdf.merge(u_d, left_on=user_col, right_on="uid")
                 .merge(v_d, left_on=item_col, right_on="iid",
                        suffixes=("_u", "_v")))
            pred = np.zeros(len(m))
            for c in fcols:
                pred += (m[f"{c}_u"].to_numpy(dtype=np.float64)
                         * m[f"{c}_v"].to_numpy(dtype=np.float64))
            err = m[rating_col].to_numpy(dtype=np.float64) - pred
            return pa.table({"n": pa.array([len(m)], type=pa.int64()),
                             "sse": pa.array([float(err @ err)])})

        n_tot, sse = 0, 0.0
        for row in ratings.map_batches(rmse_block,
                                       batch_format="pyarrow").take_all():
            n_tot += int(row["n"])
            sse += float(row["sse"])
        rmse = float(np.sqrt(sse / n_tot)) if n_tot else float("nan")
        return (U_df.rename(columns={"uid": user_col}),
                V_df.rename(columns={"iid": item_col}), rmse)

    def solve_groups(attached, group_col: str, join_id: str, out_id: str):
        def solve(pdf: pd.DataFrame) -> pd.DataFrame:
            return solve_bucket_pdf(pdf, group_col, join_id, out_id)

        return (attached.map_batches(_add_bucket(group_col),
                                     batch_format="pyarrow")
                .groupby("__b")
                .map_groups(solve, batch_format="pandas"))

    V = None
    for _ in range(rounds):
        at_i = hash_join(ratings, U, [user_col], ["uid"], buckets=buckets)
        V = solve_groups(at_i, item_col, user_col, "iid").materialize()
        at_u = hash_join(ratings, V, [item_col], ["iid"], buckets=buckets)
        U = solve_groups(at_u, user_col, item_col, "uid").materialize()

    def rmse_part(tbl: pa.Table) -> pa.Table:
        pdf = tbl.to_pandas()
        pred = np.zeros(len(pdf))
        for c in fcols:
            pred += (pdf[f"{c}_u"].to_numpy(dtype=np.float64)
                     * pdf[f"{c}_v"].to_numpy(dtype=np.float64))
        err = pdf[rating_col].to_numpy(dtype=np.float64) - pred
        return pa.table({"n": pa.array([len(pdf)], type=pa.int64()),
                         "sse": pa.array([float(err @ err)])})

    Ur = U.map_batches(
        lambda t: t.rename_columns(
            ["uid"] + [f"{c}_u" for c in fcols]), batch_format="pyarrow")
    Vr = V.map_batches(
        lambda t: t.rename_columns(
            ["iid"] + [f"{c}_v" for c in fcols]), batch_format="pyarrow")
    both = hash_join(hash_join(ratings, Ur, [user_col], ["uid"],
                               buckets=buckets),
                     Vr, [item_col], ["iid"], buckets=buckets)
    n_tot, sse = 0, 0.0
    for row in both.map_batches(rmse_part,
                                batch_format="pyarrow").take_all():
        n_tot += int(row["n"])
        sse += float(row["sse"])
    rmse = float(np.sqrt(sse / n_tot)) if n_tot else float("nan")

    U_df = (U.to_pandas().sort_values("uid").reset_index(drop=True)
            .rename(columns={"uid": user_col}))
    V_df = (V.to_pandas().sort_values("iid").reset_index(drop=True)
            .rename(columns={"iid": item_col}))
    return U_df, V_df, rmse


def max_flow_min_cut(cap: list, s: int, t: int) -> tuple[int, set]:
    """Edmonds–Karp max flow on an n×n INTEGER capacity matrix →
    (flow value, source-side node set of the canonical min cut).

    Exact int arithmetic; the min cut is the residual-reachable set from
    ``s`` after termination — THE unique minimal source-side cut, so the
    result is deterministic under ties.  The `max_flow_cut` gate proves
    flow == cut twice over: in-query against this function's own
    residual cut, and cross-engine against the SQL twin's full
    2^(n-2)-subset cut enumeration (max-flow/min-cut duality as a gate
    contract)."""
    from collections import deque

    n = len(cap)
    flow = [[0] * n for _ in range(n)]
    value = 0
    while True:
        par = [-1] * n
        par[s] = s
        q = deque([s])
        while q:
            u = q.popleft()
            for v in range(n):
                if par[v] < 0 and cap[u][v] - flow[u][v] > 0:
                    par[v] = u
                    q.append(v)
        if par[t] < 0:
            break
        b = None
        v = t
        while v != s:
            u = par[v]
            r = cap[u][v] - flow[u][v]
            b = r if b is None else min(b, r)
            v = u
        v = t
        while v != s:
            u = par[v]
            flow[u][v] += b
            flow[v][u] -= b
            v = u
        value += b
    reach = {s}
    q = deque([s])
    while q:
        u = q.popleft()
        for v in range(n):
            if v not in reach and cap[u][v] - flow[u][v] > 0:
                reach.add(v)
                q.append(v)
    return value, reach
