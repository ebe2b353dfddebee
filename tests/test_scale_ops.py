"""Dedup family, relational, graph and numeric-analytics tests."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from diffdataflowmlpipelines_ray.stages.dedup import (
    MinHashParams,
    embedding_dedup_pairs,
    minhash_dedup_groups_exact,
    minhash_signatures,
    ngram_jaccard_pairs,
    simhash_dedup_groups,
    union_find_components,
)

SF = "/root/testdata/sf0.001"


def docs_ds(rows):
    return rd.from_arrow(pa.table(rows)).repartition(2)


class TestMinHash:
    def test_identical_docs_same_signature(self, ray_session):
        t = pa.table({"doc_id": [1, 2], "text": ["a b c d e f", "a b c d e f"]})
        sig = minhash_signatures(t, "text", MinHashParams())
        s = sig["sig"].to_pylist()
        assert s[0] == s[1]

    def test_near_dups_grouped(self, ray_session):
        base = "the quick brown fox jumps over the lazy dog again and again today"
        near = base.replace("today", "tomorrow")
        other = "completely different content about spark streams and arrow batches ok"
        ds = docs_ds({"doc_id": [1, 2, 3], "text": [base, near, other]})
        groups = minhash_dedup_groups_exact(ds, threshold=0.5)
        g = dict(zip(groups["doc_id"].to_pylist(), groups["group_id"].to_pylist()))
        assert g.get(1) == g.get(2)
        assert 3 not in g  # unique doc not in any dup group

    def test_union_find(self):
        comp = union_find_components([(1, 2), (2, 3), (10, 11)])
        assert comp[1] == comp[2] == comp[3]
        assert comp[10] == comp[11]
        assert comp[1] != comp[10]


class TestSimHash:
    def test_exact_dups_and_near(self, ray_session):
        a = "one two three four five six seven eight nine ten"
        ds = docs_ds({"doc_id": [1, 2, 3], "text": [a, a, "unrelated words here entirely"]})
        groups = simhash_dedup_groups(ds, max_hamming=3)
        g = dict(zip(groups["doc_id"].to_pylist(), groups["group_id"].to_pylist()))
        assert g.get(1) == g.get(2)
        assert 3 not in g


class TestNgramJaccard:
    def test_exact_scores(self, ray_session):
        ds = docs_ds({"doc_id": [1, 2], "text": ["a b c d", "a b c e"]})
        pairs = pa.table({"id_lo": [1], "id_hi": [2]})
        out = ngram_jaccard_pairs(ds, pairs, n=3)
        # 3-grams: {abc,bcd} vs {abc,bce} → 1/3
        assert out["jaccard"].to_pylist()[0] == pytest.approx(1 / 3)


class TestEmbeddingDedup:
    def test_near_identical_vectors(self, ray_session):
        rng = np.random.default_rng(0)
        v = rng.normal(size=16)
        near = v + rng.normal(scale=0.001, size=16)
        far = rng.normal(size=16)
        ds = docs_ds({"vec_id": [1, 2, 3],
                      "embedding": [v.tolist(), near.tolist(), far.tolist()]})
        pairs = embedding_dedup_pairs(ds, threshold=0.99)
        assert (1, 2) in set(zip(pairs["id_lo"].to_pylist(), pairs["id_hi"].to_pylist()))


class TestRound2ScalePaths:
    """VERDICT r1 'done' criteria for the distributed scale fixes."""

    def test_minhash_replicated_corpus_matches_bruteforce(self, ray_session):
        # replicate ≥ 10 templates into a 240-doc corpus; the distributed
        # pairs⋈signatures verify must reproduce a brute-force group check
        templates = [
            "the quick brown fox jumps over the lazy dog number %d edition",
            "streaming engines shuffle arrow batches with backpressure %d ok",
            "completely unrelated text about cooking pasta and sauce %d yum",
        ]
        ids, texts = [], []
        k = 0
        for rep in range(80):
            for t in templates:
                ids.append(k)
                # same text per template (suffix varies only every 40 reps →
                # big exact-dup groups fill hot buckets, all pairs verified)
                texts.append(t % (rep // 40))
                k += 1
        ds = docs_ds({"doc_id": ids, "text": texts})
        groups = minhash_dedup_groups_exact(ds, threshold=0.9)
        g = dict(zip(groups["doc_id"].to_pylist(),
                     groups["group_id"].to_pylist()))
        # every doc belongs to a group (all texts replicated ≥ 40×)
        assert len(g) == len(ids)
        # docs with identical text share a group labelled by the min id
        by_text: dict = {}
        for i, t in zip(ids, texts):
            by_text.setdefault(t, []).append(i)
        for t, members in by_text.items():
            labels = {g[m] for m in members}
            assert len(labels) == 1, f"split group for {t!r}"
            assert min(members) in members

    def test_exact_dedup_ids_matches_full(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.dedup import exact_dedup_ids

        ds = docs_ds({
            "doc_id": [9, 7, 5, 3, 1],
            "text": ["x", "y", "x", "z", "y"],
        })
        ids = sorted(r["doc_id"] for r in exact_dedup_ids(ds).take_all())
        assert ids == [1, 3, 5]

    def test_star_cap_suppresses_pair_explosion(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.dedup import (
            STAR_PAIR_CAP,
            _pairs_from_collision_groups,
        )
        import pandas as pd

        n = STAR_PAIR_CAP * 4
        dup = pd.DataFrame({
            "band": [0] * n, "band_hash": [1] * n,
            "doc_id": np.arange(n)[::-1],
        })
        pairs = _pairs_from_collision_groups(dup, ["band", "band_hash"],
                                             "doc_id")
        # star pairs only: n−1 rows, all anchored at the group min
        assert len(pairs) == n - 1
        assert (pairs["id_lo"] == 0).all()


class TestMinhashStarCapThreading:
    """ADVICE r4 (medium): minhash_dedup_groups_exact must enumerate FULL
    band buckets (star_cap=None) like its SQL twin; the capped path is the
    production skew guard only."""

    def test_uncapped_candidates_are_complete(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.dedup import (
            STAR_PAIR_CAP,
            minhash_lsh_candidates,
        )

        n = STAR_PAIR_CAP + 16  # one hot bucket: identical texts collide
        ds = docs_ds({"doc_id": list(range(n)),
                      "text": ["common boilerplate tokens here"] * n})
        capped, _ = minhash_lsh_candidates(ds)
        uncapped, _ = minhash_lsh_candidates(ds, star_cap=None)

        def pairset(p):
            return {(r["id_lo"], r["id_hi"]) for r in p.take_all()}

        c, u = pairset(capped), pairset(uncapped)
        # capped: star pairs to the min id only; uncapped: every C(n,2)
        assert c == {(0, i) for i in range(1, n)}
        assert u == {(i, j) for i in range(n) for j in range(i + 1, n)}

    def test_exact_groups_match_brute_force_with_hot_buckets(
            self, ray_session):
        """Sliding-window corpus: every doc shares most shingles (hot
        band buckets form), adjacent windows are true J>=0.9 pairs, far
        windows are not — a star-capped hub would drop mid-chain pairs;
        uncapped grouping must equal the brute-force transitive closure
        of exact word-3-gram Jaccard >= 0.9."""
        from diffdataflowmlpipelines_ray.stages.dedup import (
            minhash_dedup_groups_exact,
            ngram_set,
            union_find_components,
        )

        base = [f"w{i}" for i in range(190)]
        texts = [" ".join(base[i:i + 100]) for i in range(80)]
        ids = list(range(80))
        ds = docs_ds({"doc_id": ids, "text": texts})
        groups = minhash_dedup_groups_exact(ds, threshold=0.9)
        got = dict(zip(groups["doc_id"].to_pylist(),
                       groups["group_id"].to_pylist()))

        grams = [ngram_set(t, 3) for t in texts]
        truth_pairs = []
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                inter = len(grams[i] & grams[j])
                union = len(grams[i] | grams[j])
                if union and inter / union >= 0.9:
                    truth_pairs.append((ids[i], ids[j]))
        want = union_find_components(truth_pairs)
        # same membership, same min-id component labels
        assert got == {k: v for k, v in want.items()}


class TestOracleExactDedupGates:
    """The r4 oracle-exact contracts behind the dedup_minhash /
    dedup_simhash gate queries."""

    def test_minhash_exact_verify_thresholds(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.dedup import (
            minhash_dedup_groups_exact,
        )

        long_a = " ".join(f"tok{i}" for i in range(40))
        long_b = " ".join(f"tok{i}" for i in range(1, 40))  # drop first
        short_a = "alpha beta gamma delta"
        short_b = "beta gamma delta"  # J = 1/3 on 3-grams — below 0.9
        ds = docs_ds({
            "doc_id": [1, 2, 3, 4, 5],
            "text": [long_a, long_b, short_a, short_b,
                     "totally different filler words here"],
        })
        groups = minhash_dedup_groups_exact(ds, threshold=0.9)
        g = dict(zip(groups["doc_id"].to_pylist(),
                     groups["group_id"].to_pylist()))
        # long pair: 37 shared of 38∪38 grams → J ≈ 0.95 ≥ 0.9 → grouped
        assert g.get(1) == g.get(2) == 1
        # short pair and the unrelated doc never appear in any group
        assert 3 not in g and 4 not in g and 5 not in g

    def test_simhash_uncapped_exactness(self, ray_session):
        """star_cap=None must test every in-bucket pair — the capped path
        misses (a, b) pairs whose bucket hub is far from both (the bug
        the r4 gate upgrade surfaced)."""
        from diffdataflowmlpipelines_ray.stages.dedup import (
            simhash_column,
            simhash_dedup_groups,
        )
        import itertools

        import pyarrow as pa

        # corpus with exact-dup clusters: uncapped groups == brute force
        words = ["aa", "bb", "cc", "dd", "ee", "ff"]
        ids, texts = [], []
        k = 0
        for combo in itertools.combinations(words, 3):
            for _ in range(2):  # each text twice → hamming-0 pairs
                ids.append(k)
                texts.append(" ".join(combo))
                k += 1
        ds = docs_ds({"doc_id": ids, "text": texts})
        groups = simhash_dedup_groups(ds, max_hamming=3, hasher="poly",
                                      star_cap=None)
        g = dict(zip(groups["doc_id"].to_pylist(),
                     groups["group_id"].to_pylist()))
        # brute force over the poly simhash codes
        tbl = pa.table({"doc_id": ids, "text": texts})
        codes = simhash_column(tbl, "text", hasher="poly")
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                ham = bin(int(codes[i]) ^ int(codes[j])).count("1")
                if ham <= 3:
                    assert g.get(ids[i]) == g.get(ids[j]) is not None, \
                        f"missed pair ({ids[i]},{ids[j]}) hamming={ham}"

    def test_gate_queries_group_planted_copies(self, ray_session):
        """Every planted copy (id ≥ 10M) groups with its original in the
        simhash gate (exact copies — guaranteed); minhash gate groups the
        long-doc plants whose first-token drop keeps J ≥ 0.9."""
        from diffdataflowmlpipelines_ray.pipelines.queries import QUERIES

        sf = "/root/testdata/sf0.001"
        sim = QUERIES["dedup_simhash"](sf)
        g = dict(zip(sim["doc_id"], sim["group_id"]))
        planted = [d for d in g if d >= 10_000_000]
        assert planted, "fixture must plant copies"
        for d in planted:
            assert g.get(d - 10_000_000) == g[d]

        mh = QUERIES["dedup_minhash"](sf)
        gm = dict(zip(mh["doc_id"], mh["group_id"]))
        paired = [d for d in gm
                  if d >= 10_000_000 and gm.get(d - 10_000_000) == gm[d]]
        assert paired, "long-doc plants must group with their originals"


class TestHashJoinSemiAnti:
    def test_semi_and_anti_partition(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.relational import hash_join

        left = docs_ds({"k": [1, 2, 3, 4], "v": ["a", "b", "c", "d"]})
        right = docs_ds({"k2": [2, 4, 4, 9]})
        semi = sorted(r["k"] for r in
                      hash_join(left, right, ["k"], ["k2"], how="semi")
                      .take_all())
        anti = sorted(r["k"] for r in
                      hash_join(left, right, ["k"], ["k2"], how="anti")
                      .take_all())
        assert semi == [2, 4]
        assert anti == [1, 3]

    def test_semi_same_key_name(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.relational import hash_join

        left = docs_ds({"doc_id": [1, 2, 3]})
        right = docs_ds({"doc_id": [2]})
        out = hash_join(left, right, ["doc_id"], ["doc_id"], how="semi")
        assert [r["doc_id"] for r in out.take_all()] == [2]


class TestDistributedConnectedComponents:
    def test_matches_driver_version_on_chain(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.iterate import (
            connected_components,
            connected_components_ds,
        )

        n = 120
        edges = pa.table({"id_lo": list(range(n - 1)),
                          "id_hi": list(range(1, n))})
        a = connected_components(edges).to_pandas()
        b = connected_components_ds(edges, buckets=8).to_pandas()
        assert a.equals(b)
        assert (b["component"] == 0).all()

    def test_multi_component_dataset_input(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.iterate import (
            connected_components_ds,
        )

        ds = docs_ds({"id_lo": [5, 6, 30, 31], "id_hi": [6, 7, 31, 32]})
        out = connected_components_ds(ds, buckets=4).to_pandas().set_index("id")
        assert out.loc[7, "component"] == 5
        assert out.loc[32, "component"] == 30


class TestPlantedEmbeddingDedup:
    def test_gate_query_recovers_exactly_the_planted_pairs(self, ray_session):
        """The dedup_embedding gate query plants a ×1.5-scaled, 1e-3-jittered
        copy of every 25th fixture vector; recovery must be exact — each
        planted (id, id+10M) pair found, nothing else at threshold 0.95."""
        from diffdataflowmlpipelines_ray.pipelines.queries import (
            q_dedup_embedding,
        )
        import pyarrow.parquet as pq

        out = q_dedup_embedding(SF)
        ids = pq.read_table(f"{SF}/embeddings.parquet",
                            columns=["vec_id"])["vec_id"].to_numpy()
        planted = sorted(int(i) for i in ids if i % 25 == 0)
        assert list(out["id_lo"]) == planted
        assert list(out["id_hi"]) == [i + 10_000_000 for i in planted]
        assert (out["cosine"] > 0.999).all()


class TestKMeans:
    def _blobs(self, n_per=60, seed=5):
        rng = np.random.default_rng(seed)
        centers = np.array([[0.0, 0.0], [10.0, 10.0], [-10.0, 8.0]])
        pts = np.concatenate(
            [c + rng.normal(0, 0.5, (n_per, 2)) for c in centers])
        labels = np.repeat(np.arange(3), n_per)
        return pts, labels

    def _ds(self, pts, blocks=4):
        from diffdataflowmlpipelines_ray.functions.vectors import (
            list_array_from_2d,
        )

        tbl = pa.table({"vec_id": pa.array(np.arange(len(pts)), type=pa.int64()),
                        "embedding": list_array_from_2d(pts)})
        return rd.from_arrow(tbl).repartition(blocks)

    def test_recovers_separated_blobs(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.clustering import (
            kmeans_assign,
            kmeans_fit,
        )

        pts, labels = self._blobs()
        fit = kmeans_fit(self._ds(pts), n_clusters=3, max_iters=30)
        assert sorted(fit["sizes"].tolist()) == [60, 60, 60]
        out = kmeans_assign(self._ds(pts), fit["centroids"]).to_pandas()
        out = out.sort_values("vec_id").reset_index(drop=True)
        # each true blob maps to exactly one cluster id
        for b in range(3):
            assert out.loc[labels == b, "cluster"].nunique() == 1
        # inertia ≈ n · trace(cov) for tight blobs: well under a loose bound
        assert fit["inertia"] < 180 * 2 * 0.5**2 * 3

    def test_parallelism_invariant_fit(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.clustering import kmeans_fit

        pts, _ = self._blobs()
        f2 = kmeans_fit(self._ds(pts, blocks=2), n_clusters=3)
        f8 = kmeans_fit(self._ds(pts, blocks=8), n_clusters=3)
        a = f2["centroids"][np.lexsort(f2["centroids"].T)]
        b = f8["centroids"][np.lexsort(f8["centroids"].T)]
        assert np.allclose(a, b, atol=1e-8)
        assert f2["iters"] == f8["iters"]


class TestPageRank:
    EDGES = pa.table({"id_lo": pa.array([0, 0, 1, 2, 3, 1], type=pa.int64()),
                      "id_hi": pa.array([1, 2, 2, 0, 2, 4], type=pa.int64())})

    def test_driver_matches_power_iteration(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.iterate import pagerank

        out = pagerank(self.EDGES, iters=50)
        ranks = dict(zip(out["id"].to_pylist(), out["rank"].to_pylist()))
        assert sum(ranks.values()) == pytest.approx(1.0, abs=1e-9)
        # hub 0 and sink-heavy 2 dominate; source 3 is weakest
        assert ranks[0] > ranks[1] > ranks[3]
        assert ranks[2] > ranks[4] > ranks[3]
        # hand-rolled dense power iteration (same rule) agrees
        ids = [0, 1, 2, 3, 4]
        deg = {0: 2, 1: 2, 2: 1, 3: 1}
        import numpy as _np
        r = {v: 0.2 for v in ids}
        for _ in range(50):
            dang = sum(r[v] for v in ids if v not in deg)
            nr = {v: 0.15 / 5 + 0.85 * dang / 5 for v in ids}
            for a, b in zip(self.EDGES["id_lo"].to_pylist(),
                            self.EDGES["id_hi"].to_pylist()):
                nr[b] += 0.85 * r[a] / deg[a]
            r = nr
        for v in ids:
            assert ranks[v] == pytest.approx(r[v], abs=1e-12)

    def test_ds_variant_matches_driver(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.iterate import (
            pagerank,
            pagerank_ds,
        )

        a = pagerank(self.EDGES, iters=3)
        b = pagerank_ds(self.EDGES, iters=3, buckets=4)
        da = dict(zip(a["id"].to_pylist(), a["rank"].to_pylist()))
        db = dict(zip(b["id"].to_pylist(), b["rank"].to_pylist()))
        assert set(da) == set(db)
        for k in da:
            assert da[k] == pytest.approx(db[k], abs=1e-12)


class TestLinalg:
    """Distributed moments → PCA / OLS vs exact numpy on the full matrix."""

    @staticmethod
    def _mat(n=400, d=5, seed=7):
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(n, d))
        base[:, 2] = 2.5 * base[:, 0] - base[:, 1] + 0.1 * base[:, 2]
        return base

    def _ds(self, mat, blocks):
        return rd.from_arrow(pa.table({
            "row_id": pa.array(np.arange(len(mat), dtype=np.int64)),
            **{f"c{j}": pa.array(mat[:, j]) for j in range(mat.shape[1])},
        })).repartition(blocks)

    def test_moments_match_numpy_any_partitioning(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.linalg import column_moments
        mat = self._mat()
        cols = [f"c{j}" for j in range(mat.shape[1])]
        ref_cov = np.cov(mat, rowvar=False, ddof=0)
        for blocks in (1, 3, 11):
            m = column_moments(self._ds(mat, blocks), cols)
            assert m.n == len(mat)
            np.testing.assert_allclose(m.mean, mat.mean(axis=0),
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(m.cov(), ref_cov, rtol=1e-12)

    def test_pca_matches_full_eigh(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.linalg import (
            column_moments, pca_fit)
        mat = self._mat()
        cols = [f"c{j}" for j in range(mat.shape[1])]
        model = pca_fit(column_moments(self._ds(mat, 4), cols))
        vals, vecs = np.linalg.eigh(np.cov(mat, rowvar=False, ddof=1))
        order = np.argsort(vals)[::-1]
        np.testing.assert_allclose(model["explained_variance"], vals[order],
                                   rtol=1e-9)
        for k, comp in enumerate(model["components"]):
            ref = vecs[:, order[k]]
            # direction equal up to the documented sign convention
            assert (np.allclose(comp, ref, atol=1e-9)
                    or np.allclose(comp, -ref, atol=1e-9))
            assert comp[np.abs(comp).argmax()] > 0

    def test_pca_transform_variance_identity(self, ray_session):
        from diffdataflowmlpipelines_ray.functions.vectors import (
            list_column_to_2d)
        from diffdataflowmlpipelines_ray.stages.linalg import (
            pca_fit, pca_transform, vector_moments)
        mat = self._mat(d=6)
        ds = rd.from_arrow(pa.table({
            "vec_id": pa.array(np.arange(len(mat), dtype=np.int64)),
            "embedding": pa.array(list(mat)),
        })).repartition(3)
        model = pca_fit(vector_moments(ds, "embedding"), n_components=3)
        tbl = pa.concat_tables(list(
            pca_transform(ds, model, "embedding").iter_batches(
                batch_format="pyarrow")))
        proj = list_column_to_2d(tbl["pc"])
        # projected per-component variance == eigenvalue (ddof=1)
        np.testing.assert_allclose(
            (proj * proj).sum(axis=0) / (len(mat) - 1),
            model["explained_variance"], rtol=1e-9)

    def test_linreg_matches_lstsq(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.linalg import (
            column_moments, linreg_fit)
        mat = self._mat()
        cols = [f"c{j}" for j in range(mat.shape[1])]
        fit = linreg_fit(column_moments(self._ds(mat, 5), cols),
                         x_idx=[0, 1, 3], y_idx=2)
        X = np.column_stack([mat[:, [0, 1, 3]], np.ones(len(mat))])
        beta, *_ = np.linalg.lstsq(X, mat[:, 2], rcond=None)
        np.testing.assert_allclose(fit["coef"], beta[:3], rtol=1e-8)
        assert abs(fit["intercept"] - beta[3]) < 1e-8
        resid = X @ beta - mat[:, 2]
        r2_ref = 1.0 - (resid @ resid) / ((mat[:, 2] - mat[:, 2].mean()) ** 2).sum()
        assert abs(fit["r2"] - r2_ref) < 1e-9


class TestLogReg:
    @staticmethod
    def _reference_irls(X, y, max_iters, ridge=1e-6, tol=1e-8):
        """Single-machine IRLS — the exact algorithm logreg_fit distributes."""
        Xb = np.column_stack([X, np.ones(len(X))])
        beta = np.zeros(Xb.shape[1])
        for _ in range(max_iters):
            z = Xb @ beta
            # same safe sigmoid as the engine
            p = np.empty_like(z)
            pos = z >= 0
            p[pos] = 1 / (1 + np.exp(-z[pos]))
            ez = np.exp(z[~pos])
            p[~pos] = ez / (1 + ez)
            g = Xb.T @ (y - p)
            w = p * (1 - p)
            H = (Xb * w[:, None]).T @ Xb
            step = np.linalg.solve(H + ridge * np.eye(len(beta)), g)
            beta = beta + step
            if np.abs(step).max() < tol:
                break
        return beta

    def _ds(self, X, y, blocks):
        return rd.from_arrow(pa.table({
            "vec_id": pa.array(np.arange(len(X), dtype=np.int64)),
            "embedding": pa.array(list(X.astype(np.float64))),
            "label": pa.array(y.astype(np.int32)),
        })).repartition(blocks)

    def test_matches_single_machine_irls(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.linalg import logreg_fit
        rng = np.random.default_rng(11)
        X = rng.normal(size=(300, 6))
        y = (X[:, 0] + 0.5 * X[:, 3] + 0.2 * rng.normal(size=300) > 0
             ).astype(np.int64)

        def label(tbl):   # local closure: cloudpickled by value
            return (tbl["label"].to_numpy(zero_copy_only=False) >= 1
                    ).astype(np.float64)

        fit = logreg_fit(self._ds(X, y, 4), "embedding", label,
                         max_iters=8)
        ref = self._reference_irls(X, y.astype(np.float64), max_iters=8)
        np.testing.assert_allclose(fit["coef"], ref[:-1], rtol=1e-7)
        assert abs(fit["intercept"] - ref[-1]) < 1e-7
        assert fit["n"] == 300

    def test_partitioning_invariant_and_separable(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.linalg import (
            logreg_fit, logreg_predict)
        rng = np.random.default_rng(3)
        X = rng.normal(size=(240, 4))
        y = (X[:, 1] > 0).astype(np.int64)   # separable on one axis

        def label(tbl):   # local closure: cloudpickled by value
            return (tbl["label"].to_numpy(zero_copy_only=False) >= 1
                    ).astype(np.float64)

        fits = [logreg_fit(self._ds(X, y, b), "embedding", label,
                           max_iters=6) for b in (2, 7)]
        np.testing.assert_allclose(fits[0]["coef"], fits[1]["coef"],
                                   rtol=1e-9)
        assert fits[0]["train_accuracy"] >= 0.99
        scored = pa.concat_tables(list(
            logreg_predict(self._ds(X, y, 3), fits[0],
                           "embedding").iter_batches(
                batch_format="pyarrow")))
        s = scored.sort_by("vec_id")["score"].to_numpy(zero_copy_only=False)
        assert (((s >= 0.5) == (y >= 1)).mean()) >= 0.99


class TestPairVerifyExchangeTier:
    """The fully-distributed (no-driver-pair-structure) verify tier never
    triggers at test scale (pairs ≤ _PAIR_BROADCAST_MAX) — force it by
    patching the tier constant to 0 and assert exact equality with the
    broadcast tier on a corpus with planted near-dups and cross-band
    duplicate candidates."""

    def _corpus(self, n=60):
        rng = np.random.default_rng(7)
        words = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta",
                 "theta", "iota", "kappa"]
        texts, ids = [], []
        for i in range(n):
            toks = list(rng.choice(words, size=20))
            texts.append(" ".join(toks))
            ids.append(i)
            if i % 5 == 0:  # planted near-dup: one token changed
                toks2 = list(toks)
                toks2[3] = "variant"
                texts.append(" ".join(toks2))
                ids.append(i + 1000)
        return docs_ds({"doc_id": ids, "text": texts}).repartition(6)

    def test_exchange_equals_broadcast(self, ray_session, monkeypatch):
        from diffdataflowmlpipelines_ray.stages import dedup as D

        ds = self._corpus()
        broadcast = D.minhash_dedup_groups_exact(ds, threshold=0.5)
        monkeypatch.setattr(D, "_PAIR_BROADCAST_MAX", 0)
        exchange = D.minhash_dedup_groups_exact(self._corpus(), threshold=0.5)
        b = sorted(zip(broadcast["doc_id"].to_pylist(),
                       broadcast["group_id"].to_pylist()))
        e = sorted(zip(exchange["doc_id"].to_pylist(),
                       exchange["group_id"].to_pylist()))
        assert b == e
        assert len(b) > 0  # planted dups actually found

    def test_exchange_scores_equal_broadcast(self, ray_session, monkeypatch):
        from diffdataflowmlpipelines_ray.stages import dedup as D

        rng = np.random.default_rng(3)
        vecs = rng.normal(size=(40, 16))
        vecs[20:] = vecs[:20] + rng.normal(scale=1e-3, size=(20, 16))
        ids = list(range(40))
        ds = docs_ds({"vec_id": ids, "embedding": [v.tolist() for v in vecs]}
                     ).repartition(4)
        broadcast = D.embedding_dedup_pairs(ds, threshold=0.99)
        monkeypatch.setattr(D, "_PAIR_BROADCAST_MAX", 0)
        exchange = D.embedding_dedup_pairs(ds, threshold=0.99)
        b = sorted(zip(broadcast["id_lo"].to_pylist(),
                       broadcast["id_hi"].to_pylist(),
                       np.round(broadcast["cosine"].to_pylist(), 12)))
        e = sorted(zip(exchange["id_lo"].to_pylist(),
                       exchange["id_hi"].to_pylist(),
                       np.round(exchange["cosine"].to_pylist(), 12)))
        assert b == e
        assert len(b) >= 20  # every planted near-identical pair verified

    def test_exchange_hard_cap_logged(self, ray_session, monkeypatch, caplog):
        import logging

        from diffdataflowmlpipelines_ray.stages import dedup as D

        # 10 candidate pairs, cap 2 per bucket → dropped pairs, logged
        pairs = pa.table({"id_lo": list(range(10)),
                          "id_hi": [i + 100 for i in range(10)]})
        sig = docs_ds({"doc_id": list(range(10)) + [i + 100 for i in range(10)],
                       "text": ["same text here"] * 20})
        monkeypatch.setattr(D, "_PAIR_BROADCAST_MAX", 0)

        def always_ok(sa, sb):
            return np.ones(len(sa), dtype=bool)

        out = D._distributed_pair_verify(
            pairs, sig, "doc_id", always_ok, sig_col="text",
            buckets=1, max_pairs_per_bucket=2).to_pandas()
        assert len(out) == 2  # deterministic sorted survivors


class TestHistTree:
    def _brute(self, X, y, depth, bins):
        """Independent single-machine reference (plain loops)."""
        import math

        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        F = X.shape[1]
        lo, hi = X.min(axis=0), X.max(axis=0)
        w = (hi - lo) / bins
        binm = np.zeros(X.shape, dtype=np.int64)
        for j in range(F):
            if w[j] != 0:
                binm[:, j] = np.clip(
                    np.floor((X[:, j] - lo[j]) / w[j]), 0, bins - 1)
        splits, pop = {}, {}
        node = np.zeros(len(y), dtype=np.int64)
        pop[0] = (len(y), int(y.sum()))
        for level in range(depth):
            live = [0] if level == 0 else [
                c for nid in splits
                if int(math.log2(nid + 1)) == level - 1
                for c in (2 * nid + 1, 2 * nid + 2)]
            for nid in sorted(live):
                on = node == nid
                n_tot, s_tot = int(on.sum()), int(y[on].sum())
                if n_tot < 2:
                    continue
                best, arg = -math.inf, None
                for f in range(F):
                    for b in range(bins):
                        left = on & (binm[:, f] <= b)
                        nl, sl = int(left.sum()), int(y[left].sum())
                        nr, sr = n_tot - nl, s_tot - sl
                        if nl == 0 or nr == 0:
                            continue
                        sc = (float(sl) * sl) / nl + (float(sr) * sr) / nr
                        if sc > best:
                            best, arg = sc, (f, b)
                if arg is None:
                    continue
                f, b = arg
                splits[nid] = arg
                left = on & (binm[:, f] <= b)
                pop[2 * nid + 1] = (int(left.sum()), int(y[left].sum()))
                pop[2 * nid + 2] = (n_tot - pop[2 * nid + 1][0],
                                    s_tot - pop[2 * nid + 1][1])
                node[left] = 2 * nid + 1
                node[on & ~left] = 2 * nid + 2
        rows = []
        for nid in sorted(pop):
            n, s = pop[nid]
            if nid in splits:
                rows.append((nid, "split", *splits[nid], n, s, s / n))
            else:
                rows.append((nid, "leaf", -1, -1, n, s,
                             s / n if n else float("nan")))
        return rows

    def _run(self, X, y, depth, bins, parts):
        from diffdataflowmlpipelines_ray.stages.tree import hist_tree

        X = np.asarray(X, dtype=np.float64)
        cols = {f"f{j}": pa.array(X[:, j]) for j in range(X.shape[1])}
        cols["y"] = pa.array(np.asarray(y, dtype=np.int64))
        ds = rd.from_arrow(pa.table(cols)).repartition(parts)
        out = hist_tree(ds, [f"f{j}" for j in range(X.shape[1])], "y",
                        depth=depth, bins=bins)
        return [(int(r.node), r.kind, int(r.feature_idx), int(r.bin),
                 int(r.n), int(r.label_sum), float(r.pred))
                for r in out.itertuples()]

    def test_matches_reference_any_partitioning(self, ray_session):
        rng = np.random.default_rng(7)
        X = rng.uniform(0, 10, size=(300, 3))
        y = (X[:, 0] > 5).astype(np.int64) * 3 + (X[:, 2] > 2) * 2
        want = self._brute(X, y, 2, 8)
        assert self._run(X, y, 2, 8, 1) == want
        assert self._run(X, y, 2, 8, 7) == want

    def test_depth3_matches_reference(self, ray_session):
        rng = np.random.default_rng(11)
        X = rng.uniform(-5, 5, size=(400, 2))
        y = rng.integers(0, 20, size=400)
        assert self._run(X, y, 3, 4, 5) == self._brute(X, y, 3, 4)

    def test_pure_split_recovers_step(self, ray_session):
        # y jumps at x=0: the root split must land at the boundary bin
        X = np.linspace(-8, 8, 64).reshape(-1, 1)
        y = (X[:, 0] >= 0).astype(np.int64) * 10
        got = self._run(X, y, 1, 8, 2)
        root = got[0]
        assert root[1] == "split" and root[2] == 0 and root[3] == 3
        leaves = {g[0]: g for g in got[1:]}
        assert leaves[1][5] == 0 and leaves[2][5] == 320  # pure leaves

    def test_constant_features_leaf(self, ray_session):
        got = self._run(np.ones((10, 2)), np.arange(10), 2, 8, 2)
        assert got == [(0, "leaf", -1, -1, 10, 45, 4.5)]


class TestHistBoost:
    def _ds(self, X, y, parts):
        X = np.asarray(X, dtype=np.float64)
        cols = {f"f{j}": pa.array(X[:, j]) for j in range(X.shape[1])}
        cols["y"] = pa.array(np.asarray(y, dtype=np.int64))
        return rd.from_arrow(pa.table(cols)).repartition(parts)

    def _brute(self, X, y, rounds, depth, bins, scale=1_000_000):
        """Independent reference: reuse TestHistTree's looped fitter on
        explicit integer residuals with Python floor-div leaf values."""
        import math

        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        lo, hi = X.min(axis=0), X.max(axis=0)
        w = (hi - lo) / bins
        binm = np.zeros(X.shape, dtype=np.int64)
        for j in range(X.shape[1]):
            if w[j] != 0:
                binm[:, j] = np.clip(
                    np.floor((X[:, j] - lo[j]) / w[j]), 0, bins - 1)
        r = y * scale
        hist = []
        for t in range(rounds):
            node = np.zeros(len(y), dtype=np.int64)
            for level in range(depth):
                for nid in sorted(set(node)):
                    on = node == nid
                    n_tot, s_tot = int(on.sum()), int(r[on].sum())
                    if n_tot < 2:
                        continue
                    best, arg = -math.inf, None
                    for f in range(X.shape[1]):
                        for b in range(bins):
                            left = on & (binm[:, f] <= b)
                            nl, sl = int(left.sum()), int(r[left].sum())
                            if nl == 0 or nl == n_tot:
                                continue
                            sr, nr = s_tot - sl, n_tot - nl
                            sc = (float(sl) * sl) / nl \
                                + (float(sr) * sr) / nr
                            if sc > best:
                                best, arg = sc, (f, b)
                    if arg is None:
                        continue
                    f, b = arg
                    left = on & (binm[:, f] <= b)
                    node[left] = 2 * nid + 1
                    node[on & ~left] = 2 * nid + 2
            upd = np.zeros(len(y), dtype=np.int64)
            for nid in sorted(set(node)):
                on = node == nid
                upd[on] = int(r[on].sum()) // (2 * int(on.sum()))
            r = r - upd
            hist.append((t, len(y), int(np.abs(r).sum())))
        return hist

    def test_matches_reference_any_partitioning(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.tree import hist_boost

        rng = np.random.default_rng(3)
        X = rng.uniform(0, 4, size=(200, 2))
        y = (X[:, 0] * 2 + X[:, 1]).astype(np.int64)
        want = self._brute(X, y, 3, 2, 4)
        for parts in (1, 6):
            _, hist = hist_boost(self._ds(X, y, parts), ["f0", "f1"],
                                 "y", rounds=3, depth=2, bins=4)
            got = [(int(r.round), int(r.n), int(r.sae_micro))
                   for r in hist.itertuples()]
            assert got == want

    def test_error_decreases(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.tree import hist_boost

        rng = np.random.default_rng(5)
        X = rng.uniform(0, 8, size=(300, 2))
        y = (X[:, 0] > 4).astype(np.int64) * 7 + (X[:, 1] > 2) * 2
        _, hist = hist_boost(self._ds(X, y, 4), ["f0", "f1"], "y",
                             rounds=4, depth=2, bins=8)
        sae = hist["sae_micro"].tolist()
        assert sae == sorted(sae, reverse=True) and sae[-1] < sae[0]

    def test_learnable_signal_fits_exactly(self, ray_session):
        # a bin-aligned step target is exactly representable by one tree;
        # with lr=1/2 the residual halves (floor) each round
        from diffdataflowmlpipelines_ray.stages.tree import hist_boost

        X = np.repeat([1.0, 9.0], 32).reshape(-1, 1)
        y = np.repeat([0, 8], 32)
        _, hist = hist_boost(self._ds(X, y, 2), ["f0"], "y",
                             rounds=3, depth=1, bins=2)
        # residual on the high half: 8e6 -> 4e6 -> 2e6 -> 1e6
        assert hist["sae_micro"].tolist() == [4_000_000 * 32,
                                              2_000_000 * 32,
                                              1_000_000 * 32]


class TestAls:
    def _ratings(self, n_u=12, n_i=8, parts=3):
        # exactly rank-1: r(u, i) = a_u * b_i
        a = np.linspace(0.5, 2.0, n_u)
        b = np.linspace(1.0, 3.0, n_i)
        u, i = np.meshgrid(np.arange(n_u), np.arange(n_i), indexing="ij")
        return rd.from_arrow(pa.table({
            "user": pa.array(u.ravel().astype(np.int64)),
            "item": pa.array(i.ravel().astype(np.int64)),
            "rating": pa.array((a[u] * b[i]).ravel()),
        })).repartition(parts)

    def test_partition_invariant(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.linalg import als_factorize

        u1, v1, r1 = als_factorize(self._ratings(parts=1), k=4, rounds=2)
        u4, v4, r4 = als_factorize(self._ratings(parts=4), k=4, rounds=2)
        pd.testing.assert_frame_equal(u1, u4)
        pd.testing.assert_frame_equal(v1, v4)
        assert r1 == r4

    def test_rank1_recovery(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.linalg import als_factorize

        _, _, rmse = als_factorize(self._ratings(), k=4, rounds=4,
                                   lam=1e-6)
        assert rmse < 1e-3  # exactly-rank-1 data fits to noise level

    def test_factor_shapes_and_ids(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.linalg import als_factorize

        U, V, _ = als_factorize(self._ratings(), k=3, rounds=1)
        assert U["user"].tolist() == list(range(12))
        assert V["item"].tolist() == list(range(8))
        assert list(U.columns) == ["user", "f0", "f1", "f2"]
        assert list(V.columns) == ["item", "f0", "f1", "f2"]

    def test_tiers_bit_equal(self, ray_session):
        # broadcast tier (default) vs join-exchange tier (broadcast_max=0)
        from diffdataflowmlpipelines_ray.stages.linalg import als_factorize

        ub, vb, rb = als_factorize(self._ratings(parts=3), k=3, rounds=2)
        ue, ve, re_ = als_factorize(self._ratings(parts=3), k=3, rounds=2,
                                    broadcast_max=0)
        pd.testing.assert_frame_equal(ub, ue)
        pd.testing.assert_frame_equal(vb, ve)
        assert abs(rb - re_) < 1e-12


class TestProfile:
    def test_matches_pandas_reference(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.profile import (
            profile_columns,
        )

        tbl = pa.table({
            "a": pa.array([1, 2, 2, None, 5], type=pa.int64()),
            "s": pa.array(["x", None, "x", "y", "z"]),
            "f": pa.array([1.5, np.nan, 2.5, 2.5, -1.0]),
        })
        for parts in (1, 3):
            ds = rd.from_arrow(tbl).repartition(parts)
            out = profile_columns(ds, ["a", "s", "f"],
                                  numeric_cols=["a", "f"])
            got = {r.column: (int(r.n), int(r.n_null), int(r.n_distinct),
                              r.min_num, r.max_num)
                   for r in out.itertuples()}
            assert got["a"][:3] == (5, 1, 3)
            assert got["a"][3:] == (1.0, 5.0)
            assert got["s"][:3] == (5, 1, 3)
            assert np.isnan(got["s"][3]) and np.isnan(got["s"][4])
            # NaN floats: arrow null_count treats NaN as a VALUE — n_null
            # stays 0 but min/max must skip it
            assert got["f"][0] == 5 and got["f"][1] == 0
            assert got["f"][3] == -1.0 and got["f"][4] == 2.5

    def test_psi_drift_detection(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.profile import psi

        rng = np.random.default_rng(6)
        ref = rd.from_arrow(pa.table({
            "v": pa.array(rng.normal(0, 1, 3000))})).repartition(3)
        same = rd.from_arrow(pa.table({
            "v": pa.array(rng.normal(0, 1, 3000))})).repartition(2)
        shifted = rd.from_arrow(pa.table({
            "v": pa.array(rng.normal(2.0, 1, 3000))})).repartition(2)
        lo = psi(ref, same, "v")
        hi = psi(ref, shifted, "v")
        # identical-distribution PSI ≈ 0 (< 0.1 rule of thumb); a 2σ
        # shift is a major-drift signal (> 0.25)
        assert lo["psi_micro"].iloc[0] < 100_000
        assert hi["psi_micro"].iloc[0] > 250_000
        assert (lo["n_ref"].sum() == 3000 and lo["n_new"].sum() == 3000)

    def test_psi_identical_counts_zero(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.profile import psi

        t = pa.table({"v": pa.array(np.linspace(0, 9, 100))})
        ds1 = rd.from_arrow(t).repartition(2)
        ds2 = rd.from_arrow(t).repartition(5)
        out = psi(ds1, ds2, "v", bins=5)
        assert (out["term_micro"] == 0).all()
        assert out["psi_micro"].iloc[0] == 0


class TestValidate:
    def test_all_rule_kinds(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.validate import validate

        tbl = pa.table({
            "k": pa.array([1, 2, 2, 3, None], type=pa.int64()),
            "v": pa.array([5.0, -1.0, 10.0, 99.0, 50.0]),
            "s": pa.array(["ok", "ok", "BAD", None, "fine"]),
        })
        for parts in (1, 3):
            ds = rd.from_arrow(tbl).repartition(parts)
            out = validate(ds, [
                ("not_null", "k"),
                ("unique", "k"),
                ("in_range", "v", 0.0, 50.0),
                ("accepted_values", "s", ["ok", "fine"]),
                ("matches", "s", "[a-z]+"),
            ]).set_index("rule_id")
            assert out.loc[0, "violations"] == 1          # one null k
            assert out.loc[1, "violations"] == 1          # dup k=2
            assert out.loc[2, "violations"] == 2          # -1, 99
            assert out.loc[3, "violations"] == 1          # BAD
            assert out.loc[4, "violations"] == 1          # BAD (upper)
            assert not out["ok"].any()

    def test_clean_data_passes(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.validate import validate

        ds = rd.from_arrow(pa.table({
            "k": pa.array([1, 2, 3], type=pa.int64())})).repartition(2)
        out = validate(ds, [("not_null", "k"), ("unique", "k"),
                            ("in_range", "k", 0, 10)])
        assert out["ok"].all() and (out["violations"] == 0).all()

    def test_unknown_rule_raises(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.validate import validate

        ds = rd.from_arrow(pa.table({"k": pa.array([1])}))
        with pytest.raises(Exception):
            validate(ds, [("bogus", "k")])


class TestKaplanMeier:
    def test_matches_hand_computed(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.survival import (
            kaplan_meier,
        )

        # durations 1,2,2,3,4,5; events at 1,2,2,4; censored at 3,5
        durs = [1.0, 2.0, 2.0, 3.0, 4.0, 5.0]
        evs = [1, 1, 1, 0, 1, 0]
        import math

        def ha(x):
            return int(math.floor(abs(x) + 0.5) * (1 if x >= 0 else -1))

        # hand KM: t=1 n=6 d=1; t=2 n=5 d=2; t=4 n=2 d=1
        want_terms = [(1_000_000, 6, 1, ha(math.log(5 / 6) * 1e6))]
        t2 = ha(math.log(3 / 5) * 1e6)
        t4 = ha(math.log(1 / 2) * 1e6)
        want = [(1_000_000, 6, 1, want_terms[0][3]),
                (2_000_000, 5, 2, want_terms[0][3] + t2),
                (4_000_000, 2, 1, want_terms[0][3] + t2 + t4)]
        for parts in (1, 3):
            ds = rd.from_arrow(pa.table({
                "dur": pa.array(durs),
                "ev": pa.array(evs, type=pa.int64())})).repartition(parts)
            out = kaplan_meier(ds, "dur", "ev")
            got = [tuple(int(x) for x in r)
                   for r in out.itertuples(index=False)]
            assert got == want

    def test_all_die_at_end_excluded(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.survival import (
            kaplan_meier,
        )

        ds = rd.from_arrow(pa.table({
            "dur": pa.array([1.0, 2.0, 2.0]),
            "ev": pa.array([1, 1, 1], type=pa.int64())}))
        out = kaplan_meier(ds, "dur", "ev")
        # t=2 kills the last survivors (n == d) → excluded
        assert out["t_micro"].tolist() == [1_000_000]


class TestGini:
    def _run(self, cents, parts):
        from diffdataflowmlpipelines_ray.stages.profile import gini_cents

        ds = rd.from_arrow(pa.table({
            "id": pa.array(range(len(cents)), type=pa.int64()),
            "cents": pa.array(cents, type=pa.int64())})).repartition(parts)
        out = gini_cents(ds, "cents", "id")
        return int(out["gini_micro"].iloc[0])

    def test_uniform_is_zero(self, ray_session):
        assert self._run([500] * 100, 3) == 0

    def test_total_concentration_near_one(self, ray_session):
        # one holder owns everything: G = (n-1)/n = 0.99
        g = self._run([0] * 99 + [10_000], 4)
        assert g == 990_000

    def test_matches_brute_force_and_partitioning(self, ray_session):
        rng = np.random.default_rng(8)
        cents = rng.integers(0, 100_000, 500).tolist()
        x = np.sort(np.array(cents, dtype=np.int64))
        n = len(x)
        srx = int((np.arange(1, n + 1) * x).sum())
        want = (2.0 * srx) / (float(n) * int(x.sum())) - (n + 1.0) / n
        import math
        want_micro = int(math.floor(abs(want * 1e6) + 0.5)
                         * (1 if want >= 0 else -1))
        assert self._run(cents, 1) == want_micro
        assert self._run(cents, 5) == want_micro


class TestIsotonic:
    def _ref(self, x, y, w=None):
        """Independent O(n log n) reference: aggregate ties, stack PAVA
        with Fraction-exact means."""
        from fractions import Fraction

        import collections
        agg = collections.defaultdict(lambda: [0, 0])
        w = w or [1] * len(x)
        for xi, yi, wi in zip(x, y, w):
            agg[xi][0] += yi * wi
            agg[xi][1] += wi
        out = []
        for xi in sorted(agg):
            cur = [xi, xi, agg[xi][0], agg[xi][1]]
            while out and Fraction(out[-1][2], out[-1][3]) > Fraction(
                    cur[2], cur[3]):
                p = out.pop()
                cur = [p[0], cur[1], p[2] + cur[2], p[3] + cur[3]]
            out.append(cur)
        return [tuple(p) for p in out]

    def _run(self, x, y, parts, w=None):
        from diffdataflowmlpipelines_ray.stages.isotonic import (
            isotonic_fit,
        )

        cols = {"x": pa.array(x, type=pa.int64()),
                "y": pa.array(y, type=pa.int64())}
        if w:
            cols["w"] = pa.array(w, type=pa.int64())
        ds = rd.from_arrow(pa.table(cols)).repartition(parts)
        out = isotonic_fit(ds, "x", "y", "w" if w else None)
        return [(int(r.x_lo), int(r.x_hi), int(r.sum_cents),
                 int(r.weight)) for r in out.itertuples()]

    def test_matches_reference_any_partitioning(self, ray_session):
        rng = np.random.default_rng(12)
        x = rng.integers(0, 50, 400).tolist()
        y = (np.array(x) * 3 + rng.integers(-40, 40, 400)).tolist()
        want = self._ref(x, y)
        assert self._run(x, y, 1) == want
        assert self._run(x, y, 6) == want

    def test_monotone_and_weighted(self, ray_session):
        rng = np.random.default_rng(3)
        x = rng.integers(0, 30, 200).tolist()
        y = rng.integers(0, 100, 200).tolist()
        w = rng.integers(1, 5, 200).tolist()
        got = self._run(x, y, 4, w)
        assert got == self._ref(x, y, w)
        means = [s / ww for _, _, s, ww in got]
        assert all(a <= b + 1e-12 for a, b in zip(means, means[1:]))

    def test_already_monotone_untouched(self, ray_session):
        x = list(range(20))
        y = [i * 10 for i in x]
        got = self._run(x, y, 3)
        assert len(got) == 20  # nothing pools


class TestAucExact:
    def _run(self, scores, labels, parts):
        from diffdataflowmlpipelines_ray.stages.profile import auc_exact

        ds = rd.from_arrow(pa.table({
            "score": pa.array(scores, type=pa.float64()),
            "y": pa.array(labels, type=pa.int64())})).repartition(parts)
        out = auc_exact(ds, "score", "y")
        return (int(out["u2"].iloc[0]), int(out["auc_micro"].iloc[0]))

    def test_perfect_and_inverted(self, ray_session):
        s = [float(i) for i in range(20)]
        y = [0] * 10 + [1] * 10
        assert self._run(s, y, 3)[1] == 1_000_000
        assert self._run(s, y[::-1], 3)[1] == 0

    def test_ties_half_credit(self, ray_session):
        # all scores equal: AUC must be exactly 1/2
        assert self._run([5.0] * 40, [0, 1] * 20, 4)[1] == 500_000

    def test_matches_pair_counting(self, ray_session):
        rng = np.random.default_rng(21)
        s = np.round(rng.uniform(0, 1, 300), 3)
        y = (s + rng.normal(0, 0.3, 300) > 0.5).astype(np.int64)
        pos = s[y == 1]
        neg = s[y == 0]
        u2 = int(2 * (pos[:, None] > neg[None, :]).sum()
                 + (pos[:, None] == neg[None, :]).sum())
        got1 = self._run(s.tolist(), y.tolist(), 1)
        got5 = self._run(s.tolist(), y.tolist(), 5)
        assert got1[0] == got5[0] == u2


class TestGmm1d:
    def test_recovers_planted_mixture(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.clustering import (
            gmm1d_fit,
        )

        rng = np.random.default_rng(14)
        x = np.concatenate([rng.normal(-5, 0.7, 3000),
                            rng.normal(5, 1.0, 1000)])
        ds = rd.from_arrow(pa.table({"v": pa.array(x)})).repartition(4)
        params, lls = gmm1d_fit(ds, "v", k=2, iters=8)
        p = params.sort_values("mean").reset_index(drop=True)
        assert abs(p.loc[0, "mean"] - (-5)) < 0.15
        assert abs(p.loc[1, "mean"] - 5) < 0.3
        assert abs(p.loc[0, "weight"] - 0.75) < 0.03
        # EM guarantee: monotone non-decreasing log-likelihood
        assert all(a <= b + 1e-6 for a, b in zip(lls, lls[1:]))

    def test_deterministic_per_partitioning(self, ray_session):
        from diffdataflowmlpipelines_ray.stages.clustering import (
            gmm1d_fit,
        )

        rng = np.random.default_rng(15)
        x = rng.normal(0, 2, 500)
        mk = lambda: rd.from_arrow(pa.table({"v": pa.array(x)})
                                   ).repartition(3)
        a, _ = gmm1d_fit(mk(), "v", k=3, iters=3)
        b, _ = gmm1d_fit(mk(), "v", k=3, iters=3)
        pd.testing.assert_frame_equal(a, b)

    def test_apply_consistent_with_history(self, ray_session):
        # sum |y*scale - pred| from apply == the final round's sae_micro
        from diffdataflowmlpipelines_ray.stages.tree import (
            hist_boost,
            hist_boost_apply,
        )

        rng = np.random.default_rng(19)
        X = rng.uniform(0, 6, size=(250, 2))
        y = (X[:, 0] + 2 * X[:, 1]).astype(np.int64)
        ds = rd.from_arrow(pa.table({
            "f0": pa.array(X[:, 0]), "f1": pa.array(X[:, 1]),
            "y": pa.array(y)})).repartition(3)
        model, hist = hist_boost(ds, ["f0", "f1"], "y", rounds=2,
                                 depth=2, bins=6)
        out = hist_boost_apply(ds, model, ["f0", "f1"],
                               ["y"]).to_pandas()
        sae = int(np.abs(out["y"].to_numpy(dtype=np.int64) * 1_000_000
                         - out["pred_micro"].to_numpy()).sum())
        assert sae == int(hist["sae_micro"].iloc[-1])


class TestZoneMapScan:
    def _fixture(self, tmp_path):
        import pyarrow.parquet as pq

        # 10 row groups of 100 rows, key strictly increasing -> exact
        # zone boundaries; values carry a derived payload column
        k = np.arange(1000, dtype=np.int64)
        t = pa.table({"k": pa.array(k), "v": pa.array(k * 7 % 101)})
        path = str(tmp_path / "zones.parquet")
        pq.write_table(t, path, row_group_size=100)
        return path

    def test_prune_counts_and_exactness(self, ray_session, tmp_path):
        from diffdataflowmlpipelines_ray.stages.zonemap import (
            zone_pruned_scan,
        )

        path = self._fixture(tmp_path)
        # [250, 449] touches exactly row groups 2, 3 and 4
        ds, stats = zone_pruned_scan(path, "k", 250, 449, columns=["v"])
        assert stats.row_groups_total == 10
        assert stats.row_groups_read == 3
        assert stats.rows_skipped_bound == 700
        out = ds.to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
        k = np.arange(250, 450, dtype=np.int64)
        want = pd.DataFrame({"v": k * 7 % 101, "k": k})[["v", "k"]]
        pd.testing.assert_frame_equal(
            out[["v", "k"]].astype(np.int64), want)

    def test_fully_pruned_is_empty_with_schema(self, ray_session,
                                               tmp_path):
        from diffdataflowmlpipelines_ray.stages.zonemap import (
            zone_pruned_scan,
        )

        path = self._fixture(tmp_path)
        ds, stats = zone_pruned_scan(path, "k", 5000, 6000)
        assert stats.row_groups_read == 0
        assert ds.count() == 0
        assert set(ds.schema().names) == {"k", "v"}

    def test_residual_filter_inside_partial_groups(self, ray_session,
                                                   tmp_path):
        from diffdataflowmlpipelines_ray.stages.zonemap import (
            zone_pruned_scan,
        )

        path = self._fixture(tmp_path)
        # [150, 160] lives inside row group 1: zone keeps the group,
        # the residual filter must cut it to exactly 11 rows
        ds, stats = zone_pruned_scan(path, "k", 150, 160)
        assert stats.row_groups_read == 1
        assert ds.count() == 11
