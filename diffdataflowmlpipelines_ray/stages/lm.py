r"""Statistical n-gram language-model stages over token streams.

The two classic corpus-model ops a web-scale training-data pipeline runs
that nothing else in this engine covered:

- :func:`bigram_logprob_scores` — per-document cross-entropy under an
  add-one-smoothed bigram LM trained on the corpus itself (the
  CCNet / Gopher-style "perplexity filter": documents whose text is
  improbable under a reference LM are boilerplate, gibberish or wrong
  language).  The reference engine tops out at bag-of-words features
  (count_vectorizer.rs, tfidf.rs); this is the sequential-model step above
  them.
- :func:`naive_bayes_predict` — multinomial naive Bayes fit + predict in
  one distributed plan (the `lang` label of the documents table is the
  class), i.e. supervised text classification with the same count
  machinery.

Design for 100 TB
-----------------
The model is NEVER broadcast and NEVER driver-resident.  Both ops are pure
count algebra, so the whole plan is narrow-row exchanges:

1. one tokenize pass per document block emits block-locally pre-aggregated
   ``(doc_id, w1, w2, k)`` bigram-count rows (a document lives in one row,
   so its bigram multiset never crosses blocks);
2. the global bigram table ``(w1, w2, c)`` and context table ``(w1, cw)``
   are tiny groupby-sums OVER THE PRE-AGGREGATED rows — the only wide
   exchanges, both vocabulary-bounded, never text-bounded;
3. scoring joins the doc-bigram rows back to the count tables with the
   partitioned :func:`~..stages.relational.hash_join` (model stays
   sharded), computes the smoothed log-probability vectorized, and
   finishes with one ``groupby(doc_id).sum`` — so a hot bigram ("of the")
   is one row in the count table joined by hash bucket, not a broadcast
   hot key.

Exactness across the oracle boundary
------------------------------------
Log-probabilities are irrational; summing them in float is
addition-order-dependent and a distributed sum has no defined order.  So
every ln() term is rounded half-away-from-zero to 6 decimals and carried
as INTEGER micro-nats (int64); per-document totals are then exact integer
sums, bit-equal no matter how blocks split, and bit-equal to the DuckDB
twin that applies the same ROUND(LN(...)*1e6).  The only residual risk is
a 1-ulp libm disagreement landing exactly on a .5 micro-nat boundary
(probability ~1e-9 per term; the corpus gates at ~3e4 terms).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.tokenize import tokenize_column
from ..functions.vectors import half_away

__all__ = ["doc_bigram_counts", "bigram_logprob_scores",
           "doc_token_counts", "naive_bayes_predict",
           "pmi_collocations"]


def _micronats(p: np.ndarray) -> np.ndarray:
    """ln(p) rounded half-away to 6 dp, carried as exact int64 micro-nats."""
    return half_away(np.log(p) * 1e6).astype(np.int64)


def doc_bigram_counts(docs, id_col: str = "doc_id", text_col: str = "text"):
    """Dataset of documents → Dataset of ``(doc_id, w1, w2, k)`` rows.

    Whitespace tokenization (``tokenize_column``: the reference tokenizer,
    utils.rs:3-9, on Python ``str`` whitespace — the SQL twin splits on
    ``WS_SQL``); consecutive token pairs
    within each document, pre-aggregated per (doc, pair) inside the block
    so repeated bigrams shuffle as one weighted row.  Documents with < 2
    tokens emit nothing.
    """

    def explode(tbl: pa.Table) -> pa.Table:
        toks = tokenize_column(tbl[text_col])
        offsets = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        lens = np.diff(offsets)
        ids = np.repeat(tbl[id_col].to_numpy(zero_copy_only=False), lens)
        flat = toks.flatten().to_numpy(zero_copy_only=False)
        if len(flat) < 2:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "w1": pa.array([], type=pa.string()),
                             "w2": pa.array([], type=pa.string()),
                             "k": pa.array([], type=pa.int64())})
        same = ids[:-1] == ids[1:]          # pair stays inside its document
        pdf = pd.DataFrame({"doc_id": ids[:-1][same],
                            "w1": flat[:-1][same],
                            "w2": flat[1:][same]})
        out = (pdf.groupby(["doc_id", "w1", "w2"], as_index=False)
               .size().rename(columns={"size": "k"}))
        out["k"] = out["k"].astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    return docs.map_batches(explode, batch_format="pyarrow")


def _vocab_size(docs, text_col: str = "text") -> int:
    """Exact distinct-token count: block-unique partials → one groupby."""

    def block_unique(tbl: pa.Table) -> pa.Table:
        toks = tokenize_column(tbl[text_col])
        u = np.unique(toks.flatten().to_numpy(zero_copy_only=False))
        return pa.table({"tok": pa.array(u)})

    return (docs.map_batches(block_unique, batch_format="pyarrow")
            .groupby("tok").count().count())


#: Distinct-bigram / distinct-(token × class) ceiling for the broadcast
#: scoring tier.  Under it the count table is one ``ray.put`` (≤ ~24 MB)
#: and scoring is a single in-block pandas merge per batch — 2 shuffles
#: total instead of 6.  Above it NOTHING model-shaped touches the driver:
#: the partitioned hash-join exchange plan takes over (identical integer
#: arithmetic, pytest-equal).  Same tiering contract as
#: ``_PAIR_BROADCAST_MAX`` / ``PR_INT_DRIVER_MAX_EDGES``.
LM_BROADCAST_MAX = 500_000


def bigram_logprob_scores(docs, id_col: str = "doc_id",
                          text_col: str = "text", buckets: int = 16,
                          broadcast_max: int = LM_BROADCAST_MAX):
    """Per-document add-one-smoothed bigram log-probability.

    Returns a Dataset of ``(doc_id, n_bigrams, nats_micro)``:
    ``nats_micro`` is the exact int64 sum over the document's bigram
    occurrences of ``round(ln((c(w1,w2)+1) / (c(w1,·)+V)) * 1e6)`` — i.e.
    total micro-nats of surprise; perplexity is
    ``exp(-nats_micro / 1e6 / n_bigrams)``, left to the consumer because
    exp() would re-introduce float drift into the gate.

    Two scoring tiers on the measured distinct-bigram count (the model is
    count algebra either way, so both are bit-exact and partition
    invariant):

    - ``≤ broadcast_max``: the (w1, w2, c) table broadcasts once; the
      scoring pass re-tokenizes each document IN ITS OWN BLOCK, merges
      against the broadcast counts (one C-speed pandas hash merge per
      batch) and finishes with an in-batch per-doc integer sum — no join
      exchange, no final groupby, because a document never leaves its row.
    - above: the original exchange plan — score rows join the SHARDED
      count tables by hash bucket (nothing model-shaped on the driver).
    """
    import ray

    from .relational import hash_join

    db = doc_bigram_counts(docs, id_col, text_col).materialize()
    vocab = _vocab_size(docs, text_col)
    v = float(vocab)

    cnt = db.groupby(["w1", "w2"]).sum("k").map_batches(
        lambda t: t.rename_columns(["bw1", "bw2", "c"]),
        batch_format="pyarrow").materialize()

    if cnt.count() <= broadcast_max:
        cnt_df = pa.concat_tables(list(cnt.iter_batches(
            batch_format="pyarrow"))).to_pandas()
        cnt_df.columns = ["w1", "w2", "c"]
        ctx_df = (cnt_df.groupby("w1", as_index=False)["c"].sum()
                  .rename(columns={"c": "cw"}))
        model_ref = ray.put((cnt_df, ctx_df))

        def score_block(tbl: pa.Table) -> pa.Table:
            cnt_d, ctx_d = ray.get(model_ref)
            toks = tokenize_column(tbl[text_col])
            offsets = toks.offsets.to_numpy(
                zero_copy_only=False).astype(np.int64)
            lens = np.diff(offsets)
            ids = np.repeat(tbl[id_col].to_numpy(zero_copy_only=False),
                            lens)
            flat = toks.flatten().to_numpy(zero_copy_only=False)
            empty = pa.table({"doc_id": pa.array([], type=pa.int64()),
                              "n_bigrams": pa.array([], type=pa.int64()),
                              "nats_micro": pa.array([], type=pa.int64())})
            if len(flat) < 2:
                return empty
            same = ids[:-1] == ids[1:]
            if not same.any():
                return empty
            g = (pd.DataFrame({"doc_id": ids[:-1][same],
                               "w1": flat[:-1][same],
                               "w2": flat[1:][same]})
                 .groupby(["doc_id", "w1", "w2"], as_index=False)
                 .size().rename(columns={"size": "k"}))
            m = g.merge(cnt_d, on=["w1", "w2"]).merge(ctx_d, on="w1")
            k = m["k"].to_numpy(dtype=np.int64)
            mn = _micronats((m["c"].to_numpy(dtype=np.float64) + 1.0)
                            / (m["cw"].to_numpy(dtype=np.float64) + v))
            out = (pd.DataFrame({"doc_id": m["doc_id"], "n_bigrams": k,
                                 "nats_micro": k * mn})
                   .groupby("doc_id", as_index=False).sum())
            return pa.Table.from_pandas(out, preserve_index=False)

        return docs.map_batches(score_block, batch_format="pyarrow")

    ctx = cnt.groupby("bw1").sum("c").map_batches(
        lambda t: t.rename_columns(["w1c", "cw"]), batch_format="pyarrow")

    j1 = hash_join(db, cnt, ["w1", "w2"], ["bw1", "bw2"],
                   buckets=buckets).map_batches(
        lambda t: t.select(["doc_id", "w1", "k", "c"]),
        batch_format="pyarrow")
    j2 = hash_join(j1, ctx, ["w1"], ["w1c"], buckets=buckets)

    def term(tbl: pa.Table) -> pa.Table:
        c = tbl["c"].to_numpy(zero_copy_only=False).astype(np.float64)
        cw = tbl["cw"].to_numpy(zero_copy_only=False).astype(np.float64)
        k = tbl["k"].to_numpy(zero_copy_only=False).astype(np.int64)
        mn = _micronats((c + 1.0) / (cw + v))
        return pa.table({"doc_id": tbl["doc_id"],
                         "n_bigrams": pa.array(k),
                         "nats_micro": pa.array(k * mn)})

    return (j2.map_batches(term, batch_format="pyarrow")
            .groupby("doc_id").sum(["n_bigrams", "nats_micro"])
            .map_batches(lambda t: t.rename_columns(
                ["doc_id", "n_bigrams", "nats_micro"]),
                batch_format="pyarrow"))


def kn_logprob_scores(docs, id_col: str = "doc_id",
                      text_col: str = "text", buckets: int = 16,
                      broadcast_max: int = LM_BROADCAST_MAX):
    """Per-document interpolated Kneser–Ney bigram log-probability — the
    production n-gram smoothing (Kneser & Ney 1995; Chen & Goodman 1999),
    discount D = 3/4 kept RATIONAL so every term is integer count algebra:

        P_KN(w2|w1) = (c(w1w2) − D)/c(w1·)
                      + D·N1+(w1·)/c(w1·) · N1+(·w2)/N1+(··)

    Trained on the corpus itself, every scored bigram has c ≥ 1 > D, so
    with D = 3/4 the term is ln(num/den) over the exact int64s

        num = (4·c − 3)·N₊₊ + 3·N1+(w1·)·N1+(·w2),  den = 4·c(w1·)·N₊₊

    — both twins evaluate the identical IEEE ``ln(num/den)`` and
    half-away-round to int64 micro-nats before the per-doc sum, the same
    determinism contract as ``bigram_logprob_scores``.  Returns a Dataset
    of ``(doc_id, n_bigrams, nats_micro)``.

    Same two scoring tiers as the add-one LM: under ``broadcast_max``
    distinct bigrams the model (counts + the three KN census tables)
    broadcasts once and each document scores in its own block; above it
    the partitioned hash-join exchange plan runs with one extra narrow
    join for the backward census (nothing model-shaped on the driver).
    """
    import ray

    from .relational import hash_join

    db = doc_bigram_counts(docs, id_col, text_col).materialize()

    cnt = db.groupby(["w1", "w2"]).sum("k").map_batches(
        lambda t: t.rename_columns(["bw1", "bw2", "c"]),
        batch_format="pyarrow").materialize()
    n_types = cnt.count()  # N1+(··): distinct bigram types

    if n_types <= broadcast_max:
        cnt_df = pa.concat_tables(list(cnt.iter_batches(
            batch_format="pyarrow"))).to_pandas()
        cnt_df.columns = ["w1", "w2", "c"]
        fwd = (cnt_df.groupby("w1", as_index=False)
               .agg(cw=("c", "sum"), n1f=("c", "size")))
        bwd = (cnt_df.groupby("w2", as_index=False)
               .agg(n1b=("c", "size")))
        model_ref = ray.put((cnt_df, fwd, bwd))

        def score_block(tbl: pa.Table) -> pa.Table:
            cnt_d, fwd_d, bwd_d = ray.get(model_ref)
            toks = tokenize_column(tbl[text_col])
            offsets = toks.offsets.to_numpy(
                zero_copy_only=False).astype(np.int64)
            lens = np.diff(offsets)
            ids = np.repeat(tbl[id_col].to_numpy(zero_copy_only=False),
                            lens)
            flat = toks.flatten().to_numpy(zero_copy_only=False)
            empty = pa.table({"doc_id": pa.array([], type=pa.int64()),
                              "n_bigrams": pa.array([], type=pa.int64()),
                              "nats_micro": pa.array([], type=pa.int64())})
            if len(flat) < 2:
                return empty
            same = ids[:-1] == ids[1:]
            if not same.any():
                return empty
            g = (pd.DataFrame({"doc_id": ids[:-1][same],
                               "w1": flat[:-1][same],
                               "w2": flat[1:][same]})
                 .groupby(["doc_id", "w1", "w2"], as_index=False)
                 .size().rename(columns={"size": "k"}))
            m = (g.merge(cnt_d, on=["w1", "w2"])
                 .merge(fwd_d, on="w1").merge(bwd_d, on="w2"))
            k = m["k"].to_numpy(dtype=np.int64)
            mn = _kn_micronats(
                m["c"].to_numpy(dtype=np.int64),
                m["cw"].to_numpy(dtype=np.int64),
                m["n1f"].to_numpy(dtype=np.int64),
                m["n1b"].to_numpy(dtype=np.int64), n_types)
            out = (pd.DataFrame({"doc_id": m["doc_id"], "n_bigrams": k,
                                 "nats_micro": k * mn})
                   .groupby("doc_id", as_index=False).sum())
            return pa.Table.from_pandas(out, preserve_index=False)

        return docs.map_batches(score_block, batch_format="pyarrow")

    fwd = (cnt.map_batches(
        lambda t: t.append_column(
            "one", pa.array(np.ones(t.num_rows, dtype=np.int64))),
        batch_format="pyarrow")
        .groupby("bw1").sum(["c", "one"])
        .map_batches(lambda t: t.rename_columns(["w1f", "cw", "n1f"]),
                     batch_format="pyarrow"))
    bwd = cnt.groupby("bw2").count().map_batches(
        lambda t: t.rename_columns(["w2b", "n1b"]),
        batch_format="pyarrow")

    j1 = hash_join(db, cnt, ["w1", "w2"], ["bw1", "bw2"],
                   buckets=buckets).map_batches(
        lambda t: t.select(["doc_id", "w1", "w2", "k", "c"]),
        batch_format="pyarrow")
    j2 = hash_join(j1, fwd, ["w1"], ["w1f"], buckets=buckets)
    j3 = hash_join(j2, bwd, ["w2"], ["w2b"], buckets=buckets)

    def term(tbl: pa.Table) -> pa.Table:
        k = tbl["k"].to_numpy(zero_copy_only=False).astype(np.int64)
        mn = _kn_micronats(
            tbl["c"].to_numpy(zero_copy_only=False).astype(np.int64),
            tbl["cw"].to_numpy(zero_copy_only=False).astype(np.int64),
            tbl["n1f"].to_numpy(zero_copy_only=False).astype(np.int64),
            tbl["n1b"].to_numpy(zero_copy_only=False).astype(np.int64),
            n_types)
        return pa.table({"doc_id": tbl["doc_id"],
                         "n_bigrams": pa.array(k),
                         "nats_micro": pa.array(k * mn)})

    return (j3.map_batches(term, batch_format="pyarrow")
            .groupby("doc_id").sum(["n_bigrams", "nats_micro"])
            .map_batches(lambda t: t.rename_columns(
                ["doc_id", "n_bigrams", "nats_micro"]),
                batch_format="pyarrow"))


def _kn_micronats(c: np.ndarray, cw: np.ndarray, n1f: np.ndarray,
                  n1b: np.ndarray, n_types: int) -> np.ndarray:
    """The exact-integer KN term: round(ln(num/den)·1e6), D = 3/4."""
    num = (4 * c - 3) * n_types + 3 * n1f * n1b
    den = 4 * cw * n_types
    return _micronats(num.astype(np.float64) / den.astype(np.float64))


def doc_token_counts(docs, id_col: str = "doc_id", text_col: str = "text",
                     carry: tuple = ()):
    """Dataset of documents → ``(doc_id[, *carry], tok, k)`` rows,
    block-pre-agg'd.  ``carry`` names per-document columns (e.g. the
    class label) replicated onto the count rows — free at explode time
    and it DESIGNS OUT the doc→label join the scorer would otherwise
    pay (a full-corpus exchange)."""

    def explode(tbl: pa.Table) -> pa.Table:
        toks = tokenize_column(tbl[text_col])
        offsets = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        lens = np.diff(offsets)
        ids = np.repeat(tbl[id_col].to_numpy(zero_copy_only=False), lens)
        flat = toks.flatten().to_numpy(zero_copy_only=False)
        cols = {"doc_id": ids}
        for c in carry:
            cols[c] = np.repeat(tbl[c].to_numpy(zero_copy_only=False), lens)
        cols["tok"] = flat
        pdf = pd.DataFrame(cols)
        out = (pdf.groupby(["doc_id", *carry, "tok"], as_index=False)
               .size().rename(columns={"size": "k"}))
        out["k"] = out["k"].astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    return docs.map_batches(explode, batch_format="pyarrow")


def naive_bayes_predict(docs, label_col: str = "lang",
                        id_col: str = "doc_id", text_col: str = "text",
                        buckets: int = 16,
                        broadcast_max: int = LM_BROADCAST_MAX):
    """Multinomial naive Bayes, fit and predicted on the corpus itself.

    Class = ``label_col``; features = whitespace token counts; add-one
    smoothing over the global vocabulary.  Returns a Dataset of
    ``(doc_id, pred)`` — the argmax class of

        ln P(class) + Σ_tokens k · ln((c(class,tok)+1) / (N_class+V))

    in exact integer micro-nats (ties broken by the lexicographically
    smallest class, so the result is deterministic and matches the SQL
    twin bit-for-bit).

    Distributed plan: the class label rides the explode (``carry`` —
    free, designs out a full-corpus doc→label join), so per-class token
    counts are ONE groupby over block-pre-aggregated rows pivoted wide
    (one row per token, one int64 column per class) — vocabulary-bounded
    and sharded.  Class priors / totals are #classes scalars, the only
    unconditional driver state.  Scoring is tiered like
    ``bigram_logprob_scores``: wide table ≤ ``broadcast_max`` rows →
    broadcast once, score each document in its own block (one pandas
    merge per batch, in-batch per-doc integer sums, no exchange); above →
    partitioned hash-join against the sharded wide table.
    """
    import ray

    from .relational import hash_join

    dt = doc_token_counts(docs, id_col, text_col,
                          carry=(label_col,)).materialize()

    # class census: block-local value counts → driver sum (#classes rows,
    # no shuffle — a label's domain is vocabulary-small by contract)
    def class_partial(tbl: pa.Table) -> pa.Table:
        vc = pc.value_counts(tbl[label_col])
        return pa.table({"cl": vc.field("values"),
                         "nd": pc.cast(vc.field("counts"), pa.int64())})

    ndocs: dict = {}
    for row in docs.map_batches(class_partial,
                                batch_format="pyarrow").take_all():
        ndocs[row["cl"]] = ndocs.get(row["cl"], 0) + row["nd"]
    classes = sorted(ndocs)
    n_total = sum(ndocs.values())

    def pivot_block(tbl: pa.Table) -> pa.Table:
        pdf = tbl.to_pandas()
        g = (pdf.groupby(["tok", label_col], as_index=False)["k"].sum()
             .pivot(index="tok", columns=label_col, values="k"))
        out = {"tok": g.index.to_numpy()}
        for c in classes:
            col = (g[c].fillna(0).to_numpy(dtype=np.int64)
                   if c in g.columns else np.zeros(len(g), dtype=np.int64))
            out[f"c_{c}"] = col
        return pa.table(out)

    wide = (dt.map_batches(pivot_block, batch_format="pyarrow")
            .groupby("tok").sum([f"c_{c}" for c in classes])
            .map_batches(lambda t: t.rename_columns(
                ["wtok"] + [f"c_{c}" for c in classes]),
                batch_format="pyarrow").materialize())

    # per-class token totals: one tiny aggregate
    totals = {c: 0 for c in classes}
    for row in (wide.map_batches(
            lambda t: pa.table({f"c_{c}": [pc.sum(t[f"c_{c}"]).as_py() or 0]
                                for c in classes}), batch_format="pyarrow")
            .take_all()):
        for c in classes:
            totals[c] += row[f"c_{c}"]
    vocab = wide.count()
    v = float(vocab)

    prior_mn = {c: int(_micronats(np.array([ndocs[c] / n_total]))[0])
                for c in classes}
    tot = {c: float(totals[c]) for c in classes}

    if vocab <= broadcast_max:
        wide_df = pa.concat_tables(list(wide.iter_batches(
            batch_format="pyarrow"))).to_pandas()
        wide_df.columns = ["tok"] + [f"c_{c}" for c in classes]
        model_ref = ray.put(wide_df)

        def score_block(tbl: pa.Table) -> pa.Table:
            wd = ray.get(model_ref)
            toks = tokenize_column(tbl[text_col])
            offsets = toks.offsets.to_numpy(
                zero_copy_only=False).astype(np.int64)
            lens = np.diff(offsets)
            ids = np.repeat(tbl[id_col].to_numpy(zero_copy_only=False),
                            lens)
            flat = toks.flatten().to_numpy(zero_copy_only=False)
            if not len(flat):
                return pa.table({"doc_id": pa.array([], type=pa.int64()),
                                 "pred": pa.array([], type=pa.string())})
            g = (pd.DataFrame({"doc_id": ids, "tok": flat})
                 .groupby(["doc_id", "tok"], as_index=False)
                 .size().rename(columns={"size": "k"}))
            m = g.merge(wd, on="tok")
            k = m["k"].to_numpy(dtype=np.int64)
            terms = {"doc_id": m["doc_id"]}
            for c in classes:
                cc = m[f"c_{c}"].to_numpy(dtype=np.float64)
                terms[f"s_{c}"] = k * _micronats((cc + 1.0) / (tot[c] + v))
            s = (pd.DataFrame(terms)
                 .groupby("doc_id", as_index=False).sum())
            n = len(s)
            best = np.full(n, "", dtype=object)
            best_s = np.full(n, np.iinfo(np.int64).min, dtype=np.int64)
            for c in classes:          # ascending: ties → smallest class
                sc = s[f"s_{c}"].to_numpy(dtype=np.int64) + prior_mn[c]
                better = sc > best_s
                best_s = np.where(better, sc, best_s)
                best[better] = c
            return pa.table({
                "doc_id": pa.array(s["doc_id"].to_numpy(dtype=np.int64)),
                "pred": pa.array(best.tolist(), type=pa.string())})

        return docs.map_batches(score_block, batch_format="pyarrow")

    # exchange tier: join doc-token rows to the sharded wide table
    j = hash_join(dt.map_batches(
        lambda t: t.select(["doc_id", "tok", "k"]), batch_format="pyarrow"),
        wide, ["tok"], ["wtok"], buckets=buckets)

    def score(tbl: pa.Table) -> pa.Table:
        k = tbl["k"].to_numpy(zero_copy_only=False).astype(np.int64)
        cols = {"doc_id": tbl["doc_id"]}
        for c in classes:
            cc = tbl[f"c_{c}"].to_numpy(zero_copy_only=False).astype(np.float64)
            cols[f"s_{c}"] = pa.array(k * _micronats((cc + 1.0) / (tot[c] + v)))
        return pa.table(cols)

    scored = (j.map_batches(score, batch_format="pyarrow")
              .groupby("doc_id").sum([f"s_{c}" for c in classes])
              .map_batches(lambda t: t.rename_columns(
                  ["doc_id"] + [f"s_{c}" for c in classes]),
                  batch_format="pyarrow"))

    def argmax(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        best = np.full(n, "", dtype=object)
        best_s = np.full(n, np.iinfo(np.int64).min, dtype=np.int64)
        for c in classes:                       # classes ascending: ties → smallest
            s = (tbl[f"s_{c}"].to_numpy(zero_copy_only=False)
                 + prior_mn[c])
            better = s > best_s
            best_s = np.where(better, s, best_s)
            best[better] = c
        return pa.table({"doc_id": tbl["doc_id"],
                         "pred": pa.array(best.tolist(), type=pa.string())})

    return scored.map_batches(argmax, batch_format="pyarrow")


def pmi_collocations(docs, min_count: int = 5, k: int = 50,
                     id_col: str = "doc_id", text_col: str = "text",
                     buckets: int = 16,
                     broadcast_max: int = LM_BROADCAST_MAX):
    """Top-``k`` bigram collocations by pointwise mutual information.

    The classic corpus-analysis op (Church & Hanks 1990): rank adjacent
    word pairs by ``PMI = ln(p(w1,w2) / (p(w1) p(w2)))`` with the joint
    from the bigram distribution and the marginals from the unigram
    distribution, keeping pairs seen at least ``min_count`` times (raw
    PMI without a count floor degenerates to hapax pairs).

    Returns a Dataset of ``(w1, w2, pair_count, pmi_micro)`` — the top-k
    by ``(pmi_micro DESC, w1, w2)``; the tie-break is total because
    (w1, w2) is unique in the bigram table, so the result set is exact
    and partition-invariant.

    Exactness: each ln() is individually rounded half-away to 6 dp and
    carried as int64 micro-nats (the :func:`bigram_logprob_scores`
    contract), so ``pmi_micro = mn(c12) - mn(N) - (mn(c1) - mn(U))
    - (mn(c2) - mn(U))`` is exact integer arithmetic bit-equal to the
    DuckDB twin applying the same per-term ROUND(LN(x)*1e6).

    100-TB plan: the only text-bounded pass is the block-local bigram /
    unigram pre-aggregation inside :func:`doc_bigram_counts` /
    :func:`doc_token_counts`; the global count tables are
    vocabulary-bounded groupby-sums.  Attaching marginals is tiered on
    the measured vocab size (the ``LM_BROADCAST_MAX`` contract): under
    it the unigram table is one ``ray.put`` and each surviving bigram
    scores in its own block; above it two partitioned hash-joins keep
    the marginal table sharded.  Ranking is block-local top-k → one
    ``blocks × k``-row final sort, never a global sort of the pair
    table.
    """
    import ray

    from .relational import hash_join

    cnt = (doc_bigram_counts(docs, id_col, text_col)
           .groupby(["w1", "w2"]).sum("k")
           .map_batches(lambda t: t.rename_columns(["w1", "w2", "c"]),
                        batch_format="pyarrow").materialize())
    n_total = int(cnt.sum("c") or 0)
    uni = (doc_token_counts(docs, id_col, text_col)
           .groupby("tok").sum("k")
           .map_batches(lambda t: t.rename_columns(["tok", "cu"]),
                        batch_format="pyarrow").materialize())
    u_total = int(uni.sum("cu") or 0)

    _empty = pa.table({"w1": pa.array([], type=pa.string()),
                       "w2": pa.array([], type=pa.string()),
                       "pair_count": pa.array([], type=pa.int64()),
                       "pmi_micro": pa.array([], type=pa.int64()),
                       "__neg": pa.array([], type=pa.int64())})
    if n_total == 0:
        return docs.map_batches(lambda t: _empty.select(
            ["w1", "w2", "pair_count", "pmi_micro"]),
            batch_format="pyarrow").limit(0)

    mn_n = int(half_away(np.array([np.log(float(n_total)) * 1e6]))[0])
    mn_u = int(half_away(np.array([np.log(float(u_total)) * 1e6]))[0])

    def survivors(tbl: pa.Table) -> pa.Table:
        return tbl.filter(pc.greater_equal(tbl["c"], min_count))

    surv = cnt.map_batches(survivors, batch_format="pyarrow")

    def _finish(pdf: pd.DataFrame) -> pa.Table:
        """(w1, w2, c, c1, c2) pandas → block-local top-k pmi table."""
        if not len(pdf):
            return _empty
        mn_c = half_away(np.log(pdf["c"].to_numpy(
            dtype=np.float64)) * 1e6).astype(np.int64)
        mn_1 = half_away(np.log(pdf["c1"].to_numpy(
            dtype=np.float64)) * 1e6).astype(np.int64)
        mn_2 = half_away(np.log(pdf["c2"].to_numpy(
            dtype=np.float64)) * 1e6).astype(np.int64)
        pmi = mn_c - mn_n - (mn_1 - mn_u) - (mn_2 - mn_u)
        out = pd.DataFrame({"w1": pdf["w1"].to_numpy(),
                            "w2": pdf["w2"].to_numpy(),
                            "pair_count": pdf["c"].to_numpy(
                                dtype=np.int64),
                            "pmi_micro": pmi,
                            "__neg": -pmi})
        out = out.sort_values(["__neg", "w1", "w2"]).head(k)
        return pa.Table.from_pandas(out, preserve_index=False).cast(
            _empty.schema)

    if uni.count() <= broadcast_max:
        uni_df = pa.concat_tables(list(uni.iter_batches(
            batch_format="pyarrow"))).to_pandas()
        uni_ref = ray.put(uni_df)

        def score_block(tbl: pa.Table) -> pa.Table:
            u = ray.get(uni_ref)
            pdf = tbl.to_pandas()
            m = (pdf.merge(u.rename(columns={"tok": "w1", "cu": "c1"}),
                           on="w1")
                 .merge(u.rename(columns={"tok": "w2", "cu": "c2"}),
                        on="w2"))
            return _finish(m)

        ranked = surv.map_batches(score_block, batch_format="pyarrow")
    else:
        u1 = uni.map_batches(lambda t: t.rename_columns(["t1", "c1"]),
                             batch_format="pyarrow")
        u2 = uni.map_batches(lambda t: t.rename_columns(["t2", "c2"]),
                             batch_format="pyarrow")
        j = hash_join(hash_join(surv, u1, ["w1"], ["t1"],
                                buckets=buckets),
                      u2, ["w2"], ["t2"], buckets=buckets)
        ranked = j.map_batches(lambda t: _finish(t.to_pandas()),
                               batch_format="pyarrow")

    return (ranked.sort(["__neg", "w1", "w2"]).limit(k)
            .map_batches(lambda t: t.select(
                ["w1", "w2", "pair_count", "pmi_micro"]),
                batch_format="pyarrow"))
