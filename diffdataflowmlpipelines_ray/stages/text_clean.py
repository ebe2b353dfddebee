"""Corpus-cleaning operators for LLM training-data pipelines.

Four operators the reference has no counterpart for, but every large-scale
text-data pipeline needs (C4/CCNet-style cleaning; SURVEY §2.6 scope):

- ``explode_lines`` / ``rewrap_words``: document → (doc_id, ln, line) rows.
- ``remove_frequent_lines``: C4-style boilerplate removal — drop every line
  whose exact text occurs ≥ ``min_count`` times corpus-wide (nav bars,
  cookie banners, licence headers).
- ``contamination_set`` + ``flag_contaminated``: benchmark decontamination —
  flag documents sharing any word n-gram with a held-out test set.
- ``mask_pattern``: vectorized regex redaction (PII masking class of ops).

Scale notes (100 TB):
- line frequency is computed on 64-bit line hashes, pre-aggregated per block
  (np.unique) before ONE bucket shuffle of (hash, partial_count) rows — the
  corpus text never moves; the driver holds only the frequent-hash set
  (boilerplate lines, O(thousands)) which is broadcast via one ``ray.put``.
  A 64-bit collision could drop an innocent line with p ≈ n²/2⁶⁵ — the
  standard trade; swap in 128-bit hashes if that ever matters.
- contamination n-grams come from the SMALL held-out side (test sets are
  MBs, not TBs): per-block distinct hashes union on the driver, broadcast
  once; the corpus-side flag pass is a stateless ``map_batches`` doing one
  vectorized ``np.isin`` per block.
- n-gram hashing is fully vectorized: one split kernel, one word-hash pass,
  one sliding-window polynomial mix over the flat hash array — no Python
  loop over rows, no n-gram string materialization.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray

from ..functions.hashing import fast_hash64_array

__all__ = [
    "explode_lines",
    "rewrap_words",
    "remove_frequent_lines",
    "contamination_set",
    "flag_contaminated",
    "mask_pattern",
    "dup_span_stats",
    "balance_downsample",
    "chunk_tokens",
    "mixture_sample",
    "hash_split",
    "weighted_sample",
]


def chunk_tokens(ds, size: int = 64, stride: int = 48,
                 id_col: str = "doc_id", text_col: str = "text"):
    """RAG-style document chunking: fixed-size overlapping token windows.

    Chunk ``i`` of a document covers whitespace tokens
    ``[i·stride, min(i·stride + size, n))`` for every start < n, so
    consecutive chunks overlap by ``size − stride`` tokens and the last
    chunk may be short; empty documents emit nothing.  Returns
    ``(doc_id, chunk_id, n_tokens, chunk)`` rows.

    Map-only with ZERO exchanges at any corpus size — a document is one
    row, so its windows are cut inside its own block — and fully
    vectorized: one gather-index arithmetic pass builds every chunk's
    token slice, one ``pa.ListArray`` rewrap + ``pc.binary_join`` emits
    the chunk strings (the ``rewrap_words`` Arrow trick; no Python loop
    over chunks)."""
    from ..functions.tokenize import tokenize_column

    if not (0 < stride <= size):
        raise ValueError("need 0 < stride <= size")

    def chunker(tbl: pa.Table) -> pa.Table:
        toks = tokenize_column(tbl[text_col])
        offsets = toks.offsets.to_numpy(zero_copy_only=False).astype(
            np.int64)
        lens = np.diff(offsets)
        ids = tbl[id_col].to_numpy(zero_copy_only=False)
        n_chunks = np.where(lens > 0, (lens - 1) // stride + 1, 0)
        total_c = int(n_chunks.sum())
        empty = pa.table({"doc_id": pa.array([], type=pa.int64()),
                          "chunk_id": pa.array([], type=pa.int64()),
                          "n_tokens": pa.array([], type=pa.int64()),
                          "chunk": pa.array([], type=pa.string())})
        if total_c == 0:
            return empty
        doc_idx = np.repeat(np.arange(len(lens)), n_chunks)
        excl = np.concatenate([[0], np.cumsum(n_chunks)[:-1]])
        ci = np.arange(total_c) - np.repeat(excl, n_chunks)
        starts = ci * stride
        clens = np.minimum(size, lens[doc_idx] - starts)
        base = offsets[:-1][doc_idx] + starts
        tot = int(clens.sum())
        cexcl = np.concatenate([[0], np.cumsum(clens)[:-1]])
        gather = np.repeat(base, clens) \
            + (np.arange(tot) - np.repeat(cexcl, clens))
        flat = toks.flatten()
        chunk_off = np.concatenate([[0], np.cumsum(clens)]).astype(
            np.int32)
        lists = pa.ListArray.from_arrays(
            pa.array(chunk_off, type=pa.int32()),
            flat.take(pa.array(gather)))
        return pa.table({
            "doc_id": pa.array(ids[doc_idx].astype(np.int64)),
            "chunk_id": pa.array(ci.astype(np.int64)),
            "n_tokens": pa.array(clens.astype(np.int64)),
            "chunk": pc.binary_join(lists, " "),
        })

    return ds.map_batches(chunker, batch_format="pyarrow")


# --------------------------------------------------------------- line explode
def _explode(tbl: pa.Table, id_col: str, text_col: str, sep: str) -> pa.Table:
    lists = pc.split_pattern(tbl[text_col], sep)
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    flat = lists.flatten()
    offs = lists.offsets.to_numpy(zero_copy_only=False)
    lens = np.diff(offs)
    ids = np.repeat(tbl[id_col].to_numpy(zero_copy_only=False), lens)
    # 1-based line number within each document
    ln = np.arange(offs[-1], dtype=np.int64) - np.repeat(offs[:-1], lens) + 1
    return pa.table({id_col: pa.array(ids), "ln": pa.array(ln), "line": flat})


def explode_lines(ds, id_col: str = "doc_id", text_col: str = "text",
                  sep: str = "\n"):
    """Dataset(id, text) → Dataset(id, ln, line): one row per line, ``ln``
    1-based.  Stateless vectorized explode; block count is preserved."""
    return ds.map_batches(lambda t: _explode(t, id_col, text_col, sep),
                          batch_format="pyarrow")


def rewrap_words(ds, id_col: str = "doc_id", text_col: str = "text",
                 words_per_line: int = 3):
    """Deterministically re-wrap each document into consecutive
    ``words_per_line``-word lines → Dataset(id, ln, line).

    Exists so single-line corpora (like the synthetic ``documents`` table)
    still exercise line-level cleaning; SQL twin = list slicing over
    ``string_split(text, ' ')``."""
    k = words_per_line

    def rewrap(tbl: pa.Table) -> pa.Table:
        lists = pc.split_pattern(tbl[text_col], " ")
        if isinstance(lists, pa.ChunkedArray):
            lists = lists.combine_chunks()
        flat = lists.flatten()
        offs = lists.offsets.to_numpy(zero_copy_only=False)
        wlens = np.diff(offs)
        nlines = -(-wlens // k)  # ceil
        ids = np.repeat(tbl[id_col].to_numpy(zero_copy_only=False), nlines)
        total = int(nlines.sum())
        ln = (np.arange(total, dtype=np.int64)
              - np.repeat(np.concatenate(([0], np.cumsum(nlines)[:-1])), nlines)
              + 1)
        # lines are CONTIGUOUS k-word slices, so their start positions (plus
        # the final end) form a valid ListArray offset vector over the flat
        # word array — the join is then ONE vectorized binary_join kernel
        starts = np.repeat(offs[:-1], nlines) + (ln - 1) * k
        line_offs = pa.array(np.append(starts, offs[-1]).astype(np.int32))
        lines = pc.binary_join(pa.ListArray.from_arrays(line_offs, flat), " ")
        return pa.table({id_col: pa.array(ids), "ln": pa.array(ln),
                         "line": lines})

    return ds.map_batches(rewrap, batch_format="pyarrow")


# ----------------------------------------------------- frequent-line removal
def frequent_line_hashes(lines, line_col: str = "line", min_count: int = 2,
                         buckets: int = 64,
                         driver_merge_limit: int = 2_000_000) -> np.ndarray:
    """Hashes of lines occurring ≥ ``min_count`` times corpus-wide.

    Block-local (hash → count) partials via ``np.unique``, then a
    size-aware merge: when the partial table is small
    (≤ ``driver_merge_limit`` rows, 24 B each) a single driver groupby-sum
    finishes in milliseconds; above it, ONE bucket shuffle + per-bucket
    exact sums (Ray's sort shuffle carries seconds of fixed cost that only
    pays for itself at scale).  Returns a SORTED uint64 array (ready for
    ``np.isin``/searchsorted)."""

    def partial(tbl: pa.Table) -> pa.Table:
        h = fast_hash64_array(tbl[line_col])
        uh, cnt = np.unique(h, return_counts=True)
        return pa.table({
            "__b": pa.array(((uh * np.uint64(0x9E3779B97F4A7C15))
                             % np.uint64(buckets)).astype(np.int64)),
            "h": pa.array(uh), "cnt": pa.array(cnt.astype(np.int64)),
        })

    P = lines.map_batches(partial, batch_format="pyarrow").materialize()
    if P.count() <= driver_merge_limit:
        tbl = pa.concat_tables(list(P.iter_batches(batch_format="pyarrow")))
        pdf = tbl.select(["h", "cnt"]).to_pandas()
        tot = pdf.groupby("h", as_index=False)["cnt"].sum()
        return np.sort(tot.loc[tot["cnt"] >= min_count, "h"]
                       .to_numpy(dtype=np.uint64))

    def frequent(pdf: pd.DataFrame) -> pd.DataFrame:
        tot = pdf.groupby("h", as_index=False)["cnt"].sum()
        return tot[tot["cnt"] >= min_count][["h"]]

    rows = (P.groupby("__b").map_groups(frequent, batch_format="pandas")
            .take_all())
    return np.sort(np.array([r["h"] for r in rows], dtype=np.uint64))


def remove_frequent_lines(lines, line_col: str = "line", min_count: int = 2,
                          buckets: int = 64):
    """C4-style boilerplate filter: drop every line whose text occurs
    ≥ ``min_count`` times across the corpus.  Two streaming passes over
    ``lines`` (materialize it first if recompute is expensive)."""
    freq = frequent_line_hashes(lines, line_col, min_count, buckets)
    ref = ray.put(freq)

    def keep(tbl: pa.Table) -> pa.Table:
        fr = ray.get(ref)
        h = fast_hash64_array(tbl[line_col])
        return tbl.filter(pa.array(~np.isin(h, fr)))

    return lines.map_batches(keep, batch_format="pyarrow")


# ------------------------------------------------------------ decontamination
def _word_ngram_hashes(texts, n: int):
    """Vectorized word-n-gram hashing: → (hashes uint64[m], doc_idx int64[m])
    where ``doc_idx`` maps each n-gram to its row in ``texts``.  Documents
    shorter than ``n`` words contribute nothing."""
    lists = pc.split_pattern(texts, " ")
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    flat = lists.flatten()
    offs = lists.offsets.to_numpy(zero_copy_only=False)
    lens = np.diff(offs)
    wh = fast_hash64_array(flat)
    if len(wh) < n:
        return (np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64))
    sw = np.lib.stride_tricks.sliding_window_view(wh, n)
    coef = np.empty(n, dtype=np.uint64)
    coef[0] = 1
    for i in range(1, n):  # n iterations, not rows
        coef[i] = coef[i - 1] * np.uint64(0x100000001B3)  # wraps mod 2^64
    gh = (sw * coef[::-1]).sum(axis=1, dtype=np.uint64)
    m = len(gh)
    doc_of = np.repeat(np.arange(len(lens), dtype=np.int64), lens)[:m]
    # a window starting at flat position i belongs to doc d iff it ends
    # inside d: i + n ≤ offs[d+1]
    valid = (np.arange(m, dtype=np.int64) + n) <= offs[doc_of + 1]
    return gh[valid], doc_of[valid]


def contamination_set(test_ds, text_col: str = "text", n: int = 5) -> np.ndarray:
    """Distinct word-n-gram hashes of the (small) held-out side — per-block
    distinct, driver union.  Returns a SORTED uint64 array to broadcast."""

    def distinct(tbl: pa.Table) -> pa.Table:
        gh, _ = _word_ngram_hashes(tbl[text_col], n)
        return pa.table({"h": pa.array(np.unique(gh))})

    rows = test_ds.map_batches(distinct, batch_format="pyarrow").take_all()
    return np.unique(np.array([r["h"] for r in rows], dtype=np.uint64))


def flag_contaminated(ds, ngram_ref, text_col: str = "text", n: int = 5,
                      out_col: str = "contaminated"):
    """Add ``out_col``: does the document share ANY word n-gram with the
    broadcast contamination set (``ray.put`` of ``contamination_set``)?"""

    def flag(tbl: pa.Table) -> pa.Table:
        cset = ray.get(ngram_ref)
        gh, doc_idx = _word_ngram_hashes(tbl[text_col], n)
        hit = np.zeros(tbl.num_rows, dtype=bool)
        if len(gh):
            np.logical_or.at(hit, doc_idx, np.isin(gh, cset))
        return tbl.append_column(out_col, pa.array(hit))

    return ds.map_batches(flag, batch_format="pyarrow")


# ---------------------------------------------------------------- redaction
def mask_pattern(ds, col: str, pattern: str, replacement: str,
                 out_col: str | None = None):
    """Vectorized regex redaction (RE2 via Arrow — same engine DuckDB's
    ``regexp_replace`` uses, so oracles match byte-for-byte).  The PII-
    masking class of ops: emails/phones/IDs → placeholder tokens."""
    out = out_col or col

    def mask(tbl: pa.Table) -> pa.Table:
        masked = pc.replace_substring_regex(tbl[col], pattern=pattern,
                                            replacement=replacement)
        if out in tbl.column_names:
            return tbl.set_column(tbl.column_names.index(out), out, masked)
        return tbl.append_column(out, masked)

    return ds.map_batches(mask, batch_format="pyarrow")


# ------------------------------------------------- duplicate-span statistics
def _dual_window_hashes(texts, k: int):
    """SQL-parity tokenization (``tokenize_column``: Python ``str``
    whitespace split, empties dropped — the twins' ``WS_SQL``) → per-document 1-based window start positions and
    TWO independent 64-bit window hashes.

    Window equality must mirror word-sequence equality: each window hash is
    a polynomial mix over per-word hashes, and the two combos start from
    word hashes with DIFFERENT seeds — a single-word 64-bit collision
    therefore breaks at most one combo, giving dedup_exact-grade 128-bit
    confidence without materializing window strings."""
    from ..functions.tokenize import tokenize_column

    toks = tokenize_column(texts)
    flat = toks.flatten()
    offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    lens = np.diff(offs)
    empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
             np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.uint64))
    if len(flat) < k:
        return empty

    def combine(wh: np.ndarray, base: int) -> np.ndarray:
        sw = np.lib.stride_tricks.sliding_window_view(wh, k)
        coef = np.array([pow(base, i, 1 << 64) for i in range(k)],
                        dtype=np.uint64)
        return (sw * coef[::-1]).sum(axis=1, dtype=np.uint64)

    g1 = combine(fast_hash64_array(flat, seed=42), 0x100000001B3)
    g2 = combine(fast_hash64_array(flat, seed=9001),
                 0x9E3779B97F4A7C15)
    m = len(g1)
    doc_of = np.repeat(np.arange(len(lens), dtype=np.int64), lens)[:m]
    valid = (np.arange(m, dtype=np.int64) + k) <= offs[doc_of + 1]
    pos = np.arange(m, dtype=np.int64) - offs[doc_of] + 1  # 1-based in doc
    return doc_of[valid], pos[valid], g1[valid], g2[valid]


def dup_span_stats(ds, text_col: str = "text", id_col: str = "doc_id",
                   k: int = 8, buckets: int = 64,
                   broadcast_limit: int = 2_000_000):
    """ExactSubstr-style duplicate-span analysis (Lee et al. 2022,
    "Deduplicating Training Data Makes Language Models Better"): for every
    document, how much of it is covered by word ``k``-grams that occur ≥ 2
    times ANYWHERE in the corpus (including elsewhere in the same doc).

    → Dataset(id, n_words, n_windows, n_dup_windows, n_dup_words) where
    ``n_dup_words`` is the exact interval-union length of the flagged
    windows — the number of word positions a span-removal pass would cut.

    Scale plan (the corpus text moves ZERO times):
    1. one streaming pass emits (id, pos, h1, h2) window rows — 28 B each;
    2. block-local ``np.unique`` pre-counts collapse in-block repeats, one
       small ``groupby.sum`` finds globally-duplicated window hashes;
    3. membership goes back to the window rows either by ONE broadcast
       (sorted dup array + searchsorted, when the dup set ≤
       ``broadcast_limit``) or a partitioned semi-join (no driver
       structure, when boilerplate-heavy corpora blow past it);
    4. per-doc finish: one ``groupby(id)`` over FLAGGED windows only
       (duplicated spans, not the corpus) computes counts + exact
       interval-union coverage vectorized.
    """

    def windows(tbl: pa.Table) -> pa.Table:
        d, p, g1, g2 = _dual_window_hashes(tbl[text_col], k)
        ids = tbl[id_col].to_numpy(zero_copy_only=False)[d]
        return pa.table({id_col: pa.array(ids), "pos": pa.array(p),
                         "h1": pa.array(g1), "h2": pa.array(g2)})

    W = ds.map_batches(windows, batch_format="pyarrow").materialize()

    # --- global duplicate detection on (h1, h2): block partials, tiny sum
    def partial(tbl: pa.Table) -> pa.Table:
        pair = np.stack([tbl["h1"].to_numpy(zero_copy_only=False),
                         tbl["h2"].to_numpy(zero_copy_only=False)], axis=1)
        u, cnt = np.unique(pair, axis=0, return_counts=True) if len(pair) \
            else (np.empty((0, 2), dtype=np.uint64),
                  np.empty(0, dtype=np.int64))
        return pa.table({
            "__b": pa.array(((u[:, 0] * np.uint64(0x9E3779B97F4A7C15))
                             % np.uint64(buckets)).astype(np.int64)),
            "h1": pa.array(u[:, 0]), "h2": pa.array(u[:, 1]),
            "cnt": pa.array(cnt.astype(np.int64))})

    def dups(pdf: pd.DataFrame) -> pd.DataFrame:
        tot = pdf.groupby(["h1", "h2"], as_index=False)["cnt"].sum()
        return tot.loc[tot["cnt"] >= 2, ["h1", "h2"]]

    D = (W.map_batches(partial, batch_format="pyarrow")
          .groupby("__b").map_groups(dups, batch_format="pandas")
          # normalize to Arrow blocks: hash_join's column ops need them
          .map_batches(lambda t: t, batch_format="pyarrow")
          .materialize())

    if D.count() <= broadcast_limit:
        dup_pdf = D.to_pandas()
        if len(dup_pdf) == 0:  # empty datasets lose their column names
            s1 = s2 = np.empty(0, dtype=np.uint64)
        else:
            order = np.lexsort((dup_pdf["h2"].to_numpy(dtype=np.uint64),
                                dup_pdf["h1"].to_numpy(dtype=np.uint64)))
            s1 = dup_pdf["h1"].to_numpy(dtype=np.uint64)[order]
            s2 = dup_pdf["h2"].to_numpy(dtype=np.uint64)[order]
        ref = ray.put((s1, s2))

        def flag(tbl: pa.Table) -> pa.Table:
            a1, a2 = ray.get(ref)
            h1 = tbl["h1"].to_numpy(zero_copy_only=False)
            h2 = tbl["h2"].to_numpy(zero_copy_only=False)
            lo = np.searchsorted(a1, h1, side="left")
            hi = np.searchsorted(a1, h1, side="right")
            hit = np.zeros(len(h1), dtype=bool)
            one = hi - lo == 1  # almost every h1 range is 0 or 1 wide
            hit[one] = a2[lo[one]] == h2[one]
            for i in np.flatnonzero(hi - lo > 1):  # h1 collisions: ~never
                hit[i] = h2[i] in a2[lo[i]:hi[i]]
            return tbl.filter(pa.array(hit))

        flagged = W.map_batches(flag, batch_format="pyarrow")
    else:
        from .relational import hash_join

        flagged = hash_join(W, D, ["h1", "h2"], ["h1", "h2"], how="semi",
                            buckets=buckets)

    # per-doc interval union runs in ~64 BUCKET groups, not one map_groups
    # dispatch per document (10⁴–10⁶ tiny groups cost more in Ray dispatch
    # + DataFrame builds than the union itself — the triangle_count lesson)
    def add_doc_bucket(tbl: pa.Table) -> pa.Table:
        d = tbl[id_col].to_numpy(zero_copy_only=False)
        return tbl.append_column(
            "__b", pa.array((d % 64).astype(np.int64)))

    def per_bucket(pdf: pd.DataFrame) -> pd.DataFrame:
        order = np.lexsort((pdf["pos"].to_numpy(dtype=np.int64),
                            pdf[id_col].to_numpy()))
        docs = pdf[id_col].to_numpy()[order]
        pos = pdf["pos"].to_numpy(dtype=np.int64)[order]
        starts = np.concatenate(
            [[0], np.flatnonzero(docs[1:] != docs[:-1]) + 1, [len(docs)]])
        ids, nw, nd = [], [], []
        for a, b in zip(starts[:-1], starts[1:]):
            p = pos[a:b]
            ends = p + k - 1
            new = np.ones(len(p), dtype=bool)
            if len(p) > 1:
                new[1:] = p[1:] > np.maximum.accumulate(ends)[:-1]
            seg_end = np.maximum.reduceat(ends, np.flatnonzero(new))
            ids.append(docs[a])
            nw.append(len(p))
            nd.append(int((seg_end - p[new] + 1).sum()))
        return pd.DataFrame({id_col: ids,
                             "n_dup_windows": np.array(nw, dtype=np.int64),
                             "n_dup_words": np.array(nd, dtype=np.int64)})

    per = (flagged.map_batches(add_doc_bucket, batch_format="pyarrow")
           .groupby("__b").map_groups(per_bucket, batch_format="pandas"))

    def doc_stats(tbl: pa.Table) -> pa.Table:
        from ..functions.tokenize import tokenize_column

        toks = tokenize_column(tbl[text_col])
        lens = np.diff(toks.offsets.to_numpy(zero_copy_only=False)
                       .astype(np.int64))
        return pa.table({id_col: tbl[id_col],
                         "n_words": pa.array(lens),
                         "n_windows": pa.array(np.maximum(lens - k + 1, 0))})

    from .relational import hash_join

    docs = ds.map_batches(doc_stats, batch_format="pyarrow")
    if flagged.count() == 0:  # no duplicated window anywhere
        return docs.map_batches(
            lambda t: t.append_column(
                "n_dup_windows", pa.array(np.zeros(t.num_rows, np.int64))
            ).append_column(
                "n_dup_words", pa.array(np.zeros(t.num_rows, np.int64))),
            batch_format="pyarrow")
    per = per.map_batches(  # avoid key-name overlap in the left join
        lambda t: t.rename_columns(["__rid", "n_dup_windows",
                                    "n_dup_words"]),
        batch_format="pyarrow")
    joined = hash_join(docs, per, [id_col], ["__rid"], how="left",
                       buckets=buckets)

    def finish(tbl: pa.Table) -> pa.Table:
        return pa.table({
            id_col: tbl[id_col],
            "n_words": tbl["n_words"],
            "n_windows": tbl["n_windows"],
            "n_dup_windows": pc.fill_null(
                pc.cast(tbl["n_dup_windows"], pa.int64()), 0),
            "n_dup_words": pc.fill_null(
                pc.cast(tbl["n_dup_words"], pa.int64()), 0)})

    return joined.map_batches(finish, batch_format="pyarrow")


# ------------------------------------------------------- balance downsample
def balance_downsample(ds, group_col: str = "lang", id_col: str = "doc_id",
                       scale: int = 1_000_000):
    """Deterministic hash-based stratified downsample that rebalances the
    corpus: every group is thinned to (approximately) the size of the
    SMALLEST group — the classic over-represented-language / majority-class
    downsample of training-data prep, with none of ``random_shuffle``'s
    nondeterminism.

    A row survives iff

        (stable_hash60(str(id)) % scale) * count(group) < min_count * scale

    — pure int64 arithmetic, so the decision is reproducible run-to-run,
    independent of partitioning, and bit-equal to the SQL twin (DuckDB
    computes the identical MD5-derived hash; ``functions/hashing.py``
    module docstring).  In expectation each group keeps ``min_count`` rows;
    the realized count is binomial around it (hash ≈ uniform), which is the
    standard contract for hash sampling — exactness of WHICH rows, not of
    the count.

    Scale: group sizes are a two-phase count (block partials → one tiny
    groupby over #groups rows) broadcast as one dict — #groups is
    vocabulary-small (languages, sources) by contract.  The filter pass is
    stateless map-only; rows never shuffle.  ``stable_hash60_array`` is the
    MD5 loop kept for oracle parity — swap ``fast_hash64_array`` here when
    no SQL twin must reproduce the choice (same trade as HashVectorizer).
    """
    from ..functions.hashing import stable_hash60_array

    def partial_counts(tbl: pa.Table) -> pa.Table:
        arr = tbl[group_col]
        vc = pc.value_counts(arr)
        return pa.table({"g": vc.field("values"),
                         "n": pc.cast(vc.field("counts"), pa.int64())})

    counts = {r["g"]: r["n"] for r in
              ds.map_batches(partial_counts, batch_format="pyarrow")
              .groupby("g").sum("n")
              .map_batches(lambda t: t.rename_columns(["g", "n"]),
                           batch_format="pyarrow").take_all()}
    if not counts:
        return ds
    m = min(counts.values())

    def keep(tbl: pa.Table) -> pa.Table:
        ids = tbl[id_col].to_numpy(zero_copy_only=False)
        h = stable_hash60_array([str(i) for i in ids]) % scale
        g = tbl[group_col].to_numpy(zero_copy_only=False)
        n_g = np.array([counts[x] for x in g], dtype=np.int64)
        return tbl.filter(pa.array(h * n_g < m * scale))

    return ds.map_batches(keep, batch_format="pyarrow")


def mixture_sample(ds, group_col: str = "source", id_col: str = "doc_id",
                   scale: int = 1_000_000):
    """Temperature-based data-mixture sampling (α = 1/2) — the
    pretraining-mixture primitive (GPT-3 / PaLM style): target sampling
    weights p_s ∝ n_s^α flatten the source distribution, and the corpus
    is thinned to the LARGEST dataset achievable under those proportions
    without upsampling, i.e. keep fraction

        t_s = √n_s · T / n_s        with  T = min_s √n_s

    (α = 0 degenerates to ``balance_downsample``; α = 1 keeps
    everything).  A row survives iff

        (stable_hash60(str(id)) % scale) < ((√n_s · T) / n_s) · scale

    — the hash side is exact int64, the threshold side is the identical
    IEEE sqrt/multiply/divide chain in numpy and DuckDB, so the decision
    is partition-invariant, run-to-run stable, and bit-equal to the SQL
    twin (the ``balance_downsample`` contract with an irrational

    threshold: correctly-rounded ops on identical operands).

    Scale: identical plan to ``balance_downsample`` — two-phase group
    census broadcast as one #sources dict, then a stateless map-only
    filter; rows never shuffle.
    """
    from ..functions.hashing import stable_hash60_array

    def partial_counts(tbl: pa.Table) -> pa.Table:
        vc = pc.value_counts(tbl[group_col])
        return pa.table({"g": vc.field("values"),
                         "n": pc.cast(vc.field("counts"), pa.int64())})

    counts = {r["g"]: r["n"] for r in
              ds.map_batches(partial_counts, batch_format="pyarrow")
              .groupby("g").sum("n")
              .map_batches(lambda t: t.rename_columns(["g", "n"]),
                           batch_format="pyarrow").take_all()}
    if not counts:
        return ds
    t_cap = min(np.sqrt(np.float64(n)) for n in counts.values())
    thr = {g: (np.sqrt(np.float64(n)) * t_cap) / np.float64(n) * scale
           for g, n in counts.items()}

    def keep(tbl: pa.Table) -> pa.Table:
        ids = tbl[id_col].to_numpy(zero_copy_only=False)
        h = (stable_hash60_array([str(i) for i in ids]) % scale).astype(
            np.float64)
        g = tbl[group_col].to_numpy(zero_copy_only=False)
        t = np.array([thr[x] for x in g], dtype=np.float64)
        return tbl.filter(pa.array(h < t))

    return ds.map_batches(keep, batch_format="pyarrow")


def hash_split(ds, fractions: dict[str, float] | None = None,
               id_col: str = "doc_id", out_col: str = "split",
               scale: int = 1_000_000):
    """Deterministic train/test/validation split: the reproducible
    replacement for random splitting in every ML data-prep pipeline.

    Each row lands in the first named bucket whose cumulative integer
    threshold (``round(cum_fraction · scale)``, half-away like the query
    oracles) exceeds ``stable_hash60(str(id)) % scale`` — pure int64
    comparisons, so membership is partition-invariant, run-to-run stable,
    follows the row on re-reads (no split files to version), and
    bit-equal to a SQL CASE over the same MD5 hash.  Fractions must sum
    to 1.  Stateless map-only; rows never shuffle."""
    from ..functions.vectors import half_away

    from ..functions.hashing import stable_hash60_array

    fractions = fractions or {"train": 0.8, "test": 0.1, "val": 0.1}
    names = list(fractions)
    if abs(sum(fractions.values()) - 1.0) > 1e-9:
        raise ValueError("fractions must sum to 1")
    cums = np.cumsum([fractions[n] for n in names])
    thr = half_away(cums * scale).astype(np.int64)
    thr[-1] = scale  # guard float dust: the last bucket is exhaustive

    def tag(tbl: pa.Table) -> pa.Table:
        ids = tbl[id_col].to_numpy(zero_copy_only=False)
        h = stable_hash60_array([str(i) for i in ids]) % scale
        idx = np.searchsorted(thr, h, side="right")
        lab = np.array(names, dtype=object)[idx]
        return tbl.append_column(out_col, pa.array(lab, type=pa.string()))

    return ds.map_batches(tag, batch_format="pyarrow")


def weighted_sample(ds, weight_col: str, k: int,
                    id_col: str = "doc_id", seed: int = 0,
                    scale: int = 1_000_000):
    """Deterministic weighted sampling WITHOUT replacement (Efraimidis &
    Spirakis 2006 A-Res): each row gets the key ``u^(1/w)`` with
    ``u = (h+1)/(scale+1)`` from its seeded stable hash, and the k
    largest keys are the sample — inclusion probability proportional to
    weight, reproducible (seed = epoch), no RNG state.

    Exactness contract: ``u`` and ``1/w`` are correctly-rounded doubles
    from exact ints on both twins, and ``pow`` is the same libm call in
    numpy and DuckDB, so the selected SET is bit-stable and oracle-equal
    (ties broken by ascending id).  Weights must be ≥ 1 (raise below).

    Plan: per-block partial top-k under the global (key DESC, id) order,
    then one tiny merge of ≤ blocks × k candidate rows — the bm25/
    top-revenue pre-top-k pattern; payloads never move."""
    from ..functions.hashing import stable_hash60_array

    def local_topk(tbl: pa.Table) -> pa.Table:
        ids = tbl[id_col].to_numpy(zero_copy_only=False)
        w = tbl[weight_col].to_numpy(zero_copy_only=False).astype(
            np.float64)
        if (w < 1).any():
            raise ValueError("weights must be >= 1")
        h = stable_hash60_array([f"{seed}:{i}" for i in ids]) % scale
        u = (h + 1.0) / (scale + 1.0)
        key = np.power(u, 1.0 / w)
        order = np.lexsort((ids, -key))[:k]
        return pa.table({
            "id": pa.array(ids[order].astype(np.int64)),
            "key": pa.array(key[order]),
        })

    rows = ds.map_batches(local_topk, batch_format="pyarrow").take_all()
    import pandas as pd

    cand = pd.DataFrame({"id": [r["id"] for r in rows],
                         "key": [r["key"] for r in rows]})
    cand = cand.sort_values(["key", "id"],
                            ascending=[False, True]).head(k)
    return cand["id"].sort_values().reset_index(drop=True)
