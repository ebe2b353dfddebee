r"""Text analysis stages: token counts, quality stats, language ID,
document fingerprints.  All vectorized per Arrow batch; language ID keeps
its model in an actor pool (compiled once per actor).

SQL-oracle notes: ``n_tokens`` matches
``len(list_filter(string_split_regex(text, WS_SQL), x -> x <> ''))`` (the
shared Python ``str`` whitespace rule, ``functions/tokenize.py``) and
``n_chars`` matches ``length(text)`` exactly; the heuristics (quality score,
lang id) are checked by pytest determinism instead.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.tokenize import tokenize_column

__all__ = ["text_stats_table", "add_text_stats", "LangId", "add_lang_id",
           "add_fingerprint", "repetition_stats_table",
           "add_repetition_stats", "vocab_growth"]

_STOPWORDS = {
    "the", "and", "of", "a", "to", "in", "is", "it", "that", "for", "on",
    "with", "as", "was", "at", "by", "an", "be", "this", "are",
}


def text_stats_table(tbl: pa.Table, col: str = "text") -> pa.Table:
    """Append n_chars, n_tokens, avg_token_len, stopword_ratio, digit_ratio,
    upper_ratio, quality_score (all vectorized)."""
    text = tbl[col]
    n_chars = pc.utf8_length(text)
    toks = tokenize_column(text)
    offsets = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    n_tokens = np.diff(offsets)
    flat = toks.flatten()
    tok_lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
    # segmented sums over tokens per row
    csum = np.concatenate([[0], np.cumsum(tok_lens, dtype=np.int64)])
    sum_len = csum[offsets[1:]] - csum[offsets[:-1]]
    avg_tok = np.where(n_tokens > 0, sum_len / np.maximum(n_tokens, 1), 0.0)
    is_stop = pc.is_in(
        pc.utf8_lower(flat), value_set=pa.array(sorted(_STOPWORDS))
    ).to_numpy(zero_copy_only=False)
    cstop = np.concatenate([[0], np.cumsum(is_stop, dtype=np.int64)])
    n_stop = cstop[offsets[1:]] - cstop[offsets[:-1]]
    stop_ratio = np.where(n_tokens > 0, n_stop / np.maximum(n_tokens, 1), 0.0)
    n_char_np = n_chars.to_numpy(zero_copy_only=False).astype(np.float64)
    n_digit = pc.utf8_length(
        pc.replace_substring_regex(text, pattern=r"[^0-9]", replacement="")
    ).to_numpy(zero_copy_only=False)
    n_upper = pc.utf8_length(
        pc.replace_substring_regex(text, pattern=r"[^A-Z]", replacement="")
    ).to_numpy(zero_copy_only=False)
    digit_ratio = np.where(n_char_np > 0, n_digit / np.maximum(n_char_np, 1), 0.0)
    upper_ratio = np.where(n_char_np > 0, n_upper / np.maximum(n_char_np, 1), 0.0)
    # simple composable quality score in [0,1]: long enough, word-like,
    # not digit-heavy
    length_term = np.clip(n_tokens / 20.0, 0.0, 1.0)
    word_term = np.clip((avg_tok - 1.0) / 6.0, 0.0, 1.0)
    digit_term = 1.0 - np.clip(digit_ratio * 4.0, 0.0, 1.0)
    quality = (length_term + word_term + digit_term) / 3.0
    return (
        tbl.append_column("n_chars_calc", n_chars)
        .append_column("n_tokens", pa.array(n_tokens))
        .append_column("avg_token_len", pa.array(avg_tok))
        .append_column("stopword_ratio", pa.array(stop_ratio))
        .append_column("digit_ratio", pa.array(digit_ratio))
        .append_column("upper_ratio", pa.array(upper_ratio))
        .append_column("quality_score", pa.array(quality))
    )


def add_text_stats(ds, col: str = "text"):
    return ds.map_batches(lambda t: text_stats_table(t, col), batch_format="pyarrow")


def repetition_stats_table(
    tbl: pa.Table, id_col: str = "doc_id", col: str = "text",
    dup_max: float = 0.6, top_bigram_max: float = 0.05,
) -> pa.Table:
    """Gopher-style WITHIN-document repetition signals (Rae et al. 2021,
    Table A1): the quality rules that catch boilerplate and degenerate
    keyboard-mash text the cross-document dedup family cannot see.

    Per document:
    - ``dup_token_frac``  = (n_tokens − n_distinct_tokens) / n_tokens —
      the fraction of token occurrences that are repeats beyond the first;
    - ``top_bigram_frac`` = occurrences of the document's most frequent
      word 2-gram / (n_tokens − 1) — loopy templates score high;
    - ``keep``            = 1 iff both are under their thresholds.

    Scale: a document is one row, so every statistic is computed inside
    the block where the document lives — the whole operator is map-only,
    ZERO exchanges at any corpus size.  Fractions are IEEE divisions of
    the same two int64s the SQL twin divides, hence bit-equal.
    """
    import pandas as pd

    toks = tokenize_column(tbl[col])
    offsets = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    n_tokens = np.diff(offsets)
    flat = toks.flatten().to_numpy(zero_copy_only=False)
    ids = np.repeat(tbl[id_col].to_numpy(zero_copy_only=False), n_tokens)
    n = len(tbl)

    # distinct tokens per document (doc lives in this block by construction)
    if len(flat):
        pdf = pd.DataFrame({"d": ids, "t": flat})
        nd = pdf.groupby("d")["t"].nunique()
        nd = nd.reindex(tbl[id_col].to_numpy(zero_copy_only=False),
                        fill_value=0).to_numpy()
    else:
        nd = np.zeros(n, dtype=np.int64)

    # most frequent bigram count per document
    top = np.zeros(n, dtype=np.int64)
    if len(flat) >= 2:
        same = ids[:-1] == ids[1:]
        if same.any():
            bdf = pd.DataFrame({"d": ids[:-1][same], "w1": flat[:-1][same],
                                "w2": flat[1:][same]})
            mc = (bdf.groupby(["d", "w1", "w2"]).size()
                  .groupby(level=0).max())
            top = mc.reindex(tbl[id_col].to_numpy(zero_copy_only=False),
                             fill_value=0).to_numpy()

    nt = n_tokens.astype(np.float64)
    dup_frac = np.where(n_tokens > 0,
                        (n_tokens - nd) / np.maximum(nt, 1.0), 0.0)
    nb = (n_tokens - 1).astype(np.float64)
    top_frac = np.where(n_tokens > 1, top / np.maximum(nb, 1.0), 0.0)
    keep = ((dup_frac <= dup_max) & (top_frac <= top_bigram_max)
            ).astype(np.int64)
    return (tbl.append_column("n_tokens", pa.array(n_tokens))
            .append_column("dup_token_frac", pa.array(dup_frac))
            .append_column("top_bigram_frac", pa.array(top_frac))
            .append_column("keep", pa.array(keep)))


def add_repetition_stats(ds, id_col: str = "doc_id", col: str = "text",
                         dup_max: float = 0.6, top_bigram_max: float = 0.05):
    return ds.map_batches(
        lambda t: repetition_stats_table(t, id_col, col, dup_max,
                                         top_bigram_max),
        batch_format="pyarrow")


class LangId:
    """n-gram/charset heuristic language ID as an actor-pool stage.

    Stateful setup (profiles, regexes) happens once per actor in
    ``__init__`` — the map_batches(Cls, concurrency=N) pattern.  Detects a
    small fixed set {en, de, fr, es, zh, unknown} from characteristic
    letters/words; deterministic by construction.
    """

    PROFILES = {
        "en": {"the", "and", "of", "to", "is", "that", "it", "you", "with"},
        "de": {"der", "die", "das", "und", "ist", "nicht", "ein", "mit", "zu"},
        "fr": {"le", "la", "les", "et", "est", "une", "que", "pour", "dans"},
        "es": {"el", "la", "los", "que", "es", "una", "por", "para", "con"},
    }

    def __init__(self, col: str = "text", out: str = "lang_pred"):
        self.col = col
        self.out = out
        # per-actor setup: language marker arrays, sorted for is_in kernels
        self.langs = sorted(self.PROFILES)
        self.word_arrays = {
            lang: pa.array(sorted(ws)) for lang, ws in self.PROFILES.items()
        }

    def __call__(self, tbl: pa.Table) -> pa.Table:
        """Vectorized: tokenize once, one ``is_in`` kernel per language over
        the flat DISTINCT-per-row token array, segmented sums, argmax."""
        text = tbl[self.col]
        n = len(tbl)
        toks = tokenize_column(pc.utf8_lower(text))
        offsets = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        flat = toks.flatten()
        # score = count of profile-marker tokens per row per language
        scores = np.zeros((n, len(self.langs)), dtype=np.int64)
        for j, lang in enumerate(self.langs):
            hit = pc.is_in(flat, value_set=self.word_arrays[lang]).to_numpy(
                zero_copy_only=False
            )
            csum = np.concatenate([[0], np.cumsum(hit, dtype=np.int64)])
            scores[:, j] = csum[offsets[1:]] - csum[offsets[:-1]]
        best = scores.argmax(axis=1)
        best_score = scores[np.arange(n), best]
        preds = np.where(
            best_score > 0, np.array(self.langs, dtype=object)[best], "unknown"
        )
        # CJK detection overrides (vectorized regex kernel)
        cjk = pc.match_substring_regex(text, r"[一-鿿]").to_numpy(
            zero_copy_only=False
        )
        preds = np.where(cjk, "zh", preds)
        return tbl.append_column(self.out, pa.array(preds.tolist(), type=pa.string()))


def add_lang_id(ds, col: str = "text", out: str = "lang_pred", concurrency: int = 2):
    return ds.map_batches(
        LangId, fn_constructor_kwargs={"col": col, "out": out},
        batch_format="pyarrow", concurrency=concurrency,
    )


_FNV_PRIME = np.uint64(1099511628211)
_FNV_OFFSET = np.uint64(14695981039346656037)


def add_fingerprint(ds, col: str = "text", out: str = "fingerprint",
                    stable: bool = False):
    """Order-sensitive rolling hash over whitespace tokens (doc
    fingerprint): fp = fold(FNV_offset, (fp ⊕ token_hash)·FNV_prime)
    mod 2⁶⁴.  ``stable=True`` draws token hashes from the SQL-twinned
    codepoint polynomial (``poly_hash64_array``), making the WHOLE
    fingerprint reproducible in DuckDB (the fold is a ``list_reduce``
    with a 32/32-split xor — see the `fingerprint` oracle); default is
    the polars/xxhash path."""
    from ..functions.hashing import fast_hash64_array, poly_hash64_array

    def fp(tbl: pa.Table) -> pa.Table:
        toks = tokenize_column(tbl[col])
        offsets = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        lengths = np.diff(offsets)
        flat = toks.flatten()
        hasher = poly_hash64_array if stable else fast_hash64_array
        th = (hasher(flat)
              if len(flat) else np.array([], dtype=np.uint64))
        n = len(tbl)
        out_fp = np.full(n, _FNV_OFFSET, dtype=np.uint64)
        max_len = int(lengths.max()) if n and lengths.size else 0
        starts = offsets[:-1]
        for j in range(max_len):
            live = lengths > j
            idx = starts[live] + j
            out_fp[live] = (out_fp[live] ^ th[idx]) * _FNV_PRIME
        return tbl.append_column(out, pa.array(out_fp.astype(np.int64)))

    return ds.map_batches(fp, batch_format="pyarrow")


def vocab_growth(ds, n_checkpoints: int = 5, id_col: str = "doc_id",
                 text_col: str = "text") -> "pd.DataFrame":
    """Heaps-law vocabulary-growth curve: distinct-token and total-token
    counts over the doc-id-ordered corpus prefix at ``n_checkpoints``
    evenly spaced cut points (k_i = ((i+1)·(max_id+1)) // n − 1).

    100-TB plan: the only exchange is a ``groupby(token).min(doc_id)``
    over BLOCK-PRE-DEDUPED (token, min_doc) rows — each token leaves a
    block once regardless of its frequency, so shuffle volume is bounded
    by Σ per-block vocab, not corpus tokens.  A token's first-occurrence
    doc then lands in the prefix histogram via one `np.searchsorted`
    partials pass (O(blocks × checkpoints) ints to the driver); token
    totals per checkpoint ride the same partials pattern on the raw
    lengths.  Returns (checkpoint, n_tokens, vocab) — Heaps' law is
    ``vocab ≈ K·n_tokens^β``, left to the consumer.
    """
    import pandas as pd

    from ..functions.tokenize import tokenize_column

    ds = ds.materialize()

    def max_id_part(tbl: pa.Table) -> pa.Table:
        ids = tbl[id_col].to_numpy(zero_copy_only=False)
        m = int(ids.max()) if len(ids) else -1
        return pa.table({"m": pa.array([m], type=pa.int64())})

    max_id = max(int(r["m"]) for r in
                 ds.map_batches(max_id_part,
                                batch_format="pyarrow").take_all())
    cps = np.array([((i + 1) * (max_id + 1)) // n_checkpoints - 1
                    for i in range(n_checkpoints)], dtype=np.int64)

    def tok_min_part(tbl: pa.Table) -> pa.Table:
        toks = tokenize_column(tbl[text_col])
        lens = np.diff(toks.offsets.to_numpy(zero_copy_only=False)
                       .astype(np.int64))
        ids = np.repeat(tbl[id_col].to_numpy(zero_copy_only=False), lens)
        pdf = pd.DataFrame({"tok": toks.flatten().to_pandas(), "d": ids})
        out = pdf.groupby("tok", as_index=False)["d"].min()
        return pa.Table.from_pandas(out, preserve_index=False)

    first = (ds.map_batches(tok_min_part, batch_format="pyarrow")
             .groupby("tok").min("d"))

    def vocab_hist(tbl: pa.Table) -> pa.Table:
        d = np.sort(tbl["min(d)"].to_numpy(zero_copy_only=False))
        return pa.table({"v": pa.array(
            [np.searchsorted(d, cps, side="right").astype(np.int64)
             .tobytes()])})

    vocab = np.zeros(n_checkpoints, dtype=np.int64)
    for row in first.map_batches(vocab_hist,
                                 batch_format="pyarrow").take_all():
        vocab += np.frombuffer(row["v"], dtype=np.int64)

    def tok_total_part(tbl: pa.Table) -> pa.Table:
        toks = tokenize_column(tbl[text_col])
        lens = np.diff(toks.offsets.to_numpy(zero_copy_only=False)
                       .astype(np.int64))
        ids = tbl[id_col].to_numpy(zero_copy_only=False)
        tot = np.array([int(lens[ids <= k].sum()) for k in cps],
                       dtype=np.int64)
        return pa.table({"t": pa.array([tot.tobytes()])})

    totals = np.zeros(n_checkpoints, dtype=np.int64)
    for row in ds.map_batches(tok_total_part,
                              batch_format="pyarrow").take_all():
        totals += np.frombuffer(row["t"], dtype=np.int64)

    return pd.DataFrame({"checkpoint": cps, "n_tokens": totals,
                         "vocab": vocab})
