r"""Tokenization utilities (vectorized over Arrow batches).

Reference tokenizer: split on any whitespace, drop empties
(`src/feature_encoders/feature_extraction/utils.rs:3-9`).

The whitespace rule is **Python ``str`` whitespace**: the 29 code points for
which ``str.isspace()`` is true, which is also what Python ``re``'s ``\s``
matches, so ``default_tokenizer`` is the scalar form.  Three paths follow it:

- ``default_tokenizer`` (scalar, Python ``re``);
- ``tokenize_column`` (vector, Arrow ``utf8_split_whitespace``);
- ``WS_SQL``, the pattern every DuckDB twin splits on.

Two near rules differ.  Rust's ``str::split_whitespace`` (the reference's
rule) uses Unicode ``White_Space``, which lacks the separators
``\x1c``-``\x1f`` that Python splits on.  RE2's ``\s`` (DuckDB
``string_split_regex(text, '\s+')``, Arrow ``split_pattern_regex``) is
only ``[\t\n\f\r ]``: it misses ``\v``, ``\x1c``-``\x1f``, ``\x85``, NBSP,
U+1680, U+2000-200A, U+2028/2029, U+202F, U+205F and U+3000.  ``WS_SQL``
adds exactly those to RE2's ``\s``.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

__all__ = ["WS_SQL", "default_tokenizer", "tokenize_column", "flatten_tokens"]

_WS = re.compile(r"\s+")

# RE2 pattern (DuckDB ``string_split_regex``) for one run of Python ``str``
# whitespace: RE2 ``\s`` plus ``\v``, ``\x1c``-``\x1f``, ``\x85`` and the
# Unicode separators ``\p{Z}``
WS_SQL = r"[\s\x{0b}\x{1c}-\x{1f}\x{85}\p{Z}]+"


def default_tokenizer(s: str) -> list[str]:
    """Whitespace split, empties dropped — utils.rs:3-9 (scalar form)."""
    return [t for t in _WS.split(s) if t]


def tokenize_column(col: pa.ChunkedArray | pa.Array) -> pa.ListArray:
    """string column → list<string> of whitespace tokens (vectorized).

    ``utf8_split_whitespace`` splits on runs of Python ``str`` whitespace but
    keeps an empty token for a leading or trailing run (``""`` → ``[""]``,
    ``" "`` → ``["", ""]``); those are dropped, so the result matches
    ``default_tokenizer`` row-wise.  A null row yields ``[]``.
    """
    # trailing whitespace is trimmed first: on a string that ends in
    # whitespace, utf8_split_whitespace (Arrow 16) decodes one code point
    # past the string's end, and when those bytes are not valid UTF-8 (after
    # the last string of a buffer) it keeps the trailing run in a token
    toks = pc.utf8_split_whitespace(pc.utf8_rtrim_whitespace(col))
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    # drop empty strings: flatten, mask, rebuild offsets
    flat = toks.flatten()
    keep = pc.not_equal(flat, "")
    # per-list counts of kept tokens
    offsets = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    keep_np = keep.to_numpy(zero_copy_only=False)
    csum = np.concatenate([[0], np.cumsum(keep_np, dtype=np.int64)])
    counts = csum[offsets[1:]] - csum[offsets[:-1]]
    new_offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
    kept_flat = flat.filter(keep)
    return pa.ListArray.from_arrays(pa.array(new_offsets, type=pa.int32()), kept_flat)


def flatten_tokens(tokens: pa.ListArray, ids: pa.Array | np.ndarray) -> tuple[pa.Array, np.ndarray]:
    """(list<token> column, per-row ids) → (flat token array, repeated ids)."""
    if isinstance(tokens, pa.ChunkedArray):
        tokens = tokens.combine_chunks()
    offsets = tokens.offsets.to_numpy(zero_copy_only=False)
    lengths = offsets[1:] - offsets[:-1]
    ids_np = ids if isinstance(ids, np.ndarray) else np.asarray(ids)
    return tokens.flatten(), np.repeat(ids_np, lengths)
