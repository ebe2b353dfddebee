import hashlib

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffdataflowmlpipelines_ray.functions.hashing import stable_hash60, stable_hash60_array
from diffdataflowmlpipelines_ray.functions.tokenize import (
    WS_SQL,
    default_tokenizer,
    flatten_tokens,
    tokenize_column,
)


def test_default_tokenizer_matches_reference_semantics():
    # utils.rs:3-9: split_whitespace drops empties, handles tabs/newlines
    assert default_tokenizer("a  b\tc\nd ") == ["a", "b", "c", "d"]
    assert default_tokenizer("") == []
    assert default_tokenizer("   ") == []


def test_tokenize_column_matches_scalar():
    texts = ["hello world", "  lead trail  ", "", "one", "a\tb\nc"]
    col = pa.array(texts)
    lists = tokenize_column(col)
    assert lists.to_pylist() == [default_tokenizer(t) for t in texts]


# Python str whitespace that RE2's \s misses, the ASCII whitespace RE2 has,
# and non-whitespace lookalikes (zero-width space, Mongolian vowel
# separator, BOM) that no rule splits on
_WS_MISSED_BY_RE2 = ("\v\x1c\x1d\x1e\x1f\x85\xa0\u1680"
                     + "".join(map(chr, range(0x2000, 0x200B)))
                     + "\u2028\u2029\u202f\u205f\u3000")
_WS_ASCII = " \t\n\f\r"
_NOT_WS = "\u200b\u180e\ufeff"
_ws_runs = st.text(alphabet=_WS_MISSED_BY_RE2 + _WS_ASCII, min_size=1,
                   max_size=3)
_words = st.text(alphabet="abcXYZ" + _NOT_WS, min_size=1, max_size=4)
_docs = st.lists(st.one_of(_ws_runs, _words), max_size=8).map("".join)


def _duckdb_tokens(texts: list[str]) -> list[list[str]]:
    """The SQL twins' tokenization (``_TOKENS``) of each text, in order."""
    import duckdb

    from diffdataflowmlpipelines_ray.pipelines.queries import _TOKENS

    assert f"'{WS_SQL}'" in _TOKENS
    con = duckdb.connect()
    con.register("docs", pa.table({"i": np.arange(len(texts)),
                                   "text": pa.array(texts, pa.string())}))
    rows = con.execute(f"SELECT {_TOKENS} FROM docs ORDER BY i").fetchall()
    return [r[0] for r in rows]


def test_whitespace_rule_is_python_str_whitespace():
    assert len(_WS_MISSED_BY_RE2) == 24
    assert all(c.isspace() for c in _WS_MISSED_BY_RE2 + _WS_ASCII)
    assert not any(c.isspace() for c in _NOT_WS)
    texts = ["a" + c + "b" for c in _WS_MISSED_BY_RE2 + _WS_ASCII + _NOT_WS]
    want = [default_tokenizer(t) for t in texts]
    assert tokenize_column(pa.array(texts)).to_pylist() == want
    assert _duckdb_tokens(texts) == want


@settings(max_examples=150, deadline=None)
@given(docs=st.lists(_docs, max_size=12),
       cut=st.integers(min_value=0, max_value=12))
def test_tokenize_column_vector_scalar_sql_agree(docs, cut):
    """tokenize_column == default_tokenizer == the DuckDB twin (WS_SQL) on
    text mixing every Python whitespace code point, whitespace-only and
    empty strings, over a multi-chunk column."""
    texts = ["", " \u3000\x85"] + docs
    cut = min(cut, len(texts))
    col = pa.chunked_array([pa.array(texts[:cut], pa.string()),
                            pa.array(texts[cut:], pa.string())])
    want = [default_tokenizer(t) for t in texts]
    assert want[:2] == [[], []]
    assert tokenize_column(col).to_pylist() == want
    assert _duckdb_tokens(texts) == want


@pytest.mark.parametrize("text", ["a\u3000", "a\n\u2005\u3000", "a ", "a b\t"])
def test_tokenize_column_ignores_bytes_after_the_last_string(text):
    """The bytes after a string's end do not change its tokens, even when
    they are not valid UTF-8 (as after the last string of a buffer)."""
    raw = text.encode()
    offsets = pa.array([0, len(raw)], pa.int32()).buffers()[1]
    col = pa.Array.from_buffers(pa.string(), 1, [
        None, offsets, pa.py_buffer(raw + b"\x80" * 4)])
    assert tokenize_column(col).to_pylist() == [default_tokenizer(text)]


def test_tokenize_column_null_row_is_empty():
    col = pa.chunked_array([pa.array(["a b", None], pa.string()),
                            pa.array([None, " c"], pa.string())])
    out = tokenize_column(col)
    assert out.null_count == 0
    assert out.to_pylist() == [["a", "b"], [], [], ["c"]]


def test_flatten_tokens():
    lists = tokenize_column(pa.array(["a b", "", "c"]))
    flat, ids = flatten_tokens(lists, np.array([10, 20, 30]))
    assert flat.to_pylist() == ["a", "b", "c"]
    assert ids.tolist() == [10, 10, 30]


def test_stable_hash60_matches_duckdb():
    import duckdb

    tokens = ["abc", "hello", "Bratwurst", ""]
    py = [stable_hash60(t) for t in tokens]
    sql = duckdb.sql(
        "SELECT (('0x' || substr(md5(t), 1, 15))::BIGINT) FROM (SELECT unnest(?) AS t)",
        params=[tokens],
    ).fetchall()
    assert py == [r[0] for r in sql]
    assert stable_hash60_array(tokens).tolist() == py
    # documented value
    assert stable_hash60("abc") == int(hashlib.md5(b"abc").hexdigest()[:15], 16)
