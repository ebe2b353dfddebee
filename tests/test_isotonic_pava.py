"""``stages/isotonic.py:_pava``, the exact stack PAVA both tiers of
``isotonic_fit`` run, checked without Ray against the closed-form min-max
solution of weighted isotonic regression and against the pooling lemma the
distributed fit relies on (PAVA over block pools = PAVA over the points)."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from diffdataflowmlpipelines_ray.stages.isotonic import _pava


def _minmax_fit(swy, sw) -> list[Fraction]:
    """Fitted value per point: max over j ≤ i of min over k ≥ i of the
    weighted mean of points j..k (the classic min-max formula)."""
    n = len(swy)
    out = []
    for i in range(n):
        out.append(max(
            min(Fraction(sum(swy[j:k + 1]), sum(sw[j:k + 1]))
                for k in range(i, n))
            for j in range(i + 1)))
    return out


def _expand(pools, xs) -> list[Fraction]:
    """Pools → fitted value per input point."""
    fit = {}
    for lo, hi, swy, sw in pools:
        for x in xs:
            if lo <= x <= hi:
                fit[x] = Fraction(swy, sw)
    return [fit[x] for x in xs]


def _points(shape: str, rng, n: int):
    xs = np.arange(n, dtype=np.int64) * 3
    w = rng.integers(1, 6, n).astype(np.int64)
    if shape == "random":
        y = rng.integers(-500, 500, n)
    elif shape == "decreasing":
        y = np.arange(n)[::-1] * 7
    elif shape == "increasing":
        y = np.arange(n) * 7
    elif shape == "constant":
        y = np.full(n, 42)
    elif shape == "sawtooth":
        y = (np.arange(n) % 4) * 10 + np.arange(n)
    else:  # "huge": cross products far past int64
        y = rng.integers(-(2 ** 40), 2 ** 40, n)
        w = rng.integers(2 ** 20, 2 ** 22, n).astype(np.int64)
    return xs, y.astype(np.int64) * w, w


SHAPES = ["random", "decreasing", "increasing", "constant", "sawtooth",
          "huge"]


@pytest.mark.parametrize("shape", SHAPES)
def test_pava_equals_minmax_solution(shape):
    rng = np.random.default_rng(len(shape))
    for n in (1, 2, 5, 17):
        xs, swy, sw = _points(shape, rng, n)
        pools = _pava(xs, xs, swy, sw)
        assert _expand(pools, xs.tolist()) == _minmax_fit(
            [int(v) for v in swy], [int(v) for v in sw])


@pytest.mark.parametrize("shape", SHAPES)
def test_pools_partition_the_points_with_nondecreasing_means(shape):
    rng = np.random.default_rng(100 + len(shape))
    xs, swy, sw = _points(shape, rng, 40)
    pools = _pava(xs, xs, swy, sw)
    assert pools[0][0] == xs[0] and pools[-1][1] == xs[-1]
    for (_, hi, _, _), (lo, _, _, _) in zip(pools, pools[1:]):
        assert hi < lo and not any(hi < x < lo for x in xs)
    means = [Fraction(s, w) for _, _, s, w in pools]
    # only a strict violation pools, so equal neighbours stay apart
    assert all(a <= b for a, b in zip(means, means[1:]))
    assert sum(p[2] for p in pools) == int(swy.sum())
    assert sum(p[3] for p in pools) == int(sw.sum())


@pytest.mark.parametrize("cuts", [(1,), (7, 8), (3, 11, 29), (13, 26)])
def test_pooling_lemma_block_pools_then_global(cuts):
    """What ``isotonic_fit`` does: PAVA per x-sorted block, then PAVA over
    the concatenated block pools — equal to one PAVA over all points."""
    rng = np.random.default_rng(sum(cuts))
    xs, swy, sw = _points("random", rng, 40)
    bounds = [0, *cuts, len(xs)]
    block_pools = []
    for a, b in zip(bounds, bounds[1:]):
        block_pools += _pava(xs[a:b], xs[a:b], swy[a:b], sw[a:b])
    lo, hi, s, w = (np.array(c, dtype=object) for c in zip(*block_pools))
    assert _pava(lo, hi, s, w) == _pava(xs, xs, swy, sw)


def test_equal_means_do_not_pool():
    xs = np.array([0, 1, 2], dtype=np.int64)
    pools = _pava(xs, xs, np.array([10, 20, 30]), np.array([1, 2, 3]))
    assert pools == [(0, 0, 10, 1), (1, 1, 20, 2), (2, 2, 30, 3)]


def test_empty_input_has_no_pools():
    e = np.array([], dtype=np.int64)
    assert _pava(e, e, e, e) == []
