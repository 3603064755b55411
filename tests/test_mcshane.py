import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import brute_lipschitz, loop_inf_convolution, loop_realized_extension

from qmetric import mcshane
from qmetric.errors import InputError
from qmetric.mcshane import (ExtensionProblem, _clamped_inf_convolution, _realized_extension,
                             _tiles, extend, extend_as_map, extend_channels)
from qmetric.metric import FiniteMetricSpace


def _path(n):
    d = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)
    return FiniteMetricSpace(tuple("p%d" % i for i in range(n)), d)


def _random_space(rng, n):
    pts = rng.uniform(0.0, 3.0, size=(n, 2))
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    np.fill_diagonal(d, 0.0)
    d = (d + d.T) / 2
    return FiniteMetricSpace(tuple("r%d" % i for i in range(n)), d)


def test_endpoint_data_fills_the_path():
    prob = ExtensionProblem(_path(4), (0, 3), (0.0, 3.0), 1.0)
    assert np.allclose(extend(prob), [0.0, 1.0, 2.0, 3.0])


def test_interior_data_is_clamped_outward():
    # values (1, -1) on the middle of a 4-point path with slope cap 2:
    # the raw envelope would put 3 at p0, clamping holds it at max(values)
    prob = ExtensionProblem(_path(4), (1, 2), (1.0, -1.0), 2.0)
    assert np.allclose(extend(prob), [1.0, 1.0, -1.0, 1.0])


def test_restriction_is_exact(rng):
    for _ in range(40):
        n = int(rng.integers(2, 9))
        space = _random_space(rng, n)
        k = int(rng.integers(1, n + 1))
        subset = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        vals = rng.normal(size=k)
        slopes = [abs(vals[i] - vals[j]) / space.dist[subset[i], subset[j]]
                  for i in range(k) for j in range(i)
                  if space.dist[subset[i], subset[j]] > 0]
        lip = max(slopes, default=0.0) * (1 + 1e-12) + 1e-12
        out = extend(ExtensionProblem(space, subset, tuple(vals), lip))
        for i, p in enumerate(subset):
            assert out[p] == pytest.approx(vals[i], abs=1e-12)


def test_output_lipschitz_and_range(rng):
    for _ in range(40):
        n = int(rng.integers(2, 9))
        space = _random_space(rng, n)
        k = int(rng.integers(1, n + 1))
        subset = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        vals = rng.normal(size=k)
        slopes = [abs(vals[i] - vals[j]) / space.dist[subset[i], subset[j]]
                  for i in range(k) for j in range(i)
                  if space.dist[subset[i], subset[j]] > 0]
        lip = max(slopes, default=0.0) * (1 + 1e-12) + 1e-12
        out = extend(ExtensionProblem(space, subset, tuple(vals), lip))
        for i in range(n):
            for j in range(i):
                assert (abs(out[i] - out[j])
                        <= lip * space.dist[i, j] + 1e-12)
        assert out.min() == pytest.approx(min(vals), abs=1e-12)
        assert out.max() == pytest.approx(max(vals), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1),
       st.floats(min_value=0.0, max_value=2.0))
def test_raising_the_data_raises_the_extension(seed, bump):
    rng = np.random.default_rng(seed)
    space = _random_space(rng, 5)
    subset = (0, 2, 4)
    vals = rng.normal(size=3)
    pairs = [(0, 2), (2, 4), (0, 4)]
    lip = max(abs(vals[i // 2] - vals[j // 2]) / space.dist[i, j]
              for i, j in pairs) + 1.0
    lo = extend(ExtensionProblem(space, subset, tuple(vals), lip))
    hi = extend(ExtensionProblem(space, subset,
                                 tuple(v + bump for v in vals), lip))
    assert np.all(hi >= lo - 1e-12)


def test_constant_data_allows_zero_slope():
    prob = ExtensionProblem(_path(5), (1, 3), (2.0, 2.0), 0.0)
    assert np.allclose(extend(prob), 2.0)


def test_steep_data_is_rejected():
    with pytest.raises(InputError, match="Lipschitz"):
        extend(ExtensionProblem(_path(3), (0, 2), (0.0, 5.0), 1.0))
    # two violating pairs, (p2, p0) and (p0, p1): the message names the
    # first in subset order, not the steeper second one
    with pytest.raises(InputError, match=r"points 2 and 0 differ by 3$"):
        ExtensionProblem(_path(3), (2, 0, 1), (0.0, 3.0, 0.5), 1.0)


def test_subset_bounds_checked():
    with pytest.raises(InputError):
        ExtensionProblem(_path(3), (0, 7), (0.0, 1.0), 1.0)
    with pytest.raises(InputError):
        ExtensionProblem(_path(3), (0,), (0.0, 1.0), 1.0)
    with pytest.raises(InputError, match="one value per subset point"):
        ExtensionProblem(_path(3), (0, 2), np.zeros((2, 3)), 1.0)
    with pytest.raises(InputError, match="one Lipschitz bound"):
        ExtensionProblem(_path(3), (0, 2), (0.0, 1.0), (1.0, 1.0))


def test_nan_lip_bound_is_rejected():
    # a NaN bound used to pass the Lipschitz check and extend to [0, nan, 5]
    with pytest.raises(InputError, match="finite and nonnegative"):
        ExtensionProblem(_path(3), (0, 2), (0.0, 5.0), float("nan"))


def test_infinite_lip_bound_is_rejected():
    with pytest.raises(InputError, match="finite and nonnegative"):
        ExtensionProblem(_path(3), (0, 2), (0.0, 5.0), float("inf"))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_values_are_rejected(bad):
    with pytest.raises(InputError, match="values must be finite"):
        ExtensionProblem(_path(3), (0, 2), (0.0, bad), 1.0)


def test_json_round_trip():
    prob = ExtensionProblem(_path(4), (0, 3), (0.0, 3.0), 1.0)
    back = ExtensionProblem.from_json_dict(prob.to_json_dict())
    assert back.subset == prob.subset
    assert back.values == prob.values
    assert back.lip_bound == prob.lip_bound
    assert np.allclose(extend(back), extend(prob))


def test_map_form_uses_labels():
    out = extend_as_map(ExtensionProblem(_path(4), (0, 3), (0.0, 3.0), 1.0))
    assert out == {"p0": 0.0, "p1": 1.0, "p2": 2.0, "p3": 3.0}


def test_batched_channels_equal_column_by_column(rng):
    for _ in range(30):
        n = int(rng.integers(1, 9))
        space = _random_space(rng, n) if n > 1 else _path(1)
        k = int(rng.integers(1, n + 1))
        subset = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        chans = rng.normal(size=(k, int(rng.integers(1, 6))))
        dist = space.dist[np.ix_(subset, subset)]
        batched = extend_channels(space, subset, chans)
        assert batched.shape == (n, chans.shape[1])
        columnwise = np.column_stack([
            extend(ExtensionProblem(space, subset, tuple(col), brute_lipschitz(dist, col)))
            for col in chans.T])
        assert batched.tobytes() == columnwise.tobytes()


@pytest.mark.parametrize("scale", [1e6, 1e8, 1e12])
def test_channels_with_large_gaps_extend(rng, scale):
    """Gaps far above the absolute slack of ExtensionProblem's check: each
    column is held to its realized constant, with rounding relative to its
    spread, and to its input range."""
    for _ in range(20):
        n = int(rng.integers(2, 9))
        space = _random_space(rng, n)
        k = int(rng.integers(1, n + 1))
        subset = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        chans = scale * rng.normal(size=(k, 4))
        out = extend_channels(space, subset, chans)
        assert out[list(subset)].tobytes() == chans.tobytes()
        dist = space.dist[np.ix_(subset, subset)]
        for col, got in zip(chans.T, out.T):
            lip = brute_lipschitz(dist, col)
            slack = 1e-12 * (np.abs(col).max() + lip * space.dist.max())
            assert (np.abs(got[:, None] - got[None, :])
                    <= lip * space.dist + slack).all()
            assert col.min() <= got.min() and got.max() <= col.max()


@pytest.mark.parametrize("block", [mcshane._BLOCK, 96, 7])
def test_tiles_cover_the_box_once_within_the_block(monkeypatch, block):
    monkeypatch.setattr(mcshane, "_BLOCK", block)
    for t, k, c in [(1, 1, 1), (5, 1, 3), (1, 9, 2), (30, 17, 1), (7, 7, 13), (3, 50, 40),
                    (200, 3, 40), (2, 2, 150), (300, 40, 12), (0, 4, 2), (4, 4, 0)]:
        seen = np.zeros((t, k, c), dtype=int)
        for ts, ks, cs in _tiles(t, k, c):
            assert seen[ts, ks, cs].size <= block
            seen[ts, ks, cs] += 1
        assert (seen == 1).all()


def _kernel_case(rng, t, k, c):
    """Distances from t targets to k subset points, the subset's own, and
    k x c channel values, integer ones (tied) half the time."""
    pts = rng.uniform(0.0, 3.0, size=(t + k, 2))
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    chans = rng.normal(size=(k, c)) * 10.0 ** rng.integers(-3, 4)
    if rng.random() < 0.5:
        chans = np.round(chans)
    return d[k:, :k], d[:k, :k], chans


@pytest.mark.parametrize("c", [1, 13, 40])
@pytest.mark.parametrize("block", [mcshane._BLOCK, 96, 32])
def test_blocked_kernel_equals_the_point_loop(monkeypatch, rng, block, c):
    """The tiled kernel, with one constant per column or the realized ones,
    gives the one-point-at-a-time loop's bytes: one and two subset points,
    and one below, at and above a tile's subset width, for targets fewer
    and more than the subset points.  RuntimeWarnings are errors, so no
    0/0 of a pair with itself goes unnoticed."""
    monkeypatch.setattr(mcshane, "_BLOCK", block)
    for t in (50, 400):
        _, width, _ = next(_tiles(t, 10 ** 6, c))
        for k in sorted({1, 2, width.stop - 1, width.stop, width.stop + 1} - {0}):
            rows, dist, chans = _kernel_case(rng, t, k, c)
            lip = rng.uniform(0.0, 5.0, size=c)
            assert (_clamped_inf_convolution(rows, chans, lip).tobytes()
                    == loop_inf_convolution(rows, chans, lip).tobytes())
            assert (_realized_extension(rows, dist, chans).tobytes()
                    == loop_realized_extension(rows, dist, chans).tobytes())


@pytest.mark.parametrize("block", [mcshane._BLOCK, 32])
def test_extensions_equal_the_point_loop(monkeypatch, rng, block):
    """extend (one checked constant) and extend_channels (realized ones)
    give the loop's bytes, pinned on the subset."""
    monkeypatch.setattr(mcshane, "_BLOCK", block)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        space = _random_space(rng, n)
        k = int(rng.integers(1, n + 1))
        subset = list(rng.choice(n, size=k, replace=False))
        dist = space.dist[np.ix_(subset, subset)]
        chans = rng.normal(size=(k, int(rng.choice([1, 13, 40]))))
        want = loop_realized_extension(space.dist[:, subset], dist, chans)
        want[subset] = chans
        assert extend_channels(space, subset, chans).tobytes() == want.tobytes()
        lip = brute_lipschitz(dist, chans[:, 0]) + 0.5
        want = loop_inf_convolution(space.dist[:, subset], chans[:, :1], lip)
        want[subset] = chans[:, :1]
        got = extend(ExtensionProblem(space, tuple(subset), tuple(chans[:, 0]), lip))
        assert got.tobytes() == want[:, 0].tobytes()
