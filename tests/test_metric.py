import math

import numpy as np
import pytest

from oracles import brute_triangle_violation, full_triangle_scan, gh_by_correspondences
from qmetric import metric
from qmetric.errors import InputError
from qmetric.generate import circle_net, random_planar_space
from qmetric.metric import (
    TAU_METRIC,
    FiniteMetricSpace,
    JoinedSpace,
    diameter,
    epsilon_net,
    gh_exact,
    gh_upper,
    hausdorff,
    scale,
)

PATH4 = FiniteMetricSpace(
    ("a", "b", "c", "d"),
    np.array([[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]],
             dtype=float))


def test_space_basics():
    assert PATH4.size == 4
    assert PATH4.index_of("c") == 2
    assert diameter(PATH4) == 3.0
    with pytest.raises(InputError):
        PATH4.index_of("z")


@pytest.mark.parametrize("dist, why", [
    (np.array([[0.0, 1.0], [2.0, 0.0]]), "asymmetric"),
    (np.array([[0.5, 1.0], [1.0, 0.0]]), "nonzero diagonal"),
    (np.array([[0.0, 0.0], [0.0, 0.0]]), "zero off-diagonal"),
    (np.array([[0, 1, 3], [1, 0, 1], [3, 1, 0]], dtype=float), "triangle"),
])
def test_space_validation(dist, why):
    labels = tuple("p%d" % i for i in range(dist.shape[0]))
    with pytest.raises(InputError):
        FiniteMetricSpace(labels, dist)


def test_a_space_needs_a_point_and_a_matrix_of_numbers():
    """An empty space and a ragged or non-numeric matrix are InputErrors,
    not numpy's ValueErrors."""
    with pytest.raises(InputError, match="a metric space needs at least one point"):
        FiniteMetricSpace((), np.zeros((0, 0)))
    for dist in ([[0.0, 1.0], [1.0]], [[0.0, "x"], [1.0, 0.0]]):
        with pytest.raises(InputError,
                           match="distance matrix must be a rectangular array of real numbers"):
            FiniteMetricSpace(("a", "b"), dist)


def test_duplicate_labels_rejected():
    with pytest.raises(InputError):
        FiniteMetricSpace(("x", "x"), np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_scale_and_subspace():
    doubled = scale(PATH4, 2.0)
    assert diameter(doubled) == 6.0
    assert doubled.labels == PATH4.labels
    sub = PATH4.subspace((0, 3))
    assert sub.labels == ("a", "d")
    assert sub.dist[0, 1] == 3.0
    with pytest.raises(InputError):
        scale(PATH4, 0.0)


@pytest.mark.parametrize("bad", [-1, 5, 7, 1.0, "0", True, None])
def test_point_indices_must_be_integers_in_range(bad):
    """An index that is not an integer in 0..n-1 is an InputError, so -1
    does not wrap to the last point and 7 does not fail inside numpy."""
    space = circle_net(5)
    with pytest.raises(InputError, match=r"point index must be an integer in 0\.\.4"):
        space.subspace([bad, 0])
    for a, b in (([bad], [0]), ([0], [bad])):
        with pytest.raises(InputError, match=r"point index must be an integer in 0\.\.4"):
            hausdorff(space, a, b)
    assert space.subspace([np.int64(4), 0]).labels == ("c4", "c0")


def test_hausdorff_on_path_subsets():
    # {a,d} misses b and c, each at distance 1 from an end
    assert hausdorff(PATH4, (0, 3), (0, 1, 2, 3)) == 1.0
    assert hausdorff(PATH4, (0, 1, 2, 3), (0, 1, 2, 3)) == 0.0
    assert hausdorff(PATH4, (0,), (3,)) == 3.0


def test_hausdorff_is_symmetric(rng):
    space = random_planar_space(7, rng)
    for _ in range(10):
        a = tuple(rng.choice(7, size=rng.integers(1, 7), replace=False))
        b = tuple(rng.choice(7, size=rng.integers(1, 7), replace=False))
        assert hausdorff(space, a, b) == hausdorff(space, b, a)


def test_epsilon_net_covers(rng):
    space = random_planar_space(30, rng)
    for eps in (0.05, 0.2, 0.5):
        net = epsilon_net(space, eps)
        cover = space.dist[np.ix_(range(30), net)].min(axis=1)
        assert cover.max() <= eps + 1e-12
    # the whole space is always a valid net for tiny radii
    assert set(epsilon_net(space, 1e-12)) == set(range(30))


def test_epsilon_net_greedy_is_deterministic(rng):
    space = random_planar_space(15, rng)
    assert epsilon_net(space, 0.3) == epsilon_net(space, 0.3)
    net = epsilon_net(space, 0.3, start=4)
    assert net[0] == 4


def test_gh_identical_spaces():
    assert gh_exact(PATH4, PATH4) == 0.0


def test_gh_point_against_anything():
    point = FiniteMetricSpace(("o",), np.zeros((1, 1)))
    assert gh_exact(point, PATH4) == pytest.approx(1.5, abs=1e-12)
    assert gh_exact(PATH4, point) == pytest.approx(1.5, abs=1e-12)


def test_gh_known_value():
    two = FiniteMetricSpace(("u", "v"), np.array([[0.0, 2.0], [2.0, 0.0]]))
    assert gh_exact(PATH4, two) == pytest.approx(0.5, abs=1e-12)


def test_gh_matches_exhaustive_enumeration(rng):
    spaces = [random_planar_space(int(n), rng)
              for n in rng.integers(1, 5, size=7)]
    for i in range(len(spaces)):
        for j in range(i, len(spaces)):
            ref = gh_by_correspondences(spaces[i].dist, spaces[j].dist)
            assert gh_exact(spaces[i], spaces[j]) == pytest.approx(
                ref, abs=1e-12)


def test_gh_symmetric_and_scale_bounded(rng):
    x = random_planar_space(4, rng)
    y = random_planar_space(3, rng)
    assert gh_exact(x, y) == gh_exact(y, x)
    # distance to a rescaled copy is at most half the diameter gap
    c = 1.7
    assert gh_exact(x, scale(x, c)) <= 0.5 * (c - 1.0) * diameter(x) + 1e-12


def test_gh_cap_enforced(rng):
    big = random_planar_space(6, rng)
    with pytest.raises(InputError):
        gh_exact(big, PATH4)


def test_joined_space_validates_triangle():
    two = FiniteMetricSpace(("u", "v"), np.array([[0.0, 2.0], [2.0, 0.0]]))
    bad = np.array([[9.0, 9.0], [0.1, 9.0], [9.0, 9.0], [9.0, 0.1]])
    with pytest.raises(InputError):
        JoinedSpace(PATH4, two, bad)


def _random_join(rng):
    """Two point sets in one plane, X and Y, with their cross distances and
    a few of them pushed far down or up.  Half the joins sit on the integer
    grid under the l1 metric, where slacks tie."""
    nx, ny = rng.integers(1, 7, size=2)
    if rng.random() < 0.5:
        pts = rng.choice(49, size=nx + ny, replace=False)
        pts = np.stack([pts // 7, pts % 7], axis=1).astype(float)
        dist = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    else:
        pts = rng.uniform(0.0, 3.0, size=(nx + ny, 2))
        dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    x = FiniteMetricSpace(tuple("x%d" % i for i in range(nx)), dist[:nx, :nx])
    y = FiniteMetricSpace(tuple("y%d" % j for j in range(ny)), dist[nx:, nx:])
    cross = dist[:nx, nx:].copy()
    for _ in range(rng.integers(0, 3)):
        i, j = rng.integers(nx), rng.integers(ny)
        cross[i, j] = rng.choice([0.0, 0.5, 3.0]) * cross[i, j]
    return x, y, cross


def test_joined_space_reports_the_full_scan_triple(rng):
    """Only mixed triples are scanned, yet a failure names the triple and
    message of the scan over every triple."""
    failures = 0
    for _ in range(400):
        x, y, cross = _random_join(rng)
        full = np.block([[x.dist, cross], [cross.T, y.dist]])
        want = brute_triangle_violation(full, TAU_METRIC)
        if want is None:
            JoinedSpace(x, y, cross)
            continue
        failures += 1
        name = lambda t: "X%d" % t if t < x.size else "Y%d" % (t - x.size)
        msg = "joined metric fails the triangle inequality on (%s, %s, %s)" % tuple(
            name(t) for t in want)
        with pytest.raises(InputError) as err:
            JoinedSpace(x, y, cross)
        assert str(err.value) == msg
    assert 50 < failures < 350


def _scan_case(rng):
    """A distance matrix for the triangle scan: planar, or l1 on the integer
    grid (where slacks tie), with a few pairs stretched so that some
    triples fail; every third one is raised above the diagonal by less
    than TAU_METRIC, then symmetrized as validation does."""
    n = int(rng.integers(1, 14))
    if rng.integers(2):
        pts = rng.uniform(0.0, 3.0, size=(n, 2))
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    else:
        pts = rng.choice(49, size=n, replace=False)
        pts = np.stack([pts // 7, pts % 7], axis=1).astype(float)
        d = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    for _ in range(rng.integers(0, 3)):
        i, j = rng.integers(n, size=2)
        d[i, j] = d[j, i] = 2.0 * d[i, j]
    if rng.integers(3) == 0:
        d = d + np.triu(rng.uniform(0.0, 0.5 * TAU_METRIC, size=(n, n)), 1)
        d = d + d.T
        d *= 0.5
    return d


@pytest.mark.parametrize("rows,ks", [(64, 256), (3, 4), (1, 1)])
def test_blocked_triangle_scan_equals_the_full_scan(monkeypatch, rng, rows, ks):
    """Row blocks, passes over k and the symmetric half change neither the
    triple nor the least slack, with or without a split; ties included."""
    monkeypatch.setattr(metric, "_SCAN_ROWS", rows)
    monkeypatch.setattr(metric, "_SCAN_KS", ks)
    failures = 0
    for _ in range(300):
        d = _scan_case(rng)
        splits = [None]
        if len(d) > 1:
            splits.append(int(rng.integers(1, len(d))))
        for split in splits:
            got = metric._triangle_violation(d, TAU_METRIC, split)
            want = full_triangle_scan(d, TAU_METRIC, split)
            assert got == want
            assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()
            failures += got[0] is not None
    assert failures > 50


def test_subspace_is_built_without_a_triangle_scan(monkeypatch):
    calls = []
    real = metric._triangle_violation
    monkeypatch.setattr(metric, "_triangle_violation",
                        lambda *args: calls.append(args) or real(*args))
    sub = PATH4.subspace((3, 0, 2))
    assert calls == []
    full = FiniteMetricSpace(sub.labels, PATH4.dist[np.ix_((3, 0, 2), (3, 0, 2))])
    assert np.array_equal(sub.dist, full.dist)


def _slacks(d):
    """fl(fl(d[i,k] + d[k,j]) - d[i,j]) at [i, k, j], as the scan forms it."""
    return (d[:, :, None] + d[None, :, :]) - d[:, None, :]


def test_spaces_record_their_least_triangle_slack(rng):
    """A scanned space records the least slack of its stored matrix, also
    when symmetrizing changed it; a subspace keeps its parent's, a lower
    bound on its own; a space that was not scanned records no bound."""
    for _ in range(30):
        n = int(rng.integers(1, 9))
        space = random_planar_space(n, rng)
        assert space._worst_slack == _slacks(space.dist).min()
        sub = space.subspace(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        assert space._worst_slack <= sub._worst_slack <= _slacks(sub.dist).min()
    # a line bent by half the tolerance: the subspace keeps the bend
    bent = PATH4.dist.copy()
    bent[0, 3] = bent[3, 0] = 3.0 + 0.5 * TAU_METRIC
    bent = FiniteMetricSpace(PATH4.labels, bent)
    sub = bent.subspace((3, 1, 0))
    assert bent._worst_slack <= sub._worst_slack <= _slacks(sub.dist).min() < -0.4 * TAU_METRIC
    skewed = PATH4.dist.copy()
    skewed[0, 1] += 1e-12
    skewed = FiniteMetricSpace(PATH4.labels, skewed)
    assert skewed._worst_slack == _slacks(skewed.dist).min()
    two = FiniteMetricSpace(("u", "v"), np.array([[0.0, 2.0], [2.0, 0.0]]))
    cross = np.array([[0.5, 2.5], [0.5, 1.5], [1.5, 0.5], [2.5, 0.5]])
    joined = JoinedSpace(PATH4, two, cross).metric_space(tuple("abcduv"))
    assert joined._worst_slack == -math.inf


def test_a_space_read_off_symmetric_records_the_slack_of_its_stored_matrix(rng):
    """Matrices off symmetric by less than TAU_METRIC are stored
    symmetrized, and the scan of the stored matrix gives the least slack;
    an exactly symmetric matrix is stored bit for bit."""
    for _ in range(20):
        n = int(rng.integers(2, 12))
        d = random_planar_space(n, rng).dist
        skew = d + np.triu(rng.uniform(0.0, 0.5 * TAU_METRIC, size=(n, n)), 1)
        space = FiniteMetricSpace(tuple("p%d" % i for i in range(n)), skew)
        assert (space.dist == space.dist.T).all()
        assert space._worst_slack == _slacks(space.dist).min()
        same = FiniteMetricSpace(space.labels, space.dist)
        assert same.dist.tobytes() == space.dist.tobytes()
        assert same._worst_slack == space._worst_slack


@pytest.mark.filterwarnings("ignore:overflow encountered in add:RuntimeWarning")
def test_a_space_of_huge_distances_stores_them_finite():
    """Symmetrizing used to sum two distances above half the largest float
    to inf, so the stored matrix of a valid space held inf.  The scan's sums
    of two such distances still overflow, to slacks of inf, which pass."""
    big = np.finfo(float).max / 1.5
    space = FiniteMetricSpace(tuple("abc"), np.full((3, 3), big) - np.diag([big] * 3))
    assert (space.dist[~np.eye(3, dtype=bool)] == big).all()
    assert space._worst_slack == 0.0


def _net_join_case(rng):
    """A space y, a net of it (indices in any order) and a cross offset, or
    None if y is rejected.  y is planar, l1 on the integer grid (where
    slacks tie at 0), or a line whose end-to-end distance is raised by a
    few ulps less than TAU_METRIC or by half of it: accepted just inside
    the tolerance, or well inside."""
    n = int(rng.integers(2, 8))
    kind = rng.integers(3)
    if kind == 0:
        pts = rng.uniform(0.0, 3.0, size=(n, 2))
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    elif kind == 1:
        pts = rng.choice(49, size=n, replace=False)
        pts = np.stack([pts // 7, pts % 7], axis=1).astype(float)
        d = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    else:
        pts = rng.choice(20, size=n + 1, replace=False).astype(float)
        d = np.abs(pts[:, None] - pts[None, :])
        ends = int(pts.argmin()), int(pts.argmax())
        bump = TAU_METRIC * rng.choice([0.5, 1.0]) - rng.uniform(0.0, 2e-14)
        d[ends, ends[::-1]] += bump
    try:
        y = FiniteMetricSpace(tuple("y%d" % i for i in range(len(d))), d)
    except InputError:
        return None
    net = rng.choice(y.size, size=int(rng.integers(1, y.size + 1)), replace=False)
    offset = float(rng.choice([0.0, 1e-12, 1e-6, 0.01, 1.0]) * rng.uniform(0.5, 2.0))
    return y, tuple(int(i) for i in net), offset


def test_net_join_agrees_with_the_full_scan(monkeypatch, rng):
    """A net joined to its own space gives what a scan of the full joined
    matrix gives: the join, or the scan's error.  Whenever the net join
    skips its scan, the full scan finds nothing."""
    scans = []
    real = metric._triangle_violation
    monkeypatch.setattr(metric, "_triangle_violation",
                        lambda *args: scans.append(args) or real(*args))
    skipped = scanned = 0
    for _ in range(400):
        case = _net_join_case(rng)
        if case is None:
            continue
        y, net, offset = case
        x = y.subspace(net)
        cross = y.dist[list(net)] + offset
        want = brute_triangle_violation(np.block([[x.dist, cross], [cross.T, y.dist]]),
                                        TAU_METRIC)
        scans.clear()
        if want is None:
            joined = JoinedSpace._net_join(x, y, net, cross, offset)
            assert joined.cross.tobytes() == cross.tobytes()
        else:
            with pytest.raises(InputError) as err:
                JoinedSpace._net_join(x, y, net, cross, offset)
            with pytest.raises(InputError) as ref:
                JoinedSpace(x, y, cross)
            assert str(err.value) == str(ref.value)
        assert scans or want is None
        skipped, scanned = skipped + (not scans), scanned + bool(scans)
    assert skipped > 150 and scanned > 20


def test_net_join_scans_unless_the_lemma_applies(monkeypatch):
    """The scan runs when the recorded slack lies within the rounding margin
    of -TAU_METRIC, when the margin itself exceeds TAU_METRIC (a space of
    diameter 2e6), and when the net, cross or offset are not as stated."""
    line = np.abs(np.subtract.outer(np.arange(4.0), np.arange(4.0)))
    bumped = line.copy()
    bumped[0, 3] = bumped[3, 0] = 3.0 + (TAU_METRIC - 1e-14)
    near = FiniteMetricSpace(tuple("abcd"), bumped)
    assert -TAU_METRIC <= near._worst_slack < -TAU_METRIC + 1e-13
    plain = FiniteMetricSpace(tuple("abcd"), line)
    big = scale(circle_net(8), 1e6)
    scans = []
    real = metric._triangle_violation
    monkeypatch.setattr(metric, "_triangle_violation",
                        lambda *args: scans.append(args) or real(*args))

    def join(y, net, offset, cross=None):
        scans.clear()
        cross = y.dist[list(net)] + offset if cross is None else cross
        JoinedSpace._net_join(y.subspace(net), y, net, cross, offset)
        return [args[0].shape for args in scans]

    assert join(plain, (0, 2), 0.01) == []
    assert join(near, (0, 2), 0.01) == [(6, 6)]
    assert join(big, (0, 4), 0.01) == [(10, 10)]
    assert join(plain, (2, 0), 0.01, plain.dist[[0, 2]] + 0.01) == [(6, 6)]
    assert join(plain, (0, 2), 0.01, plain.dist[[0, 2]] + 0.02) == [(6, 6)]
    assert join(plain, (0, 2), -0.0) == []
    scans.clear()
    JoinedSpace._net_join(plain.subspace((0, 2)), plain, (0, 9), plain.dist[[0, 2]], 0.0)
    assert len(scans) == 1


def test_joined_space_full_matrix_and_hausdorff():
    two = FiniteMetricSpace(("u", "v"), np.array([[0.0, 2.0], [2.0, 0.0]]))
    cross = np.array([[0.5, 2.5], [0.5, 1.5], [1.5, 0.5], [2.5, 0.5]])
    joined = JoinedSpace(PATH4, two, cross)
    full = joined.full_matrix()
    assert full.shape == (6, 6)
    assert np.array_equal(full, full.T)
    assert np.array_equal(full[:4, 4:], cross)
    # u sits within 0.5 of b, v within 0.5 of c; a is 0.5 from u
    assert joined.hausdorff_between() == 0.5


def test_joined_metric_space_checks_the_other_axioms():
    two = FiniteMetricSpace(("u", "v"), np.array([[0.0, 2.0], [2.0, 0.0]]))
    cross = np.array([[0.5, 2.5], [0.5, 1.5], [1.5, 0.5], [2.5, 0.5]])
    labels = tuple("abcd") + ("u", "v")
    space = JoinedSpace(PATH4, two, cross).metric_space(labels)
    assert space.labels == labels
    assert np.array_equal(space.dist, JoinedSpace(PATH4, two, cross).full_matrix())
    # u sits on a and v on c: a pseudometric, fine as a join, not as a space
    touching = np.array([[0.0, 2.0], [1.0, 1.0], [2.0, 0.0], [3.0, 1.0]])
    joined = JoinedSpace(PATH4, two, touching)
    with pytest.raises(InputError, match="not positive"):
        joined.metric_space(labels)
    with pytest.raises(InputError, match="distinct"):
        JoinedSpace(PATH4, two, cross).metric_space(("a",) * 6)


def test_gh_upper_dominates_exact():
    two = FiniteMetricSpace(("u", "v"), np.array([[0.0, 2.0], [2.0, 0.0]]))
    cross = np.array([[0.5, 2.5], [0.5, 1.5], [1.5, 0.5], [2.5, 0.5]])
    up = gh_upper(PATH4, two, cross)
    assert up >= gh_exact(PATH4, two) - 1e-12
    assert up == 0.5


def test_space_json_round_trip():
    data = PATH4.to_json_dict()
    back = FiniteMetricSpace.from_json_dict(data)
    assert back.labels == PATH4.labels
    assert np.array_equal(back.dist, PATH4.dist)
    with pytest.raises(InputError):
        FiniteMetricSpace.from_json_dict({"labels": ["a"]})
