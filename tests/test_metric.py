import numpy as np
import pytest

from oracles import gh_by_correspondences
from qmetric.errors import InputError
from qmetric.generate import random_planar_space
from qmetric.metric import (
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
