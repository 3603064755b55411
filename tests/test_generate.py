import math

import numpy as np
import pytest

from helpers import CoincidentPoints, random_algebra, random_pure_state, random_sa_element
from qmetric.algebra import Algebra
from qmetric.errors import InputError
from qmetric.generate import (circle_net, interval_net, random_alg_state,
                              random_planar_space, scaled_to_diameter)
from qmetric.metric import diameter

M23 = Algebra((2, 3))


def test_square_on_the_circle():
    chord = circle_net(4, "chord")
    assert chord.dist[0, 1] == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert chord.dist[0, 2] == pytest.approx(2.0, abs=1e-12)
    arc = circle_net(4, "arc")
    assert arc.dist[0, 1] == pytest.approx(math.pi / 2.0, abs=1e-12)
    assert arc.dist[0, 2] == pytest.approx(math.pi, abs=1e-12)
    assert arc.dist[0, 3] == pytest.approx(math.pi / 2.0, abs=1e-12)


def test_circle_radius_scales_linearly():
    small = circle_net(8, "chord")
    big = circle_net(8, "chord", radius=2.5)
    assert np.allclose(big.dist, 2.5 * small.dist)


def test_circle_input_validation():
    with pytest.raises(InputError):
        circle_net(0)
    with pytest.raises(InputError):
        circle_net(4, "euclid")
    with pytest.raises(InputError):
        circle_net(4, "chord", radius=-1.0)


def test_interval_spacing_is_uniform():
    net = interval_net(5, length=2.0)
    assert net.dist[0, 4] == pytest.approx(2.0)
    steps = [net.dist[i, i + 1] for i in range(4)]
    assert np.allclose(steps, 0.5)
    assert interval_net(1).size == 1


def test_rescaling_hits_the_target_exactly():
    net = circle_net(6, "arc")
    scaled = scaled_to_diameter(net, 1.0)
    assert diameter(scaled) == pytest.approx(1.0, abs=1e-12)
    assert scaled.labels == net.labels
    with pytest.raises(InputError):
        scaled_to_diameter(interval_net(1), 1.0)


def test_planar_spaces_are_separated_and_reproducible():
    a = random_planar_space(6, np.random.default_rng(7), box=2.0)
    b = random_planar_space(6, np.random.default_rng(7), box=2.0)
    assert np.array_equal(a.dist, b.dist)
    off = a.dist[~np.eye(6, dtype=bool)]
    assert off.min() > 1e-3 * 2.0


@pytest.mark.parametrize("box", [-1.0, 0.0, math.nan, math.inf, -math.inf])
def test_planar_box_must_be_positive_and_finite(box):
    """A negative, NaN or infinite box used to end in a numpy ValueError or
    OverflowError, and a zero box in a failed placement."""
    with pytest.raises(InputError, match="box must be positive and finite"):
        random_planar_space(3, np.random.default_rng(0), box=box)


def test_planar_points_that_cannot_be_placed_are_an_input_error():
    """100 draws that never clear the separation floor used to raise an
    ArithmeticError, which the command line reported as a failed bound."""
    with pytest.raises(InputError, match=r"could not place 3 points more than 0\.002 "
                                         r"\(1e-3 of the box\) apart"):
        random_planar_space(3, CoincidentPoints(), box=2.0)
    assert random_planar_space(1, CoincidentPoints()).size == 1


def test_random_algebra_respects_limits(rng):
    for _ in range(20):
        alg = random_algebra(rng, max_blocks=3, max_block=4)
        assert 1 <= alg.n_blocks <= 3
        assert all(1 <= m <= 4 for m in alg.block_sizes)


def test_random_sa_element_is_self_adjoint(rng):
    for _ in range(10):
        el = random_sa_element(M23, rng)
        for blk in el.blocks:
            assert np.allclose(blk, blk.conj().T)


def test_random_states_are_states(rng):
    for _ in range(10):
        phi = random_alg_state(M23, rng)
        assert sum(phi.weights) == pytest.approx(1.0, abs=1e-12)
        for rho in phi.densities:
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(rho, rho.conj().T)
            assert np.linalg.eigvalsh(rho).min() > -1e-12


def test_random_pure_states_have_rank_one_density(rng):
    space = interval_net(3)
    for _ in range(10):
        state = random_pure_state(space, M23, rng)
        (w, x, phi), = state.terms
        assert w == 1.0
        assert 0 <= x < 3
        live = [k for k, t in enumerate(phi.weights) if t > 0]
        assert len(live) == 1
        rho = phi.densities[live[0]]
        eigs = np.sort(np.linalg.eigvalsh(rho))
        assert eigs[-1] == pytest.approx(1.0, abs=1e-12)
        assert abs(eigs[:-1]).max() < 1e-12
