"""Deterministic example builders: circle and interval nets, random planar
spaces, and the random states that bridge certificates sample, all driven
by a caller-supplied Generator."""

from __future__ import annotations

import math

import numpy as np

from .algebra import Algebra, AlgState
from .errors import InputError, _integer, _real
from .metric import FiniteMetricSpace, diameter, scale
from .states import FunctionalState, delta_embed


def circle_net(n: int, metric: str = "chord", radius: float = 1.0) -> FiniteMetricSpace:
    """n equally spaced points on a circle, chord or arc distances."""
    n = _integer(n, "n", 1)
    if metric not in ("chord", "arc"):
        raise InputError("circle metric must be 'chord' or 'arc'")
    radius = _real(radius, "the radius", positive=True)
    angles = 2.0 * math.pi * np.arange(n) / n
    gap = np.abs(angles[:, None] - angles[None, :])
    gap = np.minimum(gap, 2.0 * math.pi - gap)
    if metric == "chord":
        dist = 2.0 * radius * np.sin(gap / 2.0)
    else:
        dist = radius * gap
    labels = tuple("c%d" % i for i in range(n))
    return FiniteMetricSpace(labels, dist)


def interval_net(n: int, length: float = 1.0) -> FiniteMetricSpace:
    """n equally spaced points on a segment of the given length."""
    n = _integer(n, "n", 1)
    length = _real(length, "the length", positive=True)
    xs = np.linspace(0.0, length, n) if n > 1 else np.zeros(1)
    dist = np.abs(xs[:, None] - xs[None, :])
    labels = tuple("t%d" % i for i in range(n))
    return FiniteMetricSpace(labels, dist)


def random_planar_space(n: int, rng: np.random.Generator,
                        box: float = 1.0) -> FiniteMetricSpace:
    """n random points in a square with Euclidean distances.

    Resamples until all pairwise distances clear a floor of 1e-3 box, so
    the result always validates as a metric space; InputError if 100 draws
    fail, as they almost surely do from about 2500 points on.
    """
    n = _integer(n, "n", 1)
    box = _real(box, "the box", positive=True)
    floor = 1e-3 * box
    for _ in range(100):
        pts = rng.uniform(0.0, box, size=(n, 2))
        dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        off = dist[~np.eye(n, dtype=bool)]
        if n == 1 or off.min() > floor:
            labels = tuple("p%d" % i for i in range(n))
            return FiniteMetricSpace(labels, dist)
    raise InputError("could not place %d points more than %g (1e-3 of the box) apart in 100 "
                     "draws" % (n, floor))


def scaled_to_diameter(space: FiniteMetricSpace, target: float) -> FiniteMetricSpace:
    """Rescale so the largest distance equals target."""
    target = _real(target, "the target diameter", positive=True)
    diam = diameter(space)
    if diam <= 0:
        raise InputError("cannot rescale a single-point space")
    return scale(space, target / diam)


def random_alg_state(algebra: Algebra, rng: np.random.Generator) -> AlgState:
    """Random block weights and random full-rank-ish density matrices."""
    weights = rng.dirichlet(np.ones(algebra.n_blocks))
    densities = []
    for m in algebra.block_sizes:
        g = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        rho = g @ g.conj().T
        densities.append(rho / np.trace(rho).real)
    return AlgState(weights, tuple(densities))


def random_product_state(space: FiniteMetricSpace, algebra: Algebra,
                         rng: np.random.Generator) -> FunctionalState:
    x = int(rng.integers(0, space.size))
    return delta_embed(random_alg_state(algebra, rng), x)
