"""Test-only builders: random algebras, elements, self-adjoint functions and
pure states, all driven by a caller-supplied Generator, a function scaled
into the conv unit ball, one element's distance to the scalars, and a
generator whose uniform points all coincide."""

from __future__ import annotations

import numpy as np

from qmetric.algebra import TAU_SA, Algebra, AlgElement, scalar_distance, vector_state
from qmetric.funcspace import MatrixFunction, conv_spec, lipnorm
from qmetric.metric import FiniteMetricSpace
from qmetric.states import FunctionalState, delta_embed


def dist_to_scalars(a: AlgElement, norm_kind: str, tol: float = TAU_SA) -> float:
    """Distance from an element to the scalar multiples of the identity."""
    return scalar_distance(tuple(b[None] for b in a.blocks), norm_kind, tol)


class CoincidentPoints:
    """A stand-in Generator whose uniform draws are all the centre of the range."""

    def uniform(self, low, high, size):
        return np.full(size, 0.5 * (low + high))


def random_algebra(rng: np.random.Generator, max_blocks: int = 3,
                   max_block: int = 5) -> Algebra:
    n_blocks = int(rng.integers(1, max_blocks + 1))
    sizes = tuple(int(rng.integers(1, max_block + 1)) for _ in range(n_blocks))
    return Algebra(sizes)


def random_sa_element(algebra: Algebra, rng: np.random.Generator,
                      scale_: float = 1.0) -> AlgElement:
    blocks = []
    for m in algebra.block_sizes:
        z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        blocks.append(scale_ * (z + z.conj().T) / 2.0)
    return AlgElement(algebra, tuple(blocks))


def random_element(algebra: Algebra, rng: np.random.Generator,
                   scale_: float = 1.0) -> AlgElement:
    blocks = []
    for m in algebra.block_sizes:
        z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        blocks.append(scale_ * z)
    return AlgElement(algebra, tuple(blocks))


def random_sa_function(space: FiniteMetricSpace, algebra: Algebra,
                       rng: np.random.Generator) -> MatrixFunction:
    values = tuple(random_sa_element(algebra, rng) for _ in range(space.size))
    return MatrixFunction(space, algebra, values)


def in_conv_unit_ball(fn: MatrixFunction) -> MatrixFunction:
    """fn divided by its conv seminorm, made from values."""
    scale = 1.0 / lipnorm(fn, conv_spec())
    return MatrixFunction(fn.space, fn.algebra, tuple(v.scaled(scale) for v in fn.values))


def random_pure_state(space: FiniteMetricSpace, algebra: Algebra,
                      rng: np.random.Generator) -> FunctionalState:
    """A vector state at a random block, composed with a point evaluation."""
    x = int(rng.integers(0, space.size))
    k = int(rng.integers(0, algebra.n_blocks))
    m = algebra.block_sizes[k]
    vec = rng.normal(size=m) + 1j * rng.normal(size=m)
    vec = vec / np.linalg.norm(vec)
    return delta_embed(vector_state(algebra, k, vec), x)
