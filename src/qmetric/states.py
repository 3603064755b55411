"""States on matrix-valued function spaces as weighted point evaluations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, AlgState, check_state_shapes, tracial_state, TAU_STATE
from .errors import InputError, _integer, _real


@dataclass(frozen=True, eq=False)
class FunctionalState:
    """A convex combination of algebra states composed with point evaluations.

    Every pure state of the function space has this shape with a single
    term, so convex combinations of terms cover everything this library
    needs to evaluate or transport.
    """

    terms: tuple[tuple[float, int, AlgState], ...]

    def __post_init__(self):
        if not self.terms:
            raise InputError("a functional state needs at least one term")
        cleaned = []
        total = 0.0
        for w, x, phi in self.terms:
            w = _real(w, "term weights")
            x = _integer(x, "term point")
            if w < -TAU_STATE or w > 1.0 + TAU_STATE:
                raise InputError("term weights must lie in [0, 1]")
            if w < 0.0:  # within the slack below 0: no mass, as support() reads it
                w = 0.0
            if not isinstance(phi, AlgState):
                raise InputError("each term needs an AlgState")
            total += w
            cleaned.append((w, x, phi))
        if abs(total - 1.0) > TAU_STATE:
            raise InputError("term weights must sum to 1, got %.12g" % total)
        object.__setattr__(self, "terms", tuple(cleaned))

    def support(self) -> list[int]:
        """Sorted point indices carrying nonzero weight."""
        return sorted({x for w, x, _ in self.terms if w > 0.0})

    def max_point(self) -> int:
        return max(x for _, x, _ in self.terms)

    def to_json_dict(self, labels) -> dict:
        return {"terms": [{"w": w, "x": str(labels[x]), "phi": phi.to_json_dict()}
                          for w, x, phi in self.terms]}

    @classmethod
    def from_json_dict(cls, data: dict, labels) -> "FunctionalState":
        if not isinstance(data, dict) or not isinstance(data.get("terms"), list):
            raise InputError("functional state JSON must carry a 'terms' list")
        index = {str(lab): i for i, lab in enumerate(labels)}
        terms = []
        for term in data["terms"]:
            try:
                w, x, phi = term["w"], term["x"], term["phi"]
            except (TypeError, KeyError) as exc:
                raise InputError("each term needs 'w', 'x', and 'phi'") from exc
            if str(x) not in index:
                raise InputError("term point %r is not a label of the space" % (x,))
            terms.append((w, index[str(x)], AlgState.from_json_dict(phi)))
        return cls(tuple(terms))


def delta_embed(phi: AlgState, x: int) -> FunctionalState:
    """The state reading phi at the single point x."""
    return FunctionalState(((1.0, x, phi),))


def tracial_functional(algebra: Algebra, v, x: int) -> FunctionalState:
    """The block-weighted trace at a point, as a functional state."""
    return delta_embed(tracial_state(algebra, v), x)


def mix(weighted_states) -> FunctionalState:
    """Convex combination of functional states; weights must sum to 1."""
    terms = []
    for weight, state in weighted_states:
        weight = _real(weight, "mixture weights")
        for w, x, phi in state.terms:
            terms.append((weight * w, x, phi))
    return FunctionalState(tuple(terms))


def evaluate(state: FunctionalState, fn) -> complex:
    """Apply a functional state to a matrix function.

    The value is the weighted sum over terms of the algebra state applied
    to the function's value at the term's point, read from its stacks: per
    block, one contraction of every term's density with the function's
    value at the term's point.
    """
    n = fn.space.size
    for _, x, phi in state.terms:
        if x >= n:
            raise InputError("state point index %d beyond the function's space" % x)
        check_state_shapes(phi, fn.algebra)
    w, at, phis = zip(*state.terms)
    w = np.array(w)
    total = 0j
    for l, s in enumerate(fn.stacks):
        wt = w * np.array([phi.weights[l] for phi in phis])
        rho = np.stack([phi.densities[l] for phi in phis])
        # tr(rho @ a) = sum_ij rho_ij a_ji
        total += np.einsum("t,tij,tji->", wt, rho, s[list(at)])
    return complex(total)
