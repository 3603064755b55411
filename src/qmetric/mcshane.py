"""Bound- and Lipschitz-constant-preserving extension of real functions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import TAU_SA
from .errors import InputError
from .metric import FiniteMetricSpace


@dataclass(frozen=True, eq=False)
class ExtensionProblem:
    """Real values on a subset of a finite metric space, to be extended.

    The data must already be K-Lipschitz on the subset (checked with slack
    tol); extension cannot repair data that violates its own bound.
    """

    space: FiniteMetricSpace
    subset: tuple[int, ...]
    values: tuple[float, ...]
    lip_bound: float
    tol: float = TAU_SA

    def __post_init__(self):
        idx = tuple(int(i) for i in self.subset)
        vals = tuple(float(v) for v in self.values)
        if not idx:
            raise InputError("the subset must be nonempty")
        if len(set(idx)) != len(idx):
            raise InputError("subset indices must be distinct")
        if min(idx) < 0 or max(idx) >= self.space.size:
            raise InputError("subset index out of range")
        if len(vals) != len(idx):
            raise InputError("need one value per subset point")
        k = float(self.lip_bound)
        if k < 0:
            raise InputError("the Lipschitz bound must be nonnegative")
        v = np.array(vals)
        gap = np.abs(v[:, None] - v[None, :])
        allowed = k * self.space.dist[np.ix_(idx, idx)] + self.tol
        bad = np.argwhere(np.triu(gap > allowed, 1))
        if len(bad):
            a, b = bad[0]  # row-major: lowest a, then lowest b
            raise InputError(
                "input is not %.12g-Lipschitz: points %d and %d differ by %.12g"
                % (k, idx[a], idx[b], gap[a, b]))
        object.__setattr__(self, "subset", idx)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "lip_bound", k)

    def to_json_dict(self) -> dict:
        return {"space": self.space.to_json_dict(),
                "subset": [self.space.labels[i] for i in self.subset],
                "values": list(self.values),
                "lip_bound": self.lip_bound}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExtensionProblem":
        if not isinstance(data, dict):
            raise InputError("extension problem JSON must be an object")
        for key in ("space", "subset", "values", "lip_bound"):
            if key not in data:
                raise InputError("extension problem JSON is missing %r" % key)
        space = FiniteMetricSpace.from_json_dict(data["space"])
        subset = tuple(space.index_of(str(lab)) for lab in data["subset"])
        return cls(space, subset, tuple(data["values"]),
                   float(data["lip_bound"]))


def extend(problem: ExtensionProblem) -> np.ndarray:
    """Extend by inf-convolution with clamping to the input range.

    The value at z is min over subset points y of f(y) + K d(z, y), clamped
    to [min f, max f]; subset points are then pinned to their inputs, so the
    restriction identity holds exactly, the output is K-Lipschitz, and its
    range equals the input range.
    """
    vals = np.array(problem.values)
    idx = np.array(problem.subset, dtype=int)
    lo, hi = float(vals.min()), float(vals.max())
    cost = problem.space.dist[:, idx] * problem.lip_bound + vals[None, :]
    out = np.clip(cost.min(axis=1), lo, hi)
    out[idx] = vals
    return out


def extend_channels(space: FiniteMetricSpace, subset, channels) -> np.ndarray:
    """Extend each column of a float array (len(subset), c) to all of space.

    Each column goes through extend on its own, with its own realized
    Lipschitz constant on the subset; returns a (space.size, c) array.
    """
    idx = tuple(subset)
    dist = space.dist[np.ix_(idx, idx)]
    consts = np.zeros(channels.shape[1])
    for a in range(len(idx) - 1):
        quot = np.abs(channels[a] - channels[a + 1:]) / dist[a, a + 1:, None]
        consts = np.maximum(consts, quot.max(axis=0))
    return np.column_stack([extend(ExtensionProblem(space, idx, tuple(col), k))
                            for col, k in zip(channels.T, consts)])


def extend_as_map(problem: ExtensionProblem) -> dict:
    """Extension keyed by point label, for serialization."""
    out = extend(problem)
    return {lab: float(v) for lab, v in zip(problem.space.labels, out)}
