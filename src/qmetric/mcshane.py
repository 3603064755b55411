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

    values holds one float per subset point, or one row of c floats per
    subset point for c channels extended side by side; lip_bound is then
    one constant for every channel or a tuple of c.  The data must already
    be K-Lipschitz on the subset (checked with slack tol); extension cannot
    repair data that violates its own bound.
    """

    space: FiniteMetricSpace
    subset: tuple[int, ...]
    values: tuple
    lip_bound: float | tuple[float, ...]
    tol: float = TAU_SA

    def __post_init__(self):
        idx = tuple(int(i) for i in self.subset)
        if not idx:
            raise InputError("the subset must be nonempty")
        if len(set(idx)) != len(idx):
            raise InputError("subset indices must be distinct")
        if min(idx) < 0 or max(idx) >= self.space.size:
            raise InputError("subset index out of range")
        v = np.array(self.values, dtype=float)
        if v.ndim not in (1, 2) or len(v) != len(idx):
            raise InputError("need one value per subset point")
        chans = v.reshape(len(idx), -1)
        k = np.array(self.lip_bound, dtype=float)
        if k.ndim > 1 or k.size not in (1, chans.shape[1]):
            raise InputError("need one Lipschitz bound, or one per channel")
        k = np.broadcast_to(k, chans.shape[1:])
        if (k < 0).any():
            raise InputError("the Lipschitz bound must be nonnegative")
        gap = np.abs(chans[:, None, :] - chans[None, :, :])
        allowed = k * self.space.dist[np.ix_(idx, idx)][:, :, None] + self.tol
        bad = np.triu(np.moveaxis(gap > allowed, 2, 0), 1)
        if bad.any():
            # the first channel that fails, then its first pair row-major
            c, a, b = np.argwhere(bad)[0]
            raise InputError(
                "input is not %.12g-Lipschitz: points %d and %d differ by %.12g"
                % (k[c], idx[a], idx[b], gap[a, b, c]))
        if v.ndim == 1:
            vals, bound = tuple(v.tolist()), float(k[0])
        else:
            vals, bound = tuple(map(tuple, v.tolist())), tuple(k.tolist())
        object.__setattr__(self, "subset", idx)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "lip_bound", bound)

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
        return cls(space, subset, tuple(data["values"]), data["lip_bound"])


def extend(problem: ExtensionProblem) -> np.ndarray:
    """Extend by inf-convolution with clamping to the input range.

    The value at z is min over subset points y of f(y) + K d(z, y), clamped
    to [min f, max f]; subset points are then pinned to their inputs, so the
    restriction identity holds exactly, the output is K-Lipschitz, and its
    range equals the input range.  Channels are extended independently, each
    with its own K; the output has shape (space.size,) or (space.size, c),
    following the values.
    """
    vals = np.array(problem.values)
    chans = vals.reshape(len(vals), -1)
    idx = np.array(problem.subset, dtype=int)
    lip = np.array(problem.lip_bound, dtype=float)
    cost = problem.space.dist[:, idx, None] * lip + chans[None, :, :]
    out = np.clip(cost.min(axis=1), chans.min(axis=0), chans.max(axis=0))
    out[idx] = chans
    return out.reshape((problem.space.size,) + vals.shape[1:])


def extend_channels(space: FiniteMetricSpace, subset, channels) -> np.ndarray:
    """Extend each column of a float array (len(subset), c) to all of space.

    Each column is extended with its own realized Lipschitz constant on the
    subset, in one extend call; returns a (space.size, c) array.
    """
    idx = tuple(subset)
    dist = space.dist[np.ix_(idx, idx)]
    consts = np.zeros(channels.shape[1])
    for a in range(len(idx) - 1):
        quot = np.abs(channels[a] - channels[a + 1:]) / dist[a, a + 1:, None]
        consts = np.maximum(consts, quot.max(axis=0))
    return extend(ExtensionProblem(space, idx, channels, tuple(consts)))


def extend_as_map(problem: ExtensionProblem) -> dict:
    """Extension keyed by point label, for serialization."""
    out = extend(problem)
    return {lab: float(v) for lab, v in zip(problem.space.labels, out)}
