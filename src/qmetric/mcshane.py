"""Bound- and Lipschitz-constant-preserving extension of real functions.

Every extension here is McShane's clamped inf-convolution, pinned on the
subset, computed by one array kernel.  extend(problem) runs it on one
checked channel of outside data; extend_channels runs it on a whole
channel array with the constants it realizes, which need no check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import TAU_SA
from .errors import InputError
from .metric import FiniteMetricSpace


@dataclass(frozen=True, eq=False)
class ExtensionProblem:
    """Real values on a subset of a finite metric space, to be extended.

    values holds one float per subset point and lip_bound one constant K.
    Values and K must be finite, and K nonnegative.  The data must already
    be K-Lipschitz on the subset (checked with slack TAU_SA); extension
    cannot repair data that violates its own bound.
    """

    space: FiniteMetricSpace
    subset: tuple[int, ...]
    values: tuple[float, ...]
    lip_bound: float

    def __post_init__(self):
        idx = tuple(int(i) for i in self.subset)
        if not idx:
            raise InputError("the subset must be nonempty")
        if len(set(idx)) != len(idx):
            raise InputError("subset indices must be distinct")
        if min(idx) < 0 or max(idx) >= self.space.size:
            raise InputError("subset index out of range")
        v = np.array(self.values, dtype=float)
        if v.ndim != 1 or len(v) != len(idx):
            raise InputError("need one value per subset point")
        # every comparison with NaN is false, so NaN data would pass the
        # Lipschitz check below and extend to NaN
        if not np.isfinite(v).all():
            raise InputError("values must be finite")
        k = np.array(self.lip_bound, dtype=float)
        if k.size != 1:
            raise InputError("need one Lipschitz bound")
        k = k.item()
        if not (math.isfinite(k) and k >= 0):
            raise InputError("the Lipschitz bound must be finite and nonnegative")
        gap = np.abs(v[:, None] - v[None, :])
        allowed = k * self.space.dist[np.ix_(idx, idx)] + TAU_SA
        bad = np.argwhere(np.triu(gap > allowed, 1))
        if len(bad):
            a, b = bad[0]  # row-major: lowest a, then lowest b
            raise InputError(
                "input is not %.12g-Lipschitz: points %d and %d differ by %.12g"
                % (k, idx[a], idx[b], gap[a, b]))
        object.__setattr__(self, "subset", idx)
        object.__setattr__(self, "values", tuple(v.tolist()))
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
        return cls(space, subset, tuple(data["values"]), data["lip_bound"])


def _clamped_inf_convolution(space: FiniteMetricSpace, idx: np.ndarray,
                             chans: np.ndarray, lip) -> np.ndarray:
    """Each column of chans (len(idx), c) extended with its constant in lip,
    one float or one per column.

    The value at z is min over subset points y of f(y) + K d(z, y), clamped
    to [min f, max f]; subset points are then pinned to their inputs.
    The minimum runs over y, one subset point at a time, so memory stays
    O(space.size * c) however many channels a batch extends.
    Returns a (space.size, c) array.
    """
    low = np.full((space.size, chans.shape[1]), np.inf)
    for y, f_y in zip(idx, chans):
        np.minimum(low, space.dist[:, y, None] * lip + f_y, out=low)
    out = np.clip(low, chans.min(axis=0), chans.max(axis=0))
    out[idx] = chans
    return out


def extend(problem: ExtensionProblem) -> np.ndarray:
    """Extend by inf-convolution with clamping to the input range.

    The restriction identity holds exactly, the output is K-Lipschitz, and
    its range equals the input range.  Returns a (space.size,) array.
    """
    vals = np.array(problem.values)
    out = _clamped_inf_convolution(problem.space, np.array(problem.subset, dtype=int),
                                   vals[:, None], problem.lip_bound)
    return out[:, 0]


def extend_channels(space: FiniteMetricSpace, subset, channels) -> np.ndarray:
    """Extend each column of a float array (len(subset), c) to all of space.

    Each column is extended with its own realized Lipschitz constant on the
    subset, so the data meet their bounds by construction and are not
    checked; returns a (space.size, c) array.
    """
    idx = np.array(subset, dtype=int)
    dist = space.dist[np.ix_(idx, idx)]
    consts = np.zeros(channels.shape[1])
    for a in range(len(idx) - 1):
        quot = np.abs(channels[a] - channels[a + 1:]) / dist[a, a + 1:, None]
        consts = np.maximum(consts, quot.max(axis=0))
    return _clamped_inf_convolution(space, idx, channels, consts)


def extend_as_map(problem: ExtensionProblem) -> dict:
    """Extension keyed by point label, for serialization."""
    out = extend(problem)
    return {lab: float(v) for lab, v in zip(problem.space.labels, out)}
