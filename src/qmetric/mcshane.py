"""Bound- and Lipschitz-constant-preserving extension of real functions.

Every extension here is McShane's clamped inf-convolution, one array
kernel over target-to-subset distances.  extend(problem) runs it on one
checked channel of outside data, extend_channels on a channel array with
the constants it realizes, which need no check; both pin the subset.
The kernel works in tiles whose temporaries hold at most _BLOCK elements;
each element is the one a loop over subset points would form, and min and
max are exact, so the tiling does not change a bit of the result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import TAU_SA
from .errors import InputError, _array, _fields, _integer, _real
from .metric import FiniteMetricSpace

# elements in one tile of the extension kernels' temporaries (128 KB)
_BLOCK = 2 ** 14


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
        idx = tuple(_integer(i, "subset index", 0, self.space.size) for i in self.subset)
        if not idx:
            raise InputError("the subset must be nonempty")
        if len(set(idx)) != len(idx):
            raise InputError("subset indices must be distinct")
        v = _array(self.values, "values")
        if v.shape != (len(idx),):
            raise InputError("need one value per subset point")
        # every comparison with NaN is false, so NaN data would pass the
        # Lipschitz check below and extend to NaN
        if not np.isfinite(v).all():
            raise InputError("values must be finite")
        k = _real(self.lip_bound, "the Lipschitz bound", nonnegative=True)
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
        space, subset, values, lip_bound = _fields(
            data, "extension problem", space=object, subset=list, values=list, lip_bound=object)
        space = FiniteMetricSpace.from_json_dict(space)
        return cls(space, tuple(space.index_of(lab) for lab in subset), values, lip_bound)


def _tiles(t: int, k: int, c: int):
    """(target, subset, channel) slices that tile a (t, k, c) array in
    boxes of at most _BLOCK elements.  A box takes as many channels as fit,
    then every subset point or at least 8 of them (as many as fit), then
    as many targets as fit."""
    cw = max(1, min(c, _BLOCK))
    kw = max(1, min(k, _BLOCK // cw, max(8, _BLOCK // (cw * max(t, 1)))))
    tw = max(1, min(t, _BLOCK // (cw * kw)))
    for c0 in range(0, c, cw):
        for t0 in range(0, t, tw):
            for k0 in range(0, k, kw):
                yield (slice(t0, min(t0 + tw, t)), slice(k0, min(k0 + kw, k)),
                       slice(c0, min(c0 + cw, c)))


def _clamped_inf_convolution(rows: np.ndarray, chans: np.ndarray, lip: np.ndarray) -> np.ndarray:
    """Each column of chans, values (k, c) on k subset points, extended with
    its constant in lip (c,) to the t targets whose distances to the subset
    are rows (t, k): min over y of f(y) + K d(z, y), clamped to [min f,
    max f], unpinned.  Each tile of (targets, subset, channels) forms its
    d K + f as (subset, targets, channels) and takes the minimum over its
    first axis."""
    (t, k), c = rows.shape, chans.shape[1]
    low = np.full((t, c), np.inf)
    for ts, ks, cs in _tiles(t, k, c):
        cand = np.multiply(rows.T[ks, ts, None], lip[cs], order="C")
        cand += chans[ks, None, cs]
        np.minimum(low[ts, cs], cand.min(axis=0), out=low[ts, cs])
    return np.clip(low, chans.min(axis=0), chans.max(axis=0))


def _realized_extension(rows: np.ndarray, dist: np.ndarray, chans: np.ndarray) -> np.ndarray:
    """The kernel with each column's realized Lipschitz constant on the
    subset, whose own distances are dist (k, k) (_realized_constants)."""
    return _clamped_inf_convolution(rows, chans, _realized_constants(dist, chans))


def _realized_constants(dist: np.ndarray, chans: np.ndarray) -> np.ndarray:
    """Each column's realized Lipschitz constant on the subset, whose own
    distances are dist (k, k): the largest |f(a) - f(b)| / d(a, b) over
    a < b, 0 for one point, taken over the tiles of (b, a, channels),
    trimmed to b > a.start and a < b.stop - 1.  A tile of several a can
    still meet the diagonal; its pairs with a >= b are divided by inf,
    which gives 0.  Returns (c,)."""
    k, c = chans.shape
    consts = np.zeros(c)
    for b, a, cs in _tiles(k, k, c):
        b = slice(max(b.start, a.start + 1), b.stop)
        a = slice(a.start, min(a.stop, b.stop - 1))
        if a.start >= a.stop:
            continue
        den = dist[a, b]
        if a.stop > b.start:
            den = np.where(np.arange(a.start, a.stop)[:, None] < np.arange(b.start, b.stop),
                           den, np.inf)
        quot = np.abs(chans[a, None, cs] - chans[None, b, cs])
        quot /= den[:, :, None]
        np.maximum(consts[cs], quot.max(axis=(0, 1)), out=consts[cs])
    return consts


def extend(problem: ExtensionProblem) -> np.ndarray:
    """Extend by inf-convolution with clamping to the input range.

    The restriction identity holds exactly, the output is K-Lipschitz, and
    its range equals the input range.  Returns a (space.size,) array.
    """
    idx, vals = list(problem.subset), np.array(problem.values)
    out = _clamped_inf_convolution(problem.space.dist[:, idx], vals[:, None],
                                   np.array([problem.lip_bound]))
    out[idx] = vals[:, None]
    return out[:, 0]


def extend_channels(space: FiniteMetricSpace, subset, channels) -> np.ndarray:
    """Extend each column of a float array (len(subset), c) to all of space
    with its realized Lipschitz constant on the subset, so the data meet
    their bounds by construction and are not checked: the kernel over
    space.dist[:, subset], then the subset pinned.  Returns (space.size, c).
    """
    idx = np.array(subset, dtype=int)
    out = _realized_extension(space.dist[:, idx], space.dist[np.ix_(idx, idx)], channels)
    out[idx] = channels
    return out


def extend_as_map(problem: ExtensionProblem) -> dict:
    """Extension keyed by point label, for serialization."""
    out = extend(problem)
    return {lab: float(v) for lab, v in zip(problem.space.labels, out)}
