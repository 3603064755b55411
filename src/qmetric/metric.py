"""Finite metric spaces: validation, Hausdorff and Gromov-Hausdorff distances, nets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

TAU_METRIC = 1e-9

GH_EXACT_CAP = 5


def _triangle_violation(d: np.ndarray, tol: float, split=None):
    """First triple (i, k, j) with d[i,j] > d[i,k] + d[k,j] + tol, or None:
    the smallest such k, then its most violated (i, j), the first in
    row-major order on ties.

    With a split, only the triples that mix the points below it with those
    at or above it are scanned.  That is for an exactly symmetric d whose
    two diagonal blocks are metrics at tol already, so that no other triple
    violates.  By symmetry, the first most violated pair of a k below the
    split lies in the columns at or above it, and that of any other k in
    the rows below it, so the scan reports the full scan's triple.
    """
    n = d.shape[0]
    for k in range(n):
        if split is None:
            rows, c0 = n, 0
        else:
            rows, c0 = (n, split) if k < split else (split, 0)
        slack = d[:rows, k][:, None] + d[k, c0:][None, :] - d[:rows, c0:]
        if slack.min() < -tol:
            i, j = np.unravel_index(int(slack.argmin()), slack.shape)
            return int(i), int(k), int(j) + c0
    return None


@dataclass(frozen=True, eq=False)
class FiniteMetricSpace:
    """Labelled points with a validated symmetric distance matrix.

    Construction is validation: symmetry, a zero diagonal, strictly positive
    off-diagonal distances, and the triangle inequality are all checked and
    the first violated axiom is reported with its indices.
    """

    labels: tuple[str, ...]
    dist: np.ndarray

    def __post_init__(self):
        self._validate(self.labels, self.dist, triangle=True)

    @classmethod
    def _triangle_checked(cls, labels, dist) -> "FiniteMetricSpace":
        """Build from a matrix whose triangle inequality the caller has
        already verified at TAU_METRIC; every other axiom is checked."""
        space = object.__new__(cls)
        space._validate(labels, dist, triangle=False)
        return space

    def _validate(self, labels, dist, triangle: bool) -> None:
        labels = tuple(str(x) for x in labels)
        d = np.array(dist, dtype=float)
        n = len(labels)
        if len(set(labels)) != n:
            raise InputError("point labels must be distinct")
        if d.ndim != 2 or d.shape != (n, n):
            raise InputError("distance matrix must be %dx%d, got %r" % (n, n, d.shape))
        if not np.isfinite(d).all():
            raise InputError("distances must be finite")
        bad = np.abs(d - d.T) > TAU_METRIC
        if bad.any():
            i, j = np.unravel_index(int(bad.argmax()), bad.shape)
            raise InputError("distance matrix is not symmetric at (%d, %d)" % (i, j))
        if np.abs(np.diag(d)).max() > TAU_METRIC:
            i = int(np.abs(np.diag(d)).argmax())
            raise InputError("nonzero self-distance at point %d" % i)
        off = d + np.eye(n)
        if off.min() <= TAU_METRIC:
            i, j = np.unravel_index(int(off.argmin()), off.shape)
            raise InputError("distance between distinct points %d and %d is not positive" % (i, j))
        trip = _triangle_violation(d, TAU_METRIC) if triangle else None
        if trip is not None:
            i, k, j = trip
            raise InputError(
                "triangle inequality fails: d(%d,%d) > d(%d,%d) + d(%d,%d)" % (i, j, i, k, k, j))
        d = 0.5 * (d + d.T)
        np.fill_diagonal(d, 0.0)
        d.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dist", d)

    @property
    def size(self) -> int:
        return len(self.labels)

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise InputError("unknown point label %r" % (label,)) from None

    def subspace(self, indices) -> "FiniteMetricSpace":
        idx = list(indices)
        if not idx:
            raise InputError("a subspace needs at least one point")
        labels = tuple(self.labels[i] for i in idx)
        # a restriction of a metric keeps its triangle inequality
        return FiniteMetricSpace._triangle_checked(labels, self.dist[np.ix_(idx, idx)])

    def to_json_dict(self) -> dict:
        return {"labels": list(self.labels), "dist": [[float(x) for x in row] for row in self.dist]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "FiniteMetricSpace":
        if not isinstance(data, dict) or "labels" not in data or "dist" not in data:
            raise InputError("metric space JSON must carry 'labels' and 'dist'")
        return cls(tuple(data["labels"]), np.array(data["dist"], dtype=float))


def diameter(space: FiniteMetricSpace) -> float:
    return float(space.dist.max())


def scale(space: FiniteMetricSpace, c: float) -> FiniteMetricSpace:
    if not c > 0:
        raise InputError("scale factor must be positive")
    return FiniteMetricSpace(space.labels, space.dist * float(c))


def hausdorff(space: FiniteMetricSpace, sub_a, sub_b) -> float:
    """Two-sided Hausdorff distance between two nonempty point subsets."""
    a = list(sub_a)
    b = list(sub_b)
    if not a or not b:
        raise InputError("Hausdorff distance needs nonempty subsets")
    block = space.dist[np.ix_(a, b)]
    return max(float(block.min(axis=1).max()), float(block.min(axis=0).max()))


def epsilon_net(space: FiniteMetricSpace, eps: float, start: int = 0) -> list[int]:
    """Greedy farthest-point net with Hausdorff defect at most eps.

    Deterministic: the seed point is fixed (index 0 by default) and ties in
    the farthest-point step resolve to the lowest index.
    """
    if not eps > 0:
        raise InputError("eps must be positive")
    if not 0 <= start < space.size:
        raise InputError("start index out of range")
    chosen = [start]
    to_net = space.dist[start].copy()
    while True:
        far = int(to_net.argmax())
        if to_net[far] <= eps:
            return chosen
        chosen.append(far)
        to_net = np.minimum(to_net, space.dist[far])


def _distortion_of_maps(dx: np.ndarray, dy: np.ndarray, f, g) -> float:
    fa = np.asarray(f, dtype=int)
    ga = np.asarray(g, dtype=int)
    within_f = np.abs(dx - dy[np.ix_(fa, fa)]).max()
    within_g = np.abs(dx[np.ix_(ga, ga)] - dy).max()
    cross = np.abs(dx[:, ga] - dy[fa, :]).max()
    return float(max(within_f, within_g, cross))


def gh_exact(x: FiniteMetricSpace, y: FiniteMetricSpace, cap: int = GH_EXACT_CAP) -> float:
    """Exact Gromov-Hausdorff distance between two small spaces.

    A minimal-distortion correspondence can always be thinned to the union
    of the graphs of two maps f: X -> Y and g: Y -> X, so the search runs
    over such pairs with branch-and-bound pruning on the running distortion.
    """
    nx, ny = x.size, y.size
    if nx > cap or ny > cap:
        raise InputError(
            "gh_exact is capped at %d points per side; use gh_upper with an embedding" % cap)
    dx, dy = x.dist, y.dist

    seed_f = [min(i, ny - 1) for i in range(nx)]
    seed_g = [min(j, nx - 1) for j in range(ny)]
    best = _distortion_of_maps(dx, dy, seed_f, seed_g)

    f = np.zeros(nx, dtype=int)
    g = np.zeros(ny, dtype=int)

    def assign_g(j: int, cur: float):
        nonlocal best
        if j == ny:
            best = min(best, cur)
            return
        for u in range(nx):
            nxt = cur
            # against every f-pair and every earlier g-pair
            nxt = max(nxt, float(np.abs(dx[u, :] - dy[:, j][f]).max()))
            if j > 0:
                nxt = max(nxt, float(np.abs(dx[u, g[:j]] - dy[j, :j]).max()))
            if nxt >= best:
                continue
            g[j] = u
            assign_g(j + 1, nxt)

    def assign_f(i: int, cur: float):
        nonlocal best
        if i == nx:
            assign_g(0, cur)
            return
        for v in range(ny):
            nxt = cur
            if i > 0:
                nxt = max(nxt, float(np.abs(dx[i, :i] - dy[v, f[:i]]).max()))
            if nxt >= best:
                continue
            f[i] = v
            assign_f(i + 1, nxt)

    assign_f(0, 0.0)
    return 0.5 * best


@dataclass(frozen=True, eq=False)
class JoinedSpace:
    """Two spaces glued along caller-supplied cross distances.

    The cross matrix is taken as final (any admissibility offset has been
    folded in by the caller) and the whole union must satisfy the triangle
    inequality.  Both spaces are validated metrics, so only the triples
    that mix X and Y points are checked; a failure reports the triple a
    scan of every triple would.  Zero cross distances are allowed, so the
    union may be a pseudometric.
    """

    x: FiniteMetricSpace
    y: FiniteMetricSpace
    cross: np.ndarray

    def __post_init__(self):
        c = np.array(self.cross, dtype=float)
        if c.shape != (self.x.size, self.y.size):
            raise InputError("cross matrix must be %dx%d, got %r"
                             % (self.x.size, self.y.size, c.shape))
        if not np.isfinite(c).all():
            raise InputError("cross distances must be finite")
        if c.min() < -TAU_METRIC:
            raise InputError("cross distances must be nonnegative")
        full = np.block([[self.x.dist, c], [c.T, self.y.dist]])
        trip = _triangle_violation(full, TAU_METRIC, self.x.size)
        if trip is not None:
            i, k, j = trip
            nx = self.x.size
            def name(t):
                return "X%d" % t if t < nx else "Y%d" % (t - nx)
            raise InputError("joined metric fails the triangle inequality on (%s, %s, %s)"
                             % (name(i), name(k), name(j)))
        c.setflags(write=False)
        object.__setattr__(self, "cross", c)

    def full_matrix(self) -> np.ndarray:
        return np.block([[self.x.dist, self.cross], [self.cross.T, self.y.dist]])

    def metric_space(self, labels) -> FiniteMetricSpace:
        """The union as a metric space, X points first.  Its triangle
        inequality was checked at construction; the other axioms, including
        positive cross distances, are checked here."""
        return FiniteMetricSpace._triangle_checked(labels, self.full_matrix())

    def hausdorff_between(self) -> float:
        """Hausdorff distance between the X part and the Y part of the union."""
        return max(float(self.cross.min(axis=1).max()), float(self.cross.min(axis=0).max()))


def gh_upper(x: FiniteMetricSpace, y: FiniteMetricSpace, cross) -> float:
    """Upper bound for the Gromov-Hausdorff distance from one joined space."""
    joined = JoinedSpace(x, y, np.array(cross, dtype=float))
    return joined.hausdorff_between()
