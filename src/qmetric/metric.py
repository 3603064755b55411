"""Finite metric spaces: validation, Hausdorff and Gromov-Hausdorff distances, nets."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, _array, _integer, _real

TAU_METRIC = 1e-9

GH_EXACT_CAP = 5


_SCAN_ROWS = 64   # rows of one slack block, which holds 64 n floats
_SCAN_KS = 256    # middle points k per pass over the row blocks


def _slack_blocks(d: np.ndarray, ks, rows: int, c0: int):
    """(k, r0, c, slack) for each block of at most _SCAN_ROWS rows below
    rows of a symmetric d, and within it each k of ks: slack[i - r0, j - c]
    is fl(fl(d[i,k] + d[k,j]) - d[i,j]) for the columns j >= c.  The
    columns start at c0, or at the block's first row if that is later:
    every pair i <= j is still covered, and each other pair (i, j) is the
    mirror of a covered pair (j, i) with the same slack.  Each row block's
    slack is one buffer, reused for every k."""
    for r0 in range(0, rows, _SCAN_ROWS):
        r1 = min(rows, r0 + _SCAN_ROWS)
        c = max(c0, r0)
        block = d[r0:r1, c:]
        buf = np.empty(block.shape)
        for k in ks:
            np.add(d[r0:r1, k, None], d[k, c:], out=buf)
            yield k, r0, c, np.subtract(buf, block, out=buf)


def _triangle_violation(d: np.ndarray, tol: float, split=None):
    """(triple, worst): the first triple (i, k, j) with d[i,j] > d[i,k] +
    d[k,j] + tol, or None, and the least slack fl(fl(d[i,k] + d[k,j]) -
    d[i,j]) that the scan computed, for an exactly symmetric d.  The triple
    is the smallest such k, then its most violated (i, j), the first in
    row-major order on ties; with no triple, worst is over every scanned
    triple, else over those of its k.

    The scan takes the k in passes of _SCAN_KS and the rows in blocks of
    _SCAN_ROWS (_slack_blocks), so it holds O(n) floats at a time.  As d is
    exactly symmetric, the slack of (i, k, j) is bit for bit that of (j, k,
    i), since fl(a + b) = fl(b + a).  So the scan reads only the pairs i <=
    j, and those mirrored within a row block: the least slack is the same
    as a full scan's, and so is the first most violated pair, since the
    mirror (j, i) of a most violated pair with i > j is one that comes
    first in row-major order.

    With a split, only the triples that mix the points below it with those
    at or above it are scanned.  That is for a d whose two diagonal blocks
    are metrics at tol already, so that no other triple violates.  By
    symmetry, the first most violated pair of a k below the split lies in
    the columns at or above it, and that of any other k in the rows below
    it, so the scan reports the full scan's triple.
    """
    n = d.shape[0]
    parts = [(0, n, n, 0)] if split is None else [(0, split, n, split), (split, n, split, 0)]
    worst = math.inf
    for k_from, k_to, rows, c0 in parts:
        for k0 in range(k_from, k_to, _SCAN_KS):
            ks = range(k0, min(k_to, k0 + _SCAN_KS))
            least = np.full(len(ks), math.inf)
            for k, _, _, slack in _slack_blocks(d, ks, rows, c0):
                least[k - k0] = min(least[k - k0], slack.min())
            bad = np.flatnonzero(least < -tol)
            if bad.size:
                k, found = k0 + int(bad[0]), None
                for _, r0, c, slack in _slack_blocks(d, (k,), rows, c0):
                    at = int(slack.argmin())
                    if found is None or slack.flat[at] < found[0]:
                        i, j = divmod(at, slack.shape[1])
                        found = (slack.flat[at], r0 + i, c + j)
                return (found[1], k, found[2]), float(least[bad[0]])
            worst = min(worst, float(least.min()))
    return None, worst


def _check_pointwise_axioms(d: np.ndarray) -> None:
    """InputError on the first failure, in this order, of finite entries,
    symmetry and a zero diagonal (both to TAU_METRIC), and positive
    distances off the diagonal.  One O(n^2) scratch array serves every
    check."""
    n = len(d)
    if not np.isfinite(d).all():
        raise InputError("distances must be finite")
    scratch = np.subtract(d, d.T)
    bad = np.abs(scratch, out=scratch) > TAU_METRIC
    if bad.any():
        i, j = np.unravel_index(int(bad.argmax()), bad.shape)
        raise InputError("distance matrix is not symmetric at (%d, %d)" % (i, j))
    if np.abs(np.diag(d)).max() > TAU_METRIC:
        i = int(np.abs(np.diag(d)).argmax())
        raise InputError("nonzero self-distance at point %d" % i)
    off = scratch  # d + I: the diagonal, within TAU_METRIC of 0, is raised clear of the test
    np.copyto(off, d)
    off[np.diag_indices(n)] += 1.0
    if off.min() <= TAU_METRIC:
        i, j = np.unravel_index(int(off.argmin()), off.shape)
        raise InputError("distance between distinct points %d and %d is not positive" % (i, j))


@dataclass(frozen=True, eq=False)
class FiniteMetricSpace:
    """Labelled points with a validated symmetric distance matrix.

    Construction is validation: finite entries, symmetry and a zero
    diagonal (both to TAU_METRIC) and strictly positive off-diagonal
    distances are checked on the given matrix, which is then symmetrized
    and stored; the triangle inequality is checked on the stored matrix.
    The first violated axiom is reported with its indices.

    The triangle scan's least slack is kept as _worst_slack: a lower bound
    on fl(fl(d[i,k] + d[k,j]) - d[i,j]) over every triple (i, k, j) of the
    stored dist, at least -TAU_METRIC, and exact for a scanned space.  A
    subspace keeps its parent's value, since its triples are some of the
    parent's; a space built without a scan records -inf (no bound).
    JoinedSpace._net_join reads it.
    """

    labels: tuple[str, ...]
    dist: np.ndarray

    def __post_init__(self):
        self._validate(self.labels, self.dist)

    @classmethod
    def _triangle_checked(cls, labels, dist, worst_slack=-math.inf) -> "FiniteMetricSpace":
        """Build from a matrix whose triangle inequality the caller has
        already verified at TAU_METRIC, with worst_slack a lower bound on
        its triangle slacks; every other axiom is checked."""
        space = object.__new__(cls)
        space._validate(labels, dist, worst_slack)
        return space

    def _validate(self, labels, dist, worst_slack=None) -> None:
        """Check the pointwise axioms, symmetrize, check the triangle
        inequality of the stored matrix only when no worst_slack is given,
        and store the space."""
        try:
            labels = tuple(str(x) for x in labels)
        except TypeError:
            raise InputError("point labels must be a sequence, got %r" % (labels,)) from None
        d = _array(dist, "distance matrix")
        n = len(labels)
        if n == 0:
            raise InputError("a metric space needs at least one point")
        if len(set(labels)) != n:
            raise InputError("point labels must be distinct")
        if d.ndim != 2 or d.shape != (n, n):
            raise InputError("distance matrix must be %dx%d, got %r" % (n, n, d.shape))
        _check_pointwise_axioms(d)
        d *= 0.5  # before the sum, so it cannot overflow; exact above TAU_METRIC
        d = d + d.T
        np.fill_diagonal(d, 0.0)
        d.setflags(write=False)
        if worst_slack is None:
            trip, worst_slack = _triangle_violation(d, TAU_METRIC)
            if trip is not None:
                i, k, j = trip
                raise InputError("triangle inequality fails: d(%d,%d) > d(%d,%d) + d(%d,%d)"
                                 % (i, j, i, k, k, j))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dist", d)
        object.__setattr__(self, "_worst_slack", worst_slack)

    @property
    def size(self) -> int:
        return len(self.labels)

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise InputError("unknown point label %r" % (label,)) from None

    def subspace(self, indices) -> "FiniteMetricSpace":
        idx = _point_indices(self, indices)
        if not idx:
            raise InputError("a subspace needs at least one point")
        labels = tuple(self.labels[i] for i in idx)
        # a restriction of a metric keeps its triangle inequality, and its
        # slacks are some of the metric's
        return FiniteMetricSpace._triangle_checked(labels, self.dist[np.ix_(idx, idx)],
                                                   self._worst_slack)

    def to_json_dict(self) -> dict:
        return {"labels": list(self.labels), "dist": [[float(x) for x in row] for row in self.dist]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "FiniteMetricSpace":
        if not (isinstance(data, dict) and isinstance(data.get("labels"), list)
                and "dist" in data):
            raise InputError("metric space JSON must carry a 'labels' list and 'dist'")
        return cls(tuple(data["labels"]), data["dist"])


def diameter(space: FiniteMetricSpace) -> float:
    return float(space.dist.max())


def scale(space: FiniteMetricSpace, c: float) -> FiniteMetricSpace:
    c = _real(c, "scale factor", positive=True)
    return FiniteMetricSpace(space.labels, space.dist * c)


def _block_hausdorff(block: np.ndarray) -> float:
    """Hausdorff distance of the row set and the column set of a distance block."""
    return max(float(block.min(axis=1).max()), float(block.min(axis=0).max()))


def _point_indices(space: FiniteMetricSpace, indices) -> list:
    """The indices as a list of ints, each checked to be a point of space."""
    return [_integer(i, "point index", 0, space.size) for i in indices]


def hausdorff(space: FiniteMetricSpace, sub_a, sub_b) -> float:
    """Two-sided Hausdorff distance between two nonempty point subsets."""
    a, b = _point_indices(space, sub_a), _point_indices(space, sub_b)
    if not a or not b:
        raise InputError("Hausdorff distance needs nonempty subsets")
    return _block_hausdorff(space.dist[np.ix_(a, b)])


def epsilon_net(space: FiniteMetricSpace, eps: float, start: int = 0) -> list[int]:
    """Greedy farthest-point net with Hausdorff defect at most eps.

    Deterministic: the seed point is fixed (index 0 by default) and ties in
    the farthest-point step resolve to the lowest index.
    """
    eps = _real(eps, "eps", positive=True)
    start = _integer(start, "start", 0, space.size)
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


def gh_exact(x: FiniteMetricSpace, y: FiniteMetricSpace) -> float:
    """Exact Gromov-Hausdorff distance between two small spaces.

    A minimal-distortion correspondence can always be thinned to the union
    of the graphs of two maps f: X -> Y and g: Y -> X, so the search runs
    over such pairs with branch-and-bound pruning on the running distortion.
    The search is exponential in the point count, so each side may have at
    most GH_EXACT_CAP points.
    """
    nx, ny = x.size, y.size
    if nx > GH_EXACT_CAP or ny > GH_EXACT_CAP:
        raise InputError("gh_exact is capped at %d points per side; use gh_upper with "
                         "an embedding" % GH_EXACT_CAP)
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
    union may be a pseudometric.  A net joined to its own space with an
    offset (_net_join, for approx_table rows) is a metric by a lemma, and
    is scanned only when rounding might break it.
    """

    x: FiniteMetricSpace
    y: FiniteMetricSpace
    cross: np.ndarray

    def __post_init__(self):
        self._check(scan=True)

    @classmethod
    def _net_join(cls, x: FiniteMetricSpace, y: FiniteMetricSpace, net, cross,
                  offset: float) -> "JoinedSpace":
        """The join of x, the subspace of y on the indices net, to y, across
        cross = fl(y.dist[net] + offset) with offset >= 0.  It checks what a
        JoinedSpace checks, but skips the scan of mixed triples when it can
        prove that the scan finds nothing.

        Lemma.  In exact arithmetic every mixed triangle slack of this join
        is a slack of y plus 0 or 2 offset.  For net points a, b and points
        p, q of y, D(a, p) <= D(a, b) + D(b, p) and D(a, p) <= D(a, q) +
        D(q, p) have the offset on both sides, while D(a, b) <= D(a, p) +
        D(p, b) and D(p, q) <= D(p, a) + D(a, q) have it twice on the right.

        Rounding.  Let u = eps / 2 and M = diam(y) + offset.  For entries in
        [0, B], the scan's fl(fl(a + b) - c) lies within 5uB of a + b - c.
        So every exact slack of y is at least w - 5u diam(y), with w the
        least slack its scan computed (y._worst_slack).  Each stored cross
        distance lies within uM of d + offset, so the mixed slacks of the
        stored entries are at least w - 5u diam(y) - 3uM, and the scan
        computes them to within 5uM(1 + u).  Every computed mixed slack is
        therefore at least w - 14uM = w - 7 eps M.  The margin 16 eps (M +
        TAU_METRIC) covers that with room for the rounding of the test
        itself, so when w - margin >= -TAU_METRIC no computed slack is below
        -TAU_METRIC and the scan is skipped.

        It runs as for any join when that test fails, or when x, net,
        cross or offset are not as stated (checked in O(|net| |y|)).
        """
        joined = object.__new__(cls)
        for name, val in (("x", x), ("y", y), ("cross", cross)):
            object.__setattr__(joined, name, val)
        idx = np.asarray(net, dtype=int)
        margin = 16.0 * np.finfo(float).eps * (float(y.dist.max()) + offset + TAU_METRIC)
        proved = (offset >= 0 and idx.shape == (x.size,)
                  and bool(((idx >= 0) & (idx < y.size)).all())
                  and np.array_equal(x.dist, y.dist[np.ix_(idx, idx)])
                  and np.array_equal(cross, y.dist[idx] + offset)
                  and y._worst_slack - margin >= -TAU_METRIC)
        joined._check(scan=not proved)
        return joined

    def _check(self, scan: bool) -> None:
        """Check the cross matrix (_cross_matrix), then the mixed triples if
        scan, and store the cross matrix read-only."""
        c = _cross_matrix(self.cross, self.x, self.y)
        if scan:
            full = np.block([[self.x.dist, c], [c.T, self.y.dist]])
            trip, _ = _triangle_violation(full, TAU_METRIC, self.x.size)
            if trip is not None:
                i, k, j = trip
                nx = self.x.size
                def name(t):
                    return "X%d" % t if t < nx else "Y%d" % (t - nx)
                raise InputError("joined metric fails the triangle inequality on (%s, %s, %s)"
                                 % (name(i), name(k), name(j)))
        c.setflags(write=False)
        object.__setattr__(self, "cross", c)

    def mirrored(self) -> "JoinedSpace":
        """The same union with Y first.  Its triples are this join's, so it
        is not scanned again."""
        joined = object.__new__(JoinedSpace)
        for name, val in (("x", self.y), ("y", self.x), ("cross", self.cross.T)):
            object.__setattr__(joined, name, val)
        return joined

    def full_matrix(self) -> np.ndarray:
        return np.block([[self.x.dist, self.cross], [self.cross.T, self.y.dist]])

    def metric_space(self, labels) -> FiniteMetricSpace:
        """The union as a metric space, X points first.  Its triangle
        inequality was checked at construction; the other axioms, including
        positive cross distances, are checked here."""
        return FiniteMetricSpace._triangle_checked(labels, self.full_matrix())

    def hausdorff_between(self) -> float:
        """Hausdorff distance between the X part and the Y part of the union."""
        return _block_hausdorff(self.cross)


def _cross_matrix(cross, x: FiniteMetricSpace, y: FiniteMetricSpace) -> np.ndarray:
    """cross as a new float array; InputError unless it is an x.size by
    y.size matrix of finite nonnegative distances."""
    c = _array(cross, "cross matrix")
    if c.shape != (x.size, y.size):
        raise InputError("cross matrix must be %dx%d, got %r" % (x.size, y.size, c.shape))
    if not (np.isfinite(c).all() and c.min() >= 0.0):
        raise InputError("cross distances must be finite and nonnegative")
    return c


def gh_upper(x: FiniteMetricSpace, y: FiniteMetricSpace, cross) -> float:
    """Upper bound for the Gromov-Hausdorff distance from one joined space."""
    return JoinedSpace(x, y, cross).hausdorff_between()
