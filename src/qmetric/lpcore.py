"""Linear programming: uncapacitated min-cost flows and a small revised simplex.

``min_cost_flows`` solves the transport problems that every exact MK
distance splits into, one per real channel, on the complete graph of the
support plus one anchor node, by a primal-dual method.  The k channels of
one support share its cost matrix, and channels of several supports of
one size each bring their own; either way they run in lockstep in
O(k n^2) memory: each round, per unfinished channel, one shortest-path
forest from
all excess nodes by min-plus relaxation of the reduced costs, every
potential moved by its distance, and a push along each forest path to an
unmet demand.  Each channel's flow and potentials are bit for bit those of
solving it alone.

``solve`` maximizes c.x subject to A x <= b (b >= 0, x free in sign) by
the revised simplex on its dual, minimize b.f subject to A^T f = c and
f >= 0.  The basis is n of the m rows, n the number of variables, so a
pivot costs two n x n solves and one pass over the rows; no tableau is
built.  The caller names the start, n independent rows whose weights
A_B^-T c are >= 0, so there is no phase 1.  The most violated row enters
(Dantzig), or after a run of degenerate pivots the first violated one
(Bland), which cannot cycle.  Before it returns, the optimum is certified
from both sides: x meets every row (c.x is attained) and the weights are
>= 0, combine the rows into c and cost c.x (b.f bounds every feasible
value).  It serves the per-entry 16-gon LPs of a refined max-norm interval.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundViolation, InputError, _array, _integer

TAU_LP = 1e-7

_MAX_PIVOTS = 200_000

# Relative rounding level: excess below this share of the total supply
# counts as delivered, a row violated by less counts as met, and a weight
# below this share of the largest is zero.
_EPS = 64 * np.finfo(float).eps

# A pivot element below this share of its column's largest is rounding.
_PIVOT_EPS = 1e-9

# Degenerate pivots in a row after which pricing switches to Bland's rule.
_DEGENERATE_RUN = 32


def _frozen(value, what: str) -> np.ndarray:
    """value as a read-only float array: itself if it is one that owns its
    data, so that LPs can share their rows, else a frozen copy read through
    errors._array, so that a caller's own array stays writeable."""
    if (isinstance(value, np.ndarray) and value.dtype == float and value.base is None
            and not value.flags.writeable):
        return value
    arr = _array(value, what)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """maximize objective . x  subject to  rows . x <= bounds (all >= 0), x free."""

    objective: np.ndarray
    rows: np.ndarray
    bounds: np.ndarray

    def __post_init__(self):
        c = _frozen(self.objective, "objective")
        a = _frozen(self.rows, "constraint rows")
        b = _frozen(self.bounds, "bounds")
        if c.ndim != 1 or c.size == 0:
            raise InputError("objective must be a nonempty vector")
        if a.ndim != 2 or a.shape[1] != c.size:
            raise InputError("constraint rows must match the objective length")
        if b.ndim != 1 or b.size != a.shape[0]:
            raise InputError("need one bound per constraint row")
        if not (np.isfinite(c).all() and np.isfinite(a).all() and np.isfinite(b).all()):
            raise InputError("linear program data must be finite")
        if (b < 0).any():
            raise InputError("bounds must be nonnegative, so that x = 0 is feasible")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "rows", a)
        object.__setattr__(self, "bounds", b)


@dataclass(frozen=True, eq=False)
class LpSolution:
    """An optimum with both halves of its proof: x meets every row, and the
    weights (one per row, >= 0) combine the rows into the objective at a
    cost of the optimum."""

    optimum: float
    x: np.ndarray
    weights: np.ndarray


def _simplex(a, b, basis, f_basis):
    """Pivot from a basis with weights f_basis >= 0 until its vertex x meets
    every row; returns x and the weights of all rows.  Updates basis and
    f_basis in place."""
    m, n = a.shape
    row_mass, run = np.abs(a).sum(axis=1), 0
    for _ in range(_MAX_PIVOTS):
        base = a[basis]
        x = np.linalg.solve(base, b[basis])
        slack = b - a @ x
        short = slack < -_EPS * (row_mass * np.abs(x).max() + b)
        if not short.any():
            weights = np.zeros(m)
            weights[basis] = f_basis
            return x, weights
        bland = run >= _DEGENERATE_RUN
        j = np.flatnonzero(short)[0] if bland else np.where(short, slack, 0.0).argmin()
        # Weight t on row j moves the basic weights by -t d and keeps A^T f = c.
        d = np.linalg.solve(base.T, a[j])
        can = d > _PIVOT_EPS * np.abs(d).max()
        if not can.any():
            raise ArithmeticError("no basic weight can leave; the rows admit no x")
        ratio = np.full(n, np.inf)
        ratio[can] = f_basis[can] / d[can]
        t = ratio.min()
        tied = np.flatnonzero(ratio == t)
        i = tied[basis[tied].argmin()] if bland else tied[d[tied].argmax()]
        f_basis -= t * d
        f_basis[i] = t
        f_basis[f_basis <= _EPS * f_basis.max()] = 0.0
        basis[i] = j
        run = run + 1 if t == 0.0 else 0
    raise ArithmeticError("simplex pivot cap exceeded; input likely ill-posed")


def _certify(lp: LinearProgram, x, weights) -> None:
    """Check both bounds; each slack is relative to the terms it sums."""
    a, b, c = lp.rows, lp.bounds, lp.objective
    abs_a = np.abs(a)
    if (weights < 0).any():
        raise BoundViolation("row %d carries a negative weight"
                             % np.flatnonzero(weights < 0)[0])
    over = a @ x - b
    bad = np.flatnonzero(over > TAU_LP * (abs_a @ np.abs(x) + b))
    if bad.size:
        raise BoundViolation("x exceeds row %d by %.3g" % (bad[0], over[bad[0]]))
    miss = float(np.abs(a.T @ weights - c).sum())
    if miss > TAU_LP * float(weights @ abs_a.sum(axis=1) + np.abs(c).sum()):
        raise BoundViolation("weights miss the objective by %.3g" % miss)
    lower, upper = float(c @ x), float(b @ weights)
    if abs(upper - lower) > TAU_LP * max(float(np.abs(c) @ np.abs(x)), upper):
        raise BoundViolation("weights cost %.12g, not the optimum %.12g" % (upper, lower))


def solve(lp: LinearProgram, start) -> LpSolution:
    """Maximize lp from the basis of rows start (one per variable), whose
    weights must be >= 0; the optimum is certified from both sides."""
    a, c = lp.rows, lp.objective
    basis = np.array([_integer(i, "start row", 0, a.shape[0]) for i in start], dtype=int)
    if basis.shape != c.shape or np.unique(basis).size != basis.size:
        raise InputError("the start needs one distinct row index per variable")
    if np.linalg.matrix_rank(a[basis]) < c.size:
        raise InputError("the start rows are linearly dependent")
    f_basis = np.linalg.solve(a[basis].T, c)
    if (f_basis < -_EPS * np.abs(f_basis).sum()).any():
        raise InputError("the start rows need weights >= 0 to give the objective")
    x, weights = _simplex(a, lp.bounds, basis, np.maximum(f_basis, 0.0))
    _certify(lp, x, weights)
    return LpSolution(float(c @ x), x, weights)


@dataclass(frozen=True, eq=False)
class FlowSolution:
    """A min-cost flow with the node potentials that prove it optimal.

    flow[i, j] >= 0 is the amount on arc i -> j.  The potentials y satisfy
    y_i - y_j <= cost[i, j], with equality wherever flow[i, j] > 0, and
    y = 0 on the last node.
    """

    flow: np.ndarray
    potential: np.ndarray


def _forests(reduced: np.ndarray, sources: np.ndarray):
    """Shortest-path forests in k rows at once, each grown from all of its
    sources: min-plus relaxation of every label over every arc, all nodes
    in step, until no label improves.  Returns per row the distance labels
    and the predecessor of each node (-1 at the sources); a label changes
    only when it strictly improves, so the predecessors form a forest."""
    dist = np.where(sources, 0.0, np.inf)
    pred = np.full(sources.shape, -1)
    while True:
        reach = dist[:, :, None] + reduced  # reach[r, i, j]: via i to j
        best = reach.min(axis=1)
        better = best < dist
        if not better.any():
            return dist, pred
        np.copyto(pred, reach.argmin(axis=1), where=better)
        np.copyto(dist, best, where=better)


def _push_forest(f, ex, pred, cancels, sinks) -> None:
    """Push, sink by sink in node order, the most each forest path from its
    source allows: the source's excess, the sink's demand and the flow on
    every arc the path crosses backwards (cancels[v]: the arc into v),
    cancelled there."""
    for t, is_sink in enumerate(sinks):
        if not is_sink:
            continue
        path, v = [], t
        while pred[v] >= 0:
            path.append(v)
            v = pred[v]
        delta = min([ex[v], -ex[t]] + [f[u, pred[u]] for u in path if cancels[u]])
        if delta <= 0.0:
            continue
        for u in path:
            if cancels[u]:
                f[u, pred[u]] -= delta
            else:
                f[pred[u], u] += delta
        ex[v] -= delta
        ex[t] += delta


def min_cost_flows(cost, supplies) -> list[FlowSolution]:
    """Cheapest flows on the complete directed graph, one per supply row.

    In row r node i sends out supplies[r, i] more than it takes in; arc
    i -> j carries any amount >= 0 at cost[i, j] >= 0 per unit, or at
    cost[r, i, j] if cost is a stack of one matrix per row.  This is the
    dual of: maximize supply . y subject to y_i - y_j <= cost[i, j], y = 0 on
    the last node; each row's potentials solve it, supply . y = flow cost.

    Primal-dual, all rows in lockstep.  Each round grows, per unfinished
    row and over its reduced costs (an arc that can cancel flow costs the
    negated reduced cost of the flow it cancels, clamped at 0), the
    shortest-path forest from all of its excess nodes (_forests).  Every
    potential then moves by its label: the graph is complete, so every
    node is reached, the reduced costs stay >= 0, and every forest arc
    costs 0.  The row then pushes along the forest path to each unmet
    demand that still has room (_push_forest); the first always does, so
    each round makes progress.  Each row's result is bit for bit its solve
    alone.
    """
    c, excess = _array(cost, "arc costs"), _array(supplies, "supply rows")
    if excess.ndim != 2 or excess.shape[1] == 0 or c.shape[-2:] != (excess.shape[1],) * 2:
        raise InputError("need nonempty supply rows and a square cost matrix of their length")
    if c.ndim not in (2, 3) or c.ndim == 3 and len(c) != len(excess):
        raise InputError("a cost stack needs one matrix per supply row, got %r for %d rows"
                         % (c.shape, len(excess)))
    if not np.isfinite(c).all() or (c < 0).any():
        raise InputError("arc costs must be finite and nonnegative")
    k, n = excess.shape
    finite = np.isfinite(excess).all(axis=1)
    excess = np.where(finite[:, None], excess, 0.0)  # sums without inf - inf
    tiny = _EPS * np.abs(excess).sum(axis=1)
    bad = ~finite | (np.abs(excess.sum(axis=1)) > tiny)
    if bad.any():
        raise InputError("supply row %d must be finite and sum to zero"
                         % np.flatnonzero(bad)[0])

    flow, pi, live = np.zeros((k, n, n)), np.zeros((k, n)), np.arange(k)
    for _ in range(_MAX_PIVOTS):
        sources = excess[live] > tiny[live, None]
        sinks = excess[live] < -tiny[live, None]
        going = sources.any(axis=1) & sinks.any(axis=1)
        live, sources, sinks = live[going], sources[going], sinks[going]
        if not live.size:
            break
        p = pi[live]
        # one shared matrix broadcasts over the rows
        reduced = (c if c.ndim == 2 else c[live]) + p[:, :, None] - p[:, None, :]
        back = flow[live].swapaxes(1, 2) > 0.0  # arc i -> j can cancel flow on j -> i
        reduced = np.maximum(np.where(back, -reduced.swapaxes(1, 2), reduced), 0.0)
        dist, pred = _forests(reduced, sources)
        pi[live] = p + dist
        cancels = back[np.arange(live.size)[:, None], pred, np.arange(n)] & (pred >= 0)
        for r, prd, cnc, snk in zip(live.tolist(), pred.tolist(), cancels.tolist(),
                                    sinks.tolist()):
            ex = excess[r].tolist()
            _push_forest(flow[r], ex, prd, cnc, snk)
            excess[r] = ex
    else:
        raise ArithmeticError("min-cost flow round cap exceeded")
    return [FlowSolution(f, y[-1] - y) for f, y in zip(flow, pi)]

