"""Linear programming: a dense simplex and uncapacitated min-cost flows.

``min_cost_flows`` solves the transport problems that every exact MK
distance splits into, one per real channel: successive shortest paths on
the complete graph of the support plus one anchor node.  The k channels of
one support share the cost matrix, so they run in lockstep, one batched
Dijkstra per round over every unfinished channel, in O(k n^2) memory; each
channel's flow and potentials are bit for bit those of solving it alone.
``min_cost_flow`` is the one-channel call.

``solve`` maximizes c.x subject to A x <= b with b >= 0, x unrestricted in
sign, from the slack basis.  It is deliberately dense and unfactorized: an
auditable pivot loop is worth more than speed.  The tableau is m rows by
2n + m + 1 doubles, which grows as n^2 * sum m^2 for a distance LP on n
support points, so it serves only the two 16-gon refinements of a max-norm
interval, whose channels couple.  Bland's rule is always on because the
constraint geometry is highly degenerate (many symmetric rows).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

TAU_LP = 1e-7
PIVOT_TOL = 1e-9

_MAX_PIVOTS = 200_000

# Excess below this share of the total supply counts as delivered: it is
# the rounding left by the augmentations, not unmet demand.
_FLOW_EPS = 64 * np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """maximize objective . x  subject to  rows . x <= bounds (all >= 0), x free."""

    objective: np.ndarray
    rows: np.ndarray
    bounds: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        a = np.asarray(self.rows, dtype=float)
        b = np.asarray(self.bounds, dtype=float)
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
        for arr in (c, a, b):
            arr.setflags(write=False)
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "rows", a)
        object.__setattr__(self, "bounds", b)

    @classmethod
    def from_pairs(cls, objective, constraints) -> "LinearProgram":
        """Build from (row, bound) pairs."""
        rows = [r for r, _ in constraints]
        bounds = [b for _, b in constraints]
        return cls(np.asarray(objective, dtype=float),
                   np.asarray(rows, dtype=float),
                   np.asarray(bounds, dtype=float))


@dataclass(frozen=True, eq=False)
class LpSolution:
    status: str  # "optimal" | "unbounded"
    optimum: float | None
    x: np.ndarray | None


def _pivot(tab: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    for i in range(tab.shape[0]):
        if i != row and abs(tab[i, col]) > 0.0:
            tab[i] -= tab[i, col] * tab[row]
    basis[row] = col


def _entering(obj: np.ndarray) -> int | None:
    # Bland: lowest-index improving column.
    for j in range(obj.size):
        if obj[j] > PIVOT_TOL:
            return j
    return None


def _leaving(tab: np.ndarray, basis: list[int], col: int) -> int | None:
    m = tab.shape[0]
    best_ratio = None
    best_row = None
    for i in range(m):
        coef = tab[i, col]
        if coef <= PIVOT_TOL:
            continue
        ratio = max(tab[i, -1], 0.0) / coef
        if best_ratio is None or ratio < best_ratio - PIVOT_TOL:
            best_ratio, best_row = ratio, i
        elif ratio <= best_ratio + PIVOT_TOL and basis[i] < basis[best_row]:
            # Bland again: among tied rows leave the lowest basic index.
            best_row = i
    return best_row


def _run_simplex(tab: np.ndarray, obj: np.ndarray, basis: list[int]) -> str:
    """Pivot until optimal or unbounded. obj holds reduced costs, obj[-1] = -z."""
    for _ in range(_MAX_PIVOTS):
        col = _entering(obj[:-1])
        if col is None:
            return "optimal"
        row = _leaving(tab, basis, col)
        if row is None:
            return "unbounded"
        _pivot(tab, basis, row, col)
        obj -= obj[col] * tab[row]
    raise ArithmeticError("simplex pivot cap exceeded; input likely ill-posed")


def solve(lp: LinearProgram) -> LpSolution:
    """Simplex on the columns u, w >= 0 (x = u - w) and one slack per row,
    from the slack basis, which x = 0 makes feasible; the optimum is
    re-checked to TAU_LP."""
    n = lp.objective.size
    m = lp.rows.shape[0]
    tab = np.zeros((m, 2 * n + m + 1))
    tab[:, :n] = lp.rows
    tab[:, n:2 * n] = -lp.rows
    tab[np.arange(m), 2 * n + np.arange(m)] = 1.0
    tab[:, -1] = lp.bounds
    basis = list(range(2 * n, 2 * n + m))

    obj = np.zeros(tab.shape[1])
    obj[:n] = lp.objective
    obj[n:2 * n] = -lp.objective
    if _run_simplex(tab, obj, basis) == "unbounded":
        return LpSolution("unbounded", None, None)

    full = np.zeros(tab.shape[1] - 1)
    for i, b in enumerate(basis):
        full[b] = tab[i, -1]
    x = full[:n] - full[n:2 * n]
    optimum = float(lp.objective @ x)

    residual = lp.rows @ x - lp.bounds
    worst = float(residual.max(initial=0.0))
    if worst > TAU_LP:
        raise ArithmeticError(
            "simplex returned an infeasible point (residual %.3g)" % worst)
    if abs(optimum - (-obj[-1])) > TAU_LP * max(1.0, abs(optimum)):
        raise ArithmeticError("tableau objective and recomputed optimum disagree")
    return LpSolution("optimal", optimum, x)


@dataclass(frozen=True, eq=False)
class FlowSolution:
    """A min-cost flow with the node potentials that prove it optimal.

    flow[i, j] >= 0 is the amount on arc i -> j.  The potentials y satisfy
    y_i - y_j <= cost[i, j], with equality wherever flow[i, j] > 0, and
    y = 0 on the last node.
    """

    flow: np.ndarray
    potential: np.ndarray


def _nearest_sinks(reduced: np.ndarray, sources: np.ndarray, sinks: np.ndarray):
    """Dense Dijkstra in k rows at once, each from all of its sources, closed
    at its first settled sink.  Returns per row the distance labels (upper
    bounds where not settled), the predecessor of each node and that sink."""
    k, n = sources.shape
    dist = np.where(sources, 0.0, np.inf)
    pred = np.full((k, n), -1)
    open_, sinks, sink = np.ones((k, n), dtype=bool), sinks.copy(), np.full(k, -1)
    first = np.arange(0, k * n, n)  # flat index of each row's node 0
    while True:
        u = np.where(open_, dist, np.inf).argmin(axis=1)
        at = first + u
        hit = sinks.ravel()[at]
        if np.count_nonzero(hit):
            sink[hit] = u[hit]
            open_[hit] = sinks[hit] = False
            if not np.count_nonzero(sinks):
                return dist, pred, sink
        open_.ravel()[at] = False
        reach = dist.ravel()[at][:, None] + reduced.reshape(k * n, n).take(at, axis=0)
        better = open_ & (reach < dist)
        np.copyto(dist, reach, where=better)
        np.copyto(pred, u[:, None], where=better)


def min_cost_flows(cost, supplies) -> list[FlowSolution]:
    """Cheapest flows on the complete directed graph, one per supply row.

    In row r node i sends out supplies[r, i] more than it takes in; arc
    i -> j carries any amount >= 0 at cost[i, j] >= 0 per unit.  This is the
    dual of: maximize supply . y subject to y_i - y_j <= cost[i, j], y = 0 on
    the last node; each row's potentials solve it, supply . y = flow cost.

    Successive shortest paths, all rows in lockstep: each round one batched
    Dijkstra finds, per unfinished row and over its reduced costs, the
    nearest unmet demand from any excess; the row moves its potentials by
    the labels and pushes what its path allows, cancelling flow on arcs it
    crosses backwards.  Each row's result is bit for bit its solve alone.
    """
    c, excess = np.asarray(cost, dtype=float), np.array(supplies, dtype=float)
    if excess.ndim != 2 or excess.shape[1] == 0 or c.shape != (excess.shape[1],) * 2:
        raise InputError("need nonempty supply rows and a square cost matrix of their length")
    if not np.isfinite(c).all() or (c < 0).any():
        raise InputError("arc costs must be finite and nonnegative")
    k, n = excess.shape
    tiny = np.empty(k)
    for r, row in enumerate(excess):
        tiny[r] = _FLOW_EPS * float(np.abs(row).sum())
        if not (np.isfinite(row).all() and abs(float(row.sum())) <= tiny[r]):
            raise InputError("supply row %d must be finite and sum to zero" % r)

    flow, pi, live = np.zeros((k, n, n)), np.zeros((k, n)), np.arange(k)
    for _ in range(_MAX_PIVOTS):
        sources = excess[live] > tiny[live, None]
        sinks = excess[live] < -tiny[live, None]
        going = sources.any(axis=1) & sinks.any(axis=1)
        live, sources, sinks = live[going], sources[going], sinks[going]
        if not live.size:
            break
        p = pi[live]
        reduced = c + p[:, :, None] - p[:, None, :]
        back = flow[live].swapaxes(1, 2) > 0.0  # arc i -> j can cancel flow on j -> i
        reduced = np.maximum(np.where(back, -reduced.swapaxes(1, 2), reduced), 0.0)
        dist, pred, sink = _nearest_sinks(reduced, sources, sinks)
        pi[live] = p + np.minimum(dist, dist[np.arange(live.size), sink, None])
        for r, b, prd, t in zip(live, back, pred.tolist(), sink.tolist()):
            f, ex = flow[r], excess[r]
            path, v = [], t
            while prd[v] >= 0:
                path.append((prd[v], v))
                v = prd[v]
            delta = min([ex[v], -ex[t]] + [f[j, i] for i, j in path if b[i, j]])
            for i, j in path:
                if b[i, j]:
                    f[j, i] -= delta
                else:
                    f[i, j] += delta
            ex[v] -= delta
            ex[t] += delta
    else:
        raise ArithmeticError("min-cost flow augmentation cap exceeded")
    return [FlowSolution(f, y[-1] - y) for f, y in zip(flow, pi)]


def min_cost_flow(cost, supply) -> FlowSolution:
    """min_cost_flows for one supply vector."""
    return min_cost_flows(cost, [supply])[0]
