"""Linear programming: a dense simplex and an uncapacitated min-cost flow.

``min_cost_flow`` solves the transport problems that every exact MK
distance splits into, one per real channel: successive shortest paths on
the complete graph of the support plus one anchor node, in O(n^2) memory.

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


def _nearest_sink(reduced: np.ndarray, sources: np.ndarray, sinks: np.ndarray):
    """Dense Dijkstra from every source at once, stopped at the first sink.

    Returns (distance labels, predecessor per node, that sink); labels of
    nodes not yet settled are upper bounds.
    """
    dist = np.where(sources, 0.0, np.inf)
    pred = np.full(dist.size, -1)
    open_ = np.ones(dist.size, dtype=bool)
    while True:
        u = int(np.argmin(np.where(open_, dist, np.inf)))
        if sinks[u]:
            return dist, pred, u
        open_[u] = False
        reach = dist[u] + reduced[u]
        better = open_ & (reach < dist)
        dist[better] = reach[better]
        pred[better] = u


def min_cost_flow(cost, supply) -> FlowSolution:
    """Cheapest flow on the complete directed graph that meets every supply.

    Node i sends out supply[i] more than it takes in (a negative supply is a
    demand); arc i -> j carries any nonnegative amount at cost[i, j] >= 0 per
    unit.  This is the dual of: maximize supply . y subject to
    y_i - y_j <= cost[i, j] and y = 0 on the last node, and the returned
    potentials solve that problem, with supply . y equal to the cost of the
    returned flow.

    Successive shortest paths: each round finds, over reduced costs, the
    nearest node with unmet demand from any node with excess left, moves
    the potentials by the distance labels, and pushes as much as the path
    allows.  A path that crosses an arc backwards cancels flow on it.
    """
    c = np.asarray(cost, dtype=float)
    excess = np.array(supply, dtype=float)
    n = excess.size
    if excess.ndim != 1 or n == 0 or c.shape != (n, n):
        raise InputError("need a nonempty supply vector and a square cost "
                         "matrix of the same size")
    if not (np.isfinite(c).all() and np.isfinite(excess).all()):
        raise InputError("flow data must be finite")
    if (c < 0).any():
        raise InputError("arc costs must be nonnegative")
    tiny = _FLOW_EPS * float(np.abs(excess).sum())
    if abs(float(excess.sum())) > tiny:
        raise InputError("supplies must sum to zero")

    flow = np.zeros((n, n))
    pi = np.zeros(n)
    for _ in range(_MAX_PIVOTS):
        sources, sinks = excess > tiny, excess < -tiny
        if not (sources.any() and sinks.any()):
            break
        reduced = c + pi[:, None] - pi[None, :]
        back = flow.T > 0.0  # arc i -> j can cancel flow on j -> i
        reduced = np.maximum(np.where(back, -reduced.T, reduced), 0.0)
        dist, pred, t = _nearest_sink(reduced, sources, sinks)
        pi += np.minimum(dist, dist[t])
        path, v = [], t
        while pred[v] >= 0:
            path.append((int(pred[v]), v))
            v = int(pred[v])
        delta = min([excess[v], -excess[t]]
                    + [flow[j, i] for i, j in path if back[i, j]])
        for i, j in path:
            if back[i, j]:
                flow[j, i] -= delta
            else:
                flow[i, j] += delta
        excess[v] -= delta
        excess[t] += delta
    else:
        raise ArithmeticError("min-cost flow augmentation cap exceeded")
    return FlowSolution(flow, pi[-1] - pi)
