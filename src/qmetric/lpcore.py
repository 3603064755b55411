"""Dense two-phase primal simplex over free real variables.

Solves: maximize c.x subject to A x <= b, x unrestricted in sign.

Deliberately dense and unfactorized: an auditable pivot loop is worth more
than speed.  The tableau is m rows by 2n + m + 1 doubles (plus a column per
negative bound): 78 rows by 27 variables for a two-point M2+M3 distance, but
3536 by 209, about 112 MB, with full support on 16 points.  Bland's rule is
always on because the constraint geometry is highly degenerate (many
symmetric box rows).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

TAU_LP = 1e-7
PIVOT_TOL = 1e-9

_MAX_PIVOTS = 200_000


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """maximize objective . x  subject to  rows . x <= bounds, x free."""

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
    status: str  # "optimal" | "infeasible" | "unbounded"
    optimum: float | None
    x: np.ndarray | None


def _pivot(tab: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    for i in range(tab.shape[0]):
        if i != row and abs(tab[i, col]) > 0.0:
            tab[i] -= tab[i, col] * tab[row]
    basis[row] = col


def _entering(obj: np.ndarray, allowed: np.ndarray) -> int | None:
    # Bland: lowest-index improving column.
    for j in range(obj.size):
        if allowed[j] and obj[j] > PIVOT_TOL:
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


def _run_simplex(tab: np.ndarray, obj: np.ndarray, basis: list[int],
                 allowed: np.ndarray) -> str:
    """Pivot until optimal or unbounded. obj holds reduced costs, obj[-1] = -z."""
    for _ in range(_MAX_PIVOTS):
        col = _entering(obj[:-1], allowed)
        if col is None:
            return "optimal"
        row = _leaving(tab, basis, col)
        if row is None:
            return "unbounded"
        _pivot(tab, basis, row, col)
        obj -= obj[col] * tab[row]
    raise ArithmeticError("simplex pivot cap exceeded; input likely ill-posed")


def _reduced_costs(tab: np.ndarray, basis: list[int], cost: np.ndarray) -> np.ndarray:
    obj = np.zeros(tab.shape[1])
    obj[:-1] = cost
    for i, b in enumerate(basis):
        if obj[b] != 0.0:
            obj -= obj[b] * tab[i]
    return obj


def _dump(path: str, phase: str, tab: np.ndarray, obj: np.ndarray,
          basis: list[int], names: list[str], mode: str) -> None:
    with open(path, mode) as fh:
        fh.write("# %s\n" % phase)
        fh.write("basis," + ",".join(names) + ",rhs\n")
        for i in range(tab.shape[0]):
            cells = ",".join("%.12g" % v for v in tab[i])
            fh.write("%s,%s\n" % (names[basis[i]], cells))
        fh.write("obj," + ",".join("%.12g" % v for v in obj) + "\n")


def solve(lp: LinearProgram, dump_csv: str | None = None) -> LpSolution:
    """Two-phase simplex; feasibility and optimum certified to TAU_LP."""
    n = lp.objective.size
    m = lp.rows.shape[0]
    if m == 0:
        # No constraints: bounded only if the objective vanishes.
        if np.abs(lp.objective).max() > PIVOT_TOL:
            return LpSolution("unbounded", None, None)
        return LpSolution("optimal", 0.0, np.zeros(n))

    flip = lp.bounds < 0
    n_art = int(flip.sum())
    ncols = 2 * n + m + n_art

    tab = np.zeros((m, ncols + 1))
    tab[:, :n] = lp.rows
    tab[:, n:2 * n] = -lp.rows
    tab[:, -1] = lp.bounds
    tab[np.arange(m), 2 * n + np.arange(m)] = 1.0
    tab[flip] *= -1.0

    basis = []
    art_cols = []
    next_art = 2 * n + m
    for i in range(m):
        if flip[i]:
            tab[i, next_art] = 1.0
            basis.append(next_art)
            art_cols.append(next_art)
            next_art += 1
        else:
            basis.append(2 * n + i)

    names = (["u%d" % j for j in range(n)] + ["w%d" % j for j in range(n)]
             + ["s%d" % i for i in range(m)] + ["t%d" % k for k in range(n_art)])
    allowed = np.ones(ncols, dtype=bool)

    if n_art:
        cost1 = np.zeros(ncols)
        cost1[art_cols] = -1.0
        obj = _reduced_costs(tab, basis, cost1)
        status = _run_simplex(tab, obj, basis, allowed)
        if status != "optimal":
            raise ArithmeticError("phase 1 cannot be unbounded")
        if obj[-1] > TAU_LP:  # obj[-1] = -z = sum of artificials at optimum
            if dump_csv:
                _dump(dump_csv, "phase1 (infeasible)", tab, obj, basis, names, "w")
            return LpSolution("infeasible", None, None)
        # Drive leftover degenerate artificials out of the basis.
        drop_rows = []
        for i in range(m):
            if basis[i] not in art_cols:
                continue
            pivot_col = None
            for j in range(2 * n + m):
                if abs(tab[i, j]) > PIVOT_TOL:
                    pivot_col = j
                    break
            if pivot_col is None:
                drop_rows.append(i)  # redundant row
            else:
                _pivot(tab, basis, i, pivot_col)
        if drop_rows:
            keep = [i for i in range(m) if i not in drop_rows]
            tab = tab[keep]
            basis = [basis[i] for i in keep]
            m = len(keep)
        if dump_csv:
            _dump(dump_csv, "phase1", tab, obj, basis, names, "w")
        allowed[art_cols] = False
    elif dump_csv:
        _dump(dump_csv, "phase1 (skipped)", tab,
              np.zeros(ncols + 1), basis, names, "w")

    cost2 = np.zeros(ncols)
    cost2[:n] = lp.objective
    cost2[n:2 * n] = -lp.objective
    obj = _reduced_costs(tab, basis, cost2)
    status = _run_simplex(tab, obj, basis, allowed)
    if dump_csv:
        _dump(dump_csv, "phase2 (%s)" % status, tab, obj, basis, names, "a")
    if status == "unbounded":
        return LpSolution("unbounded", None, None)

    full = np.zeros(ncols)
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
