"""Independent reference implementations used to pin expected values.

Everything here is written against the definitions, not against the
package internals: scans instead of closed forms, exhaustive enumeration
instead of search, a Jacobi eigensolver of our own where the package
calls LAPACK, one-channel-at-a-time flow loops where the package solves
all channels in lockstep (its own primal-dual rounds, and the successive
shortest paths it replaced, for the optimum), term-by-term pairings where
the package contracts all terms at once, and a dense slack-basis tableau
where the package runs a revised simplex on the dual.  Slow on purpose;
only run on tiny instances.
"""

import math
from itertools import combinations
from typing import NamedTuple, Optional

import numpy as np

from qmetric.errors import InputError
from qmetric.lpcore import LinearProgram


def _nelder_mead(f, start, step, iters=600):
    """Plain two-dimensional Nelder-Mead with standard coefficients."""
    pts = [np.asarray(start, dtype=float),
           np.asarray(start, dtype=float) + (step, 0.0),
           np.asarray(start, dtype=float) + (0.0, step)]
    vals = [f(p) for p in pts]
    for _ in range(iters):
        order = np.argsort(vals)
        pts = [pts[i] for i in order]
        vals = [vals[i] for i in order]
        if vals[2] - vals[0] < 1e-14 * (1.0 + abs(vals[0])):
            break
        centroid = (pts[0] + pts[1]) / 2.0
        refl = centroid + (centroid - pts[2])
        fr = f(refl)
        if vals[0] <= fr < vals[1]:
            pts[2], vals[2] = refl, fr
        elif fr < vals[0]:
            exp = centroid + 2.0 * (centroid - pts[2])
            fe = f(exp)
            pts[2], vals[2] = (exp, fe) if fe < fr else (refl, fr)
        else:
            contr = centroid + 0.5 * (pts[2] - centroid)
            fc = f(contr)
            if fc < vals[2]:
                pts[2], vals[2] = contr, fc
            else:
                for i in (1, 2):
                    pts[i] = pts[0] + 0.5 * (pts[i] - pts[0])
                    vals[i] = f(pts[i])
    return min(vals)


def scan_scalar_distance(block_mats, norm_of, real_only, radius, grid=257):
    """min over scalars z of norm(a - z 1), independently of any closed form.

    The real-only case is a dense one-dimensional grid refined by zooming,
    which is safe for a convex objective.  The complex case runs
    Nelder-Mead from several starts; a zooming grid stalls there because
    two-point ties make the valley flat to second order along one axis.
    """
    def eval_at(z):
        return norm_of([b - z * np.eye(b.shape[0]) for b in block_mats])

    if real_only:
        centre, span = 0.0, float(radius)
        best = None
        for _ in range(40):
            xs = np.linspace(centre - span, centre + span, grid)
            vals = [eval_at(complex(x, 0.0)) for x in xs]
            i = int(np.argmin(vals))
            if best is None or vals[i] < best:
                best, centre = vals[i], xs[i]
            span *= 4.0 / (grid - 1)
        return best

    f = lambda p: eval_at(complex(p[0], p[1]))
    starts = [(0.0, 0.0), (radius / 2, radius / 2), (-radius / 2, radius / 3),
              (radius / 3, -radius / 2), (-radius / 4, -radius / 4)]
    return min(_nelder_mead(f, s, step=max(radius / 4, 1e-3)) for s in starts)


def brute_lipschitz(dist, vals):
    """Largest difference quotient of a scalar function over point pairs."""
    n = len(vals)
    best = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            best = max(best, abs(vals[i] - vals[j]) / dist[i, j])
    return best


def brute_triangle_violation(d, tol):
    """First triple (i, k, j) with d[i,j] > d[i,k] + d[k,j] + tol, or None,
    by a plain triple loop in the full scan's order: the smallest such k,
    then its most violated (i, j), the first in row-major order on ties."""
    n = len(d)
    for k in range(n):
        worst = None
        for i in range(n):
            for j in range(n):
                slack = d[i, k] + d[k, j] - d[i, j]
                if slack < -tol and (worst is None or slack < worst[0]):
                    worst = (slack, i, j)
        if worst is not None:
            return worst[1], k, worst[2]
    return None


def gh_by_correspondences(dx, dy):
    """Exact distance by enumerating every surjective correspondence.

    A correspondence is a subset of the product covering both factors;
    the distance is half the smallest achievable distortion.  Cost is
    2^(nx ny), so keep both spaces at four points or fewer.
    """
    nx, ny = dx.shape[0], dy.shape[0]
    cells = [(i, j) for i in range(nx) for j in range(ny)]
    m = len(cells)
    # distortion contribution of each unordered pair of cells
    gap = np.empty((m, m))
    for a, (i, j) in enumerate(cells):
        for b, (k, l) in enumerate(cells):
            gap[a, b] = abs(dx[i, k] - dy[j, l])
    # bit c of a mask selects cells[c]; evaluate all masks as one batch
    masks = ((np.arange(1, 1 << m)[:, None] >> np.arange(m)) & 1).astype(bool)
    ind_x = np.zeros((m, nx), dtype=bool)
    ind_y = np.zeros((m, ny), dtype=bool)
    for c, (i, j) in enumerate(cells):
        ind_x[c, i] = True
        ind_y[c, j] = True
    surj = (masks @ ind_x).all(axis=1) & (masks @ ind_y).all(axis=1)
    masks = masks[surj]
    dis = np.zeros(masks.shape[0])
    for a in range(m):
        per_a = (masks * gap[a][None, :]).max(axis=1)
        dis = np.maximum(dis, np.where(masks[:, a], per_a, 0.0))
    return float(dis.min()) / 2.0


def lp_by_vertices(objective, rows, bounds, tol=1e-9):
    """Optimum of max c.x over {Ax <= b} by enumerating basic vertices.

    Assumes the region is bounded with at least one vertex; returns the
    best feasible vertex value.
    """
    a = np.asarray(rows, dtype=float)
    b = np.asarray(bounds, dtype=float)
    c = np.asarray(objective, dtype=float)
    n = a.shape[1]
    best = None
    for idx in combinations(range(a.shape[0]), n):
        sub = a[list(idx)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x = np.linalg.solve(sub, b[list(idx)])
        if np.all(a @ x <= b + tol):
            val = float(c @ x)
            if best is None or val > best:
                best = val
    return best


def lp_from_pairs(objective, constraints):
    """A LinearProgram from (row, bound) pairs."""
    return LinearProgram(np.asarray(objective, dtype=float),
                         np.asarray([r for r, _ in constraints], dtype=float),
                         np.asarray([b for _, b in constraints], dtype=float))


class TableauSolution(NamedTuple):
    status: str  # "optimal" | "unbounded"
    optimum: Optional[float]
    x: Optional[np.ndarray]


_PIVOT_TOL = 1e-9


def _pivot(tab, basis, row, col):
    tab[row] /= tab[row, col]
    for i in range(tab.shape[0]):
        if i != row and abs(tab[i, col]) > 0.0:
            tab[i] -= tab[i, col] * tab[row]
    basis[row] = col


def _entering(obj):
    # Bland: lowest-index improving column.
    for j in range(obj.size):
        if obj[j] > _PIVOT_TOL:
            return j
    return None


def _leaving(tab, basis, col):
    best_ratio = None
    best_row = None
    for i in range(tab.shape[0]):
        coef = tab[i, col]
        if coef <= _PIVOT_TOL:
            continue
        ratio = max(tab[i, -1], 0.0) / coef
        if best_ratio is None or ratio < best_ratio - _PIVOT_TOL:
            best_ratio, best_row = ratio, i
        elif ratio <= best_ratio + _PIVOT_TOL and basis[i] < basis[best_row]:
            # Bland again: among tied rows leave the lowest basic index.
            best_row = i
    return best_row


def tableau_solve(lp):
    """max c.x over A x <= b (b >= 0, x free) by a dense tableau.

    Bland's rule on the columns u, w >= 0 (x = u - w) and one slack per
    row, from the slack basis, which x = 0 makes feasible: the textbook
    method, sharing nothing with lpcore.solve's revised simplex on the
    dual.  The tableau is m rows by 2n + m + 1 doubles.
    """
    n = lp.objective.size
    m = lp.rows.shape[0]
    tab = np.zeros((m, 2 * n + m + 1))
    tab[:, :n] = lp.rows
    tab[:, n:2 * n] = -lp.rows
    tab[np.arange(m), 2 * n + np.arange(m)] = 1.0
    tab[:, -1] = lp.bounds
    basis = list(range(2 * n, 2 * n + m))
    obj = np.zeros(tab.shape[1])  # reduced costs, obj[-1] = -z
    obj[:n] = lp.objective
    obj[n:2 * n] = -lp.objective
    for _ in range(200_000):
        col = _entering(obj[:-1])
        if col is None:
            break
        row = _leaving(tab, basis, col)
        if row is None:
            return TableauSolution("unbounded", None, None)
        _pivot(tab, basis, row, col)
        obj -= obj[col] * tab[row]
    else:
        raise ArithmeticError("simplex pivot cap exceeded")
    full = np.zeros(tab.shape[1] - 1)
    for i, b in enumerate(basis):
        full[b] = tab[i, -1]
    x = full[:n] - full[n:2 * n]
    optimum = float(lp.objective @ x)
    worst = float((lp.rows @ x - lp.bounds).max(initial=0.0))
    if worst > 1e-7:
        raise ArithmeticError("simplex returned an infeasible point (residual %.3g)" % worst)
    if abs(optimum - (-obj[-1])) > 1e-7 * max(1.0, abs(optimum)):
        raise ArithmeticError("tableau objective and recomputed optimum disagree")
    return TableauSolution("optimal", optimum, x)


def _hermitian_support_lp(space, algebra, mu, nu, spec, entry_rows):
    """The MK distance LP on the support points in the Hermitian basis.

    The variables are the coordinates of a self-adjoint value at each
    support point in the basis E_jj, E_jk + E_kj, i E_jk - i E_kj (j < k):
    the real diagonal, then Re and Im of each upper entry.  The slope part
    bounds each diagonal coordinate difference by the distance, and
    entry_rows(re_row, im_row, r) adds the rows that bound one entry's
    (Re, Im) pair by r.  The quotient part bounds every entry by beta, and
    every diagonal coordinate by beta around a free recentring scalar (conv,
    conv_K, quotient_C) or around psi(a), a linear row (state).  Solved by
    the tableau.
    """
    states = [mu, nu] + ([spec.state] if spec.q_kind == "state" else [])
    support = sorted({x for st in states for w, x, _ in st.terms if w > 0.0})
    basis = []  # (block, Hermitian basis matrix, "diag" | "re" | "im")
    for blk, m in enumerate(algebra.block_sizes):
        for j in range(m):
            e = np.zeros((m, m), dtype=complex)
            e[j, j] = 1.0
            basis.append((blk, e, "diag"))
        for j, k in combinations(range(m), 2):
            for re, im, part in ((1.0, 1.0, "re"), (1j, -1j, "im")):
                e = np.zeros((m, m), dtype=complex)
                e[j, k], e[k, j] = re, im
                basis.append((blk, e, part))
    nb = len(basis)
    with_scalar = spec.q_kind in ("conv", "conv_K", "quotient_C")
    n_vars = len(support) * nb + (1 if with_scalar else 0)

    def unit(p, i):
        vec = np.zeros(n_vars)
        vec[p * nb + i] = 1.0
        return vec

    def pairing(state):
        coefs = np.zeros(n_vars)
        for w, x, phi in state.terms:
            if w > 0.0:
                for i, (blk, e, _) in enumerate(basis):
                    coefs[support.index(x) * nb + i] += (
                        w * phi.weights[blk] * np.trace(phi.densities[blk] @ e).real)
        return coefs

    rows, bounds = [], []

    def add(value_of, diag_centre, r):
        """Rows bounding value_of(i), the coordinate i expression, by r."""
        for i, (_, _, part) in enumerate(basis):
            if part == "diag":
                vec = value_of(i) - diag_centre
                rows.extend([vec, -vec])
                bounds.extend([r, r])
            elif part == "re":
                for row, b in entry_rows(value_of(i), value_of(i + 1), r):
                    rows.append(row)
                    bounds.append(b)

    for p, q in combinations(range(len(support)), 2):
        add(lambda i: unit(p, i) - unit(q, i), 0.0,
            float(space.dist[support[p], support[q]]))
    beta = spec.K / 2.0 if spec.q_kind == "conv_K" else 1.0
    if spec.q_kind == "state":
        centre = pairing(spec.state)
    else:
        centre = np.zeros(n_vars)
        centre[-1] = 1.0
    for p in range(len(support)):
        add(lambda i: unit(p, i), centre, beta)
    sol = tableau_solve(LinearProgram(pairing(mu) - pairing(nu), np.array(rows),
                                      np.array(bounds)))
    assert sol.status == "optimal"
    return sol.optimum


def support_lp_value(space, algebra, mu, nu, spec):
    """Exact real-max MK distance as the box-form LP on the support points:
    the real max norm of a value is its largest Hermitian coordinate
    modulus, so each entry's Re and Im are bounded on their own."""
    return _hermitian_support_lp(space, algebra, mu, nu, spec,
                                 lambda re, im, r: [(re, r), (-re, r), (im, r), (-im, r)])


def polygon_lp_value(space, algebra, mu, nu, spec, gamma):
    """The max-norm MK LP with every entry modulus bound |re + i im| <= r
    replaced by the regular 16-gon of inradius gamma r, all channels coupled
    in one LP: gamma = cos(pi / 16) inscribes the disc's polygon (a lower
    bound), gamma = 1 circumscribes it (an upper bound)."""
    angles = [2.0 * math.pi * t / 16.0 for t in range(16)]
    return _hermitian_support_lp(
        space, algebra, mu, nu, spec,
        lambda re, im, r: [(math.cos(th) * re + math.sin(th) * im, gamma * r)
                           for th in angles])


def brute_lip_part(fn, norm_kind):
    """Lipschitz part of a matrix function by the pairwise loop.

    One AlgElement difference and one per-element norm per unordered pair,
    exactly as the definition reads; lip_part must equal it bit for bit.
    """
    from qmetric import algebra as alg

    norm = {"operator": alg.op_norm, "max": alg.max_norm,
            "real_max": alg.real_max_norm}[norm_kind]
    n = fn.space.size
    best = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            diff = fn.values[i] - fn.values[j]
            best = max(best, norm(diff) / fn.space.dist[i, j])
    return best


def loop_transport(bridge, a_fn):
    """Matched Y-side blocks of a self-adjoint X-side function, one channel at a time.

    Every real entry channel (real diagonals, real and imaginary parts of
    the upper entries) gets its realized Lipschitz constant from a pairwise
    loop, is extended over the joined space and restricted to Y.  Returns
    one list of blocks per Y point.
    """
    from qmetric.mcshane import ExtensionProblem, extend

    nx, ny = bridge.x.size, bridge.y.size
    x_idx = tuple(range(nx))

    def transport(vals):
        vals = np.asarray(vals, dtype=float)
        k = brute_lipschitz(bridge.x.dist, vals)
        ext = extend(ExtensionProblem(bridge.joined_metric, x_idx,
                                      tuple(vals), k))
        return ext[nx:]

    out = [[np.zeros((m, m), dtype=complex) for m in bridge.algebra.block_sizes]
           for _ in range(ny)]
    for l, m in enumerate(bridge.algebra.block_sizes):
        for j in range(m):
            ext = transport([v.blocks[l][j, j].real for v in a_fn.values])
            for z in range(ny):
                out[z][l][j, j] = ext[z]
        for j, k in combinations(range(m), 2):
            ext_re = transport([v.blocks[l][j, k].real for v in a_fn.values])
            ext_im = transport([v.blocks[l][j, k].imag for v in a_fn.values])
            for z in range(ny):
                val = ext_re[z] + 1j * ext_im[z]
                out[z][l][j, k] = val
                out[z][l][k, j] = np.conj(val)
    return out


def hermitian_eigenvalues(mat, tol=1e-11):
    """All eigenvalues of a Hermitian matrix by cyclic Jacobi rotations.

    Shares no code with LAPACK, so it checks the package's numpy norms.
    Each rotation conjugates by the exact eigenbasis of the 2x2 pivot
    block, which annihilates that entry.  Sweeps continue until the
    off-diagonal Frobenius mass is at most tol times the total mass.

    Args:
      mat: square Hermitian ndarray, up to roundoff; the sweep
        re-symmetrises to contain drift.
      tol: relative off-diagonal mass at which the iteration stops.

    Returns:
      Eigenvalues in ascending order.
    """
    a = np.array(mat, dtype=complex)
    n = a.shape[0]
    if a.ndim != 2 or a.shape != (n, n):
        raise InputError("eigenvalue iteration needs a square matrix")
    drift = np.abs(a - a.conj().T).max()
    if drift > 1e-8 * max(1.0, np.abs(a).max()):
        raise InputError("eigenvalue iteration needs a Hermitian matrix")
    if n == 1:
        return np.array([a[0, 0].real])
    # work at unit scale so squared entries can neither under- nor overflow
    scale = float(np.abs(a).max())
    if scale == 0.0 or not math.isfinite(scale):
        if scale == 0.0:
            return np.zeros(n)
        raise InputError("eigenvalue iteration needs finite entries")
    # complex division by a subnormal scale overflows; real division does not
    a = a.real / scale + 1j * (a.imag / scale)
    total = np.linalg.norm(a)
    for _ in range(100):
        stripped = a.copy()
        np.fill_diagonal(stripped, 0.0)
        if np.linalg.norm(stripped) <= tol * total:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                g = a[p, q]
                if abs(g) <= 1e-18 * total:
                    continue
                # Eigenvectors of [[alpha, g], [conj(g), beta]]: the plus
                # eigenvector is (g, rho - delta); the stable form of
                # rho - delta avoids cancellation when delta > 0.
                delta = (a[p, p].real - a[q, q].real) / 2.0
                rho = math.hypot(delta, abs(g))
                u2 = abs(g) ** 2 / (rho + delta) if delta >= 0.0 else rho - delta
                nrm = math.sqrt(abs(g) ** 2 + u2 * u2)
                jpp, jpq = g / nrm, -u2 / nrm
                jqp, jqq = u2 / nrm, np.conj(g) / nrm
                colp = a[:, p] * jpp + a[:, q] * jqp
                colq = a[:, p] * jpq + a[:, q] * jqq
                a[:, p], a[:, q] = colp, colq
                rowp = np.conj(jpp) * a[p, :] + np.conj(jqp) * a[q, :]
                rowq = np.conj(jpq) * a[p, :] + np.conj(jqq) * a[q, :]
                a[p, :], a[q, :] = rowp, rowq
        a = 0.5 * (a + a.conj().T)
    else:
        raise ArithmeticError("Jacobi iteration did not converge in 100 sweeps")
    return np.sort(np.diag(a).real) * scale


def jacobi_op_norm(blocks):
    """C*-norm of a tuple of blocks: sqrt of the top Jacobi eigenvalue of b^* b."""
    return max(math.sqrt(max(float(hermitian_eigenvalues(b.conj().T @ b)[-1]), 0.0))
               for b in blocks)


def jacobi_spectral_spread(values):
    """Half the spread of the joint Jacobi spectrum of self-adjoint elements.

    The operator-norm distance from all of them to one common scalar.
    """
    evs = np.concatenate([hermitian_eigenvalues(b) for v in values for b in v.blocks])
    return 0.5 * (float(evs.max()) - float(evs.min()))


def _nearest_sink(reduced, sources, sinks):
    """Dense Dijkstra from every source at once, stopped at the first sink."""
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


def loop_min_cost_flow(cost, supply):
    """One channel's min-cost flow by successive shortest paths, alone.

    An independent reference for the optimum of lpcore.min_cost_flows,
    which moves many paths per round: per round one Dijkstra from every
    excess node to the nearest unmet demand over the reduced costs, the
    potentials moved by the settled labels, and the most that one path
    allows pushed.  Returns (flow, potentials), the potentials 0 on the
    last node.
    """
    c = np.asarray(cost, dtype=float)
    excess = np.array(supply, dtype=float)
    n = excess.size
    tiny = 64 * np.finfo(float).eps * float(np.abs(excess).sum())
    flow = np.zeros((n, n))
    pi = np.zeros(n)
    while True:
        sources, sinks = excess > tiny, excess < -tiny
        if not (sources.any() and sinks.any()):
            return flow, pi[-1] - pi
        reduced = c + pi[:, None] - pi[None, :]
        back = flow.T > 0.0
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


def loop_forest_flow(cost, supply):
    """One channel's min-cost flow by the primal-dual forest rounds, alone.

    The reference for lpcore.min_cost_flows, written as plain loops: per
    round, synchronous Bellman-Ford sweeps over the reduced costs from every
    excess node until no label improves (a label moves only on a strict
    improvement, to the first node that gives it), every potential moved by
    its label, then for each unmet demand in node order the most its tree
    path allows pushed.  Returns (flow, potentials), the potentials 0 on the
    last node.
    """
    c = np.asarray(cost, dtype=float)
    excess = np.array(supply, dtype=float)
    n = excess.size
    tiny = 64 * np.finfo(float).eps * float(np.abs(excess).sum())
    flow = np.zeros((n, n))
    pi = np.zeros(n)
    while True:
        sources, sinks = excess > tiny, excess < -tiny
        if not (sources.any() and sinks.any()):
            return flow, pi[-1] - pi
        reduced = c + pi[:, None] - pi[None, :]
        back = flow.T > 0.0
        reduced = np.maximum(np.where(back, -reduced.T, reduced), 0.0)
        dist = [0.0 if s else math.inf for s in sources]
        pred = [-1] * n
        changed = True
        while changed:
            changed = False
            new, new_pred = list(dist), list(pred)
            for j in range(n):
                for i in range(n):
                    via = dist[i] + float(reduced[i, j])
                    if via < new[j]:
                        new[j], new_pred[j], changed = via, i, True
            dist, pred = new, new_pred
        pi = pi + np.array(dist)
        for t in range(n):
            if not sinks[t]:
                continue
            path, v = [], t
            while pred[v] >= 0:
                path.append((pred[v], v))
                v = pred[v]
            delta = min([excess[v], -excess[t]]
                        + [flow[j, i] for i, j in path if back[i, j]])
            if delta <= 0.0:
                continue
            for i, j in path:
                if back[i, j]:
                    flow[j, i] -= delta
                else:
                    flow[i, j] += delta
            excess[v] -= delta
            excess[t] += delta


def loop_evaluate(state, fn):
    """A functional state applied to a matrix function term by term.

    Per term the algebra state's weighted trace pairing tr(rho a) with the
    value a at the term's point, one matrix product per block; the package
    contracts all terms of a block at once.
    """
    total = 0j
    for w, x, phi in state.terms:
        for t, rho, s in zip(phi.weights, phi.densities, fn.stacks):
            total += w * t * np.trace(rho @ s[x])
    return complex(total)


def loop_pairing_vector(algebra, state, positions):
    """Real-channel coefficients of a -> phi(a), one row per support point,
    built term by term and block by block in the package's channel order
    (real diagonal, then the (Re, Im) pairs of the upper entries row by
    row): rho_jj per diagonal entry, 2 Re rho_jk and 2 Im rho_jk per pair."""
    width = sum(m * m for m in algebra.block_sizes)
    coefs = np.zeros((len(positions), width))
    for w, x, phi in state.terms:
        if w == 0.0:
            continue
        row, off = coefs[positions[x]], 0
        for t, rho, m in zip(phi.weights, phi.densities, algebra.block_sizes):
            wt = w * t
            for j in range(m):
                row[off + j] += wt * rho[j, j].real
            col = off + m
            for j, k in combinations(range(m), 2):
                row[col] += wt * 2.0 * rho[j, k].real
                row[col + 1] += wt * 2.0 * rho[j, k].imag
                col += 2
            off += m * m
    return coefs
