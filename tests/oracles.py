"""Independent reference implementations used to pin expected values.

Everything here is written against the definitions, not against the
package internals: scans instead of closed forms, exhaustive enumeration
instead of search, and a Jacobi eigensolver of our own where the package
calls LAPACK.  Slow on purpose; only run on tiny instances.
"""

import math
from itertools import combinations

import numpy as np

from qmetric.errors import InputError


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


def support_lp_value(space, algebra, mu, nu, spec):
    """Exact real-max MK distance as the box-form LP on the support points.

    Written from the definitions: the variables are the coordinates of a
    self-adjoint value at each support point in the Hermitian basis E_jj,
    E_jk + E_kj, i E_jk - i E_kj (j < k), so the real max norm of a value is
    its largest coordinate modulus.  The slope part bounds each coordinate
    difference by the distance.  The quotient part bounds every
    off-diagonal coordinate by beta, and every diagonal one by beta around
    a free recentring scalar (conv, conv_K, quotient_C) or around psi(a), a
    linear row (state).  Solved by lpcore.solve.
    """
    from qmetric.lpcore import LinearProgram, solve

    states = [mu, nu] + ([spec.state] if spec.q_kind == "state" else [])
    support = sorted({x for st in states for w, x, _ in st.terms if w > 0.0})
    basis = []  # (block, Hermitian basis matrix, on the diagonal)
    for blk, m in enumerate(algebra.block_sizes):
        for j in range(m):
            e = np.zeros((m, m), dtype=complex)
            e[j, j] = 1.0
            basis.append((blk, e, True))
        for j, k in combinations(range(m), 2):
            for re, im in ((1.0, 1.0), (1j, -1j)):
                e = np.zeros((m, m), dtype=complex)
                e[j, k], e[k, j] = re, im
                basis.append((blk, e, False))
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

    def two_sided(vec, b):
        rows.extend([vec, -vec])
        bounds.extend([b, b])

    for p, q in combinations(range(len(support)), 2):
        for i in range(nb):
            two_sided(unit(p, i) - unit(q, i), float(space.dist[support[p], support[q]]))
    beta = spec.K / 2.0 if spec.q_kind == "conv_K" else 1.0
    if spec.q_kind == "state":
        centre = pairing(spec.state)
    else:
        centre = np.zeros(n_vars)
        centre[-1] = 1.0
    for p in range(len(support)):
        for i, (_, _, on_diag) in enumerate(basis):
            two_sided(unit(p, i) - centre if on_diag else unit(p, i), beta)
    sol = solve(LinearProgram(pairing(mu) - pairing(nu), np.array(rows), np.array(bounds)))
    assert sol.status == "optimal"
    return sol.optimum


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
