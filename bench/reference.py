"""Independent reference values for the exact MK distances, solved by HiGHS.

The support LP is rebuilt here from its definition, not from qmetric's LP
assembly: a self-adjoint element is one real coordinate per point and
channel (diagonal entries, then Re and Im of each strictly upper entry),
the Lipschitz part bounds each channel difference by the distance, and the
quotient term bounds each channel's distance to the recentring scalar.
scipy is a dependency of this benchmark only, never of the library.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix


def channel_basis(block_sizes):
    """Self-adjoint basis elements as (block, matrix, is_diagonal) triples."""
    basis = []
    for l, m in enumerate(block_sizes):
        for j in range(m):
            e = np.zeros((m, m), dtype=complex)
            e[j, j] = 1.0
            basis.append((l, e, True))
        for j in range(m):
            for k in range(j + 1, m):
                re = np.zeros((m, m), dtype=complex)
                re[j, k] = re[k, j] = 1.0
                im = np.zeros((m, m), dtype=complex)
                im[j, k], im[k, j] = 1j, -1j
                basis.append((l, re, False))
                basis.append((l, im, False))
    return basis


def pairing(state, n_points, basis) -> np.ndarray:
    """Coefficients of a -> state(a) over the (point, channel) coordinates."""
    coef = np.zeros((n_points, len(basis)))
    for w, x, phi in state.terms:
        for c, (l, e, _) in enumerate(basis):
            coef[x, c] += w * phi.weights[l] * np.trace(phi.densities[l] @ e).real
    return coef.ravel()


def real_max_distance(dist, block_sizes, mu, nu, q_kind, K=None, ref=None):
    """sup (mu - nu)(a) over the real_max / q_kind unit ball, by HiGHS.

    q_kind is "conv" or "conv_K" (one free recentring scalar r with
    |a_jj(p) - r| <= beta) or "state" (the scalar is ref(a)); off-diagonal
    channels are bounded by beta in every case.
    """
    n = dist.shape[0]
    basis = channel_basis(block_sizes)
    nc = len(basis)
    nv = n * nc + 1  # the last variable is r; fixed to 0 unless conv/conv_K
    rows, cols, vals, rhs = [], [], [], []

    def box(entries, bound):
        for sign in (1.0, -1.0):
            r = len(rhs)
            for col, v in entries:
                rows.append(r)
                cols.append(col)
                vals.append(sign * v)
            rhs.append(bound)

    for p in range(n):
        for q in range(p + 1, n):
            for c in range(nc):
                box([(p * nc + c, 1.0), (q * nc + c, -1.0)], dist[p, q])
    beta = K / 2.0 if q_kind == "conv_K" else 1.0
    if q_kind == "state":
        shift = [(i, -v) for i, v in enumerate(pairing(ref, n, basis)) if v]
    else:
        shift = [(nv - 1, -1.0)]
    for p in range(n):
        for c, (_, _, diagonal) in enumerate(basis):
            entries = [(p * nc + c, 1.0)]
            if diagonal:
                entries = entries + shift
                merged = {}
                for col, v in entries:
                    merged[col] = merged.get(col, 0.0) + v
                entries = list(merged.items())
            box(entries, beta)
    a_ub = coo_matrix((vals, (rows, cols)), shape=(len(rhs), nv)).tocsr()
    objective = np.zeros(nv)
    objective[:-1] = pairing(mu, n, basis) - pairing(nu, n, basis)
    bounds = [(None, None)] * (nv - 1)
    bounds.append((None, None) if q_kind in ("conv", "conv_K") else (0.0, 0.0))
    res = linprog(-objective, A_ub=a_ub, b_ub=np.array(rhs), bounds=bounds,
                  method="highs")
    if res.status != 0:
        raise ArithmeticError("reference LP failed: %s" % res.message)
    return float(-res.fun)
