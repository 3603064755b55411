"""Monge-Kantorovich distances between functional states.

For entrywise-box seminorm specs the Lip-ball, sampled on the support
points of the two states, is a polytope, so the defining sup is a finite
linear program; the optimizer then extends channel by channel to a
certified witness on the whole space.  Operator- and max-norm specs get
two-sided intervals instead, from the nested unit balls of the norm
sandwich, optionally tightened by 16-gon inner/outer approximations of
each complex-modulus constraint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import Algebra, check_state_shapes
from .errors import BoundViolation, InputError, UnsupportedSpec
from .funcspace import (MatrixFunction, SeminormSpec, channel_slots, from_channels,
                        lipnorm)
from .lpcore import TAU_LP, LinearProgram, solve
from .mcshane import extend_channels
from .metric import FiniteMetricSpace, diameter
from .states import FunctionalState, evaluate, tracial_functional

_ROOT2 = math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class MkResult:
    """Either an exact value with its optimizing witness, or an interval."""

    kind: str  # "exact" | "interval"
    value: Optional[float] = None
    lower: Optional[float] = None
    upper: Optional[float] = None
    witness: Optional[MatrixFunction] = None

    def to_json_dict(self) -> dict:
        if self.kind == "exact":
            return {"kind": "exact", "value": self.value,
                    "witness": self.witness.to_json_dict()}
        return {"kind": "interval", "lower": self.lower, "upper": self.upper}


class _SupportLayout:
    """Real coordinates of a self-adjoint element sampled on support points.

    Per point, the real channels of funcspace.channel_slots; an optional
    trailing variable holds the global recentring scalar.
    """

    def __init__(self, algebra: Algebra, n_points: int, with_shift: bool):
        self.n_points = n_points
        self.slots = channel_slots(algebra)
        self.diag, re, im = (np.concatenate(part) for part in zip(*self.slots))
        self.pairs = list(zip(re, im))
        self.per_point = sum(m * m for m in algebra.block_sizes)
        self.n_base = self.per_point * n_points
        self.shift = self.n_base if with_shift else None
        self.n_vars = self.n_base + (1 if with_shift else 0)


def _pairing_vector(layout: _SupportLayout, state: FunctionalState,
                    positions: dict) -> np.ndarray:
    """Coefficients of the linear map a -> phi(a) over the layout coordinates.

    Valid for self-adjoint a, where the pairing is real: tr(rho b) picks up
    rho_jj per real diagonal entry and 2 Re rho_jk, 2 Im rho_jk per upper
    (Re, Im) pair.
    """
    coefs = np.zeros(layout.n_vars)
    for w, x_idx, phi in state.terms:
        if w == 0.0:
            continue
        base = positions[x_idx] * layout.per_point
        for (diag, re, im), t_l, rho in zip(layout.slots, phi.weights, phi.densities):
            wt = w * t_l
            upper = rho[np.triu_indices(len(rho), 1)]
            coefs[base + diag] += wt * rho.diagonal().real
            coefs[base + re] += wt * 2.0 * upper.real
            coefs[base + im] += wt * 2.0 * upper.imag
    return coefs


def _ball_rows(layout: _SupportLayout, d_sub: np.ndarray, spec: SeminormSpec,
               positions: dict):
    """Linear rows and complex-modulus discs cutting out the Lip unit ball.

    Returns (rows, bounds, discs) where each disc is (re_row, im_row, radius)
    standing for |re_row.x + i im_row.x| <= radius.  In box form a disc means
    the two independent interval constraints of the entrywise real max norm;
    polygon form reads it as a true modulus bound.
    """
    rows: list[np.ndarray] = []
    bounds: list[float] = []
    discs: list[tuple[np.ndarray, np.ndarray, float]] = []
    nv, pp = layout.n_vars, layout.per_point

    def box(vec, b):
        rows.append(vec)
        bounds.append(b)
        rows.append(-vec)
        bounds.append(b)

    def gap(p, q, c):
        vec = np.zeros(nv)
        vec[p * pp + c] = 1.0
        if q is not None:
            vec[q * pp + c] = -1.0
        return vec

    for p in range(layout.n_points):
        for q in range(p + 1, layout.n_points):
            d = float(d_sub[p, q])
            for c in layout.diag:
                box(gap(p, q, c), d)
            for c_re, c_im in layout.pairs:
                discs.append((gap(p, q, c_re), gap(p, q, c_im), d))

    beta = spec.K / 2.0 if spec.q_kind == "conv_K" else 1.0
    if spec.q_kind == "state":
        shift = _pairing_vector(layout, spec.state, positions)
    else:
        shift = np.zeros(nv)
        shift[layout.shift] = 1.0
    for p in range(layout.n_points):
        for c in layout.diag:
            vec = -shift.copy()
            vec[p * pp + c] += 1.0
            box(vec, beta)
        for c_re, c_im in layout.pairs:
            discs.append((gap(p, None, c_re), gap(p, None, c_im), beta))
    return rows, bounds, discs


def _materialize(rows, bounds, discs, gon_gamma=None):
    out_rows = list(rows)
    out_bounds = list(bounds)
    if gon_gamma is None:
        for vre, vim, b in discs:
            out_rows += [vre, -vre, vim, -vim]
            out_bounds += [b, b, b, b]
    else:
        for vre, vim, b in discs:
            for t in range(16):
                th = 2.0 * math.pi * t / 16.0
                out_rows.append(math.cos(th) * vre + math.sin(th) * vim)
                out_bounds.append(gon_gamma * b)
    return np.array(out_rows), np.array(out_bounds)


def _check_states(space: FiniteMetricSpace, algebra: Algebra,
                  *states: FunctionalState) -> None:
    for state in states:
        if state.max_point() >= space.size:
            raise InputError("state references a point outside the space")
        for _, _, phi in state.terms:
            check_state_shapes(phi, algebra)


def _solve_support_lp(space, algebra, mu, nu, spec, gon_gamma=None,
                      dump_csv=None):
    """Maximize (mu - nu)(a) over the Lip ball restricted to support points.

    The restriction is exact for these specs: any feasible assignment on
    the support extends channel by channel (clamped inf-convolution) to a
    feasible element of the full ball with the same pairing values.
    """
    support = set(mu.support()) | set(nu.support())
    if spec.q_kind == "state":
        support |= set(spec.state.support())
    support = sorted(support)
    positions = {s: i for i, s in enumerate(support)}
    d_sub = space.dist[np.ix_(support, support)]

    with_shift = spec.q_kind in ("conv", "conv_K", "quotient_C")
    layout = _SupportLayout(algebra, len(support), with_shift)
    rows, bounds, discs = _ball_rows(layout, d_sub, spec, positions)
    a_mat, b_vec = _materialize(rows, bounds, discs, gon_gamma)
    objective = (_pairing_vector(layout, mu, positions)
                 - _pairing_vector(layout, nu, positions))

    sol = solve(LinearProgram(objective, a_mat, b_vec), dump_csv)
    if sol.status != "optimal":
        raise ArithmeticError(
            "Lip-ball LP reported %s; the ball always contains 0 and the "
            "pairing is bounded on it" % sol.status)
    return max(float(sol.optimum), 0.0), sol.x, layout, support


def _witness_from_solution(space, algebra, support, layout, x) -> MatrixFunction:
    """Extend the LP optimizer from the support to the whole space.

    The optimizer's per-point coordinates are already the function's real
    channels.  Each channel is extended with its own realized Lipschitz
    constant and clamped to its support range, which preserves every box
    constraint the LP certified."""
    chans = x[:layout.n_base].reshape(len(support), -1)
    if len(support) < space.size:
        chans = extend_channels(space, support, chans)
    return from_channels(space, algebra, chans)


def _certify_witness(space, algebra, mu, nu, spec, witness, optimum):
    """Re-verify feasibility and the attained value; every exact result
    must carry its own proof."""
    l_val = lipnorm(witness, spec)
    if l_val > 1.0 + TAU_LP:
        values = tuple(v.scaled(1.0 / l_val) for v in witness.values)
        witness = MatrixFunction(space, algebra, values)
        l_val = lipnorm(witness, spec)
    diff = evaluate(mu, witness) - evaluate(nu, witness)
    if abs(diff.imag) > TAU_LP:
        raise BoundViolation("witness pairing is not real: imag %.3g"
                             % diff.imag)
    if l_val > 1.0 + TAU_LP:
        raise BoundViolation("witness lipnorm %.12g exceeds 1 + %.1g"
                             % (l_val, TAU_LP))
    if abs(abs(diff.real) - optimum) > TAU_LP * max(1.0, optimum):
        raise BoundViolation(
            "witness value %.12g does not certify the optimum %.12g"
            % (abs(diff.real), optimum))
    return witness


def mk_distance(space: FiniteMetricSpace, algebra: Algebra,
                mu: FunctionalState, nu: FunctionalState,
                spec: SeminormSpec, *, refine: bool = False,
                dump_csv: Optional[str] = None) -> MkResult:
    """Distance between two states: sup of |mu(a) - nu(a)| over the Lip ball.

    Maximizing the signed pairing suffices: the ball is symmetric under
    a -> -a, so the signed optimum equals the absolute one.

    Args:
      mu, nu: states over the same space and algebra.
      spec: the seminorm; real_max specs are exact, operator and max specs
        yield intervals.
      refine: for the max norm, tighten the interval with 16-gon inner and
        outer polygon relaxations of each modulus constraint.
      dump_csv: optional path for the underlying solver tableau.

    Returns:
      MkResult; exact results carry a self-verified witness.
    """
    _check_states(space, algebra, mu, nu)
    if spec.q_kind == "state":
        _check_states(space, algebra, spec.state)
    if spec.q_kind == "quotient_CX":
        raise UnsupportedSpec(
            "the pointwise scalar quotient is not an entrywise-box ball; "
            "no exact LP or sandwich interval is available for it")

    if spec.norm_kind == "real_max":
        optimum, x, layout, support = _solve_support_lp(
            space, algebra, mu, nu, spec, dump_csv=dump_csv)
        witness = _witness_from_solution(space, algebra, support, layout, x)
        witness = _certify_witness(space, algebra, mu, nu, spec, witness,
                                   optimum)
        return MkResult("exact", value=optimum, witness=witness)

    rm_spec = SeminormSpec("real_max", spec.q_kind, K=spec.K,
                           state=spec.state)
    v_rm, _, _, _ = _solve_support_lp(space, algebra, mu, nu, rm_spec)
    if spec.norm_kind == "operator":
        return MkResult("interval", lower=v_rm / (_ROOT2 * algebra.max_block),
                        upper=v_rm)
    lower, upper = v_rm / _ROOT2, v_rm
    if refine:
        inner, _, _, _ = _solve_support_lp(space, algebra, mu, nu, rm_spec,
                                           gon_gamma=math.cos(math.pi / 16.0))
        outer, _, _, _ = _solve_support_lp(space, algebra, mu, nu, rm_spec,
                                           gon_gamma=1.0)
        lower, upper = max(lower, inner), min(upper, outer)
    return MkResult("interval", lower=lower, upper=upper)


def diameter_cap(algebra: Algebra, spec: SeminormSpec) -> float:
    """Proven cap on state-pair distances for the entrywise specs.

    Any state pairing of a - c.1 is at most 2 sup-op-norm, the op norm of a
    self-adjoint element is at most sqrt(2) m_A times its entrywise real
    max, and the q term bounds that entrywise distance to a scalar by 1
    (or K/2)."""
    if spec.q_kind in ("conv", "quotient_C", "state"):
        return 2.0 * _ROOT2 * algebra.max_block
    if spec.q_kind == "conv_K":
        return _ROOT2 * algebra.max_block * spec.K
    raise UnsupportedSpec("no distance cap for the pointwise scalar quotient")


def mk_diameter_report(space: FiniteMetricSpace, algebra: Algebra,
                       spec: SeminormSpec, pairs, *,
                       refine: bool = False) -> dict:
    """Max observed distance over sampled state pairs against the cap.

    Interval results contribute their upper endpoint, which is the exact
    value of the entrywise relaxation the cap actually bounds."""
    cap = diameter_cap(algebra, spec)
    values = []
    for phi, psi in pairs:
        result = mk_distance(space, algebra, phi, psi, spec, refine=refine)
        values.append(result.value if result.kind == "exact" else result.upper)
    max_observed = max(values, default=0.0)
    return {"spec": spec.describe(), "samples": len(values),
            "max_observed": max_observed, "cap": cap,
            "violated": max_observed > cap + TAU_LP, "values": values}


_LOWER_CONSTANT = {
    "conv": lambda diam, spec: min(1.0, 1.0 / diam),
    "quotient_C": lambda diam, spec: min(1.0, 1.0 / diam),
    "state": lambda diam, spec: min(1.0, 1.0 / (2.0 * diam)),
    "conv_K": lambda diam, spec: min(1.0, spec.K / diam),
}


def embed_check(space: FiniteMetricSpace, algebra: Algebra, v,
                spec: SeminormSpec) -> dict:
    """Compare distances between point embeddings to the ground metric.

    The tracial embedding of a point reads only real diagonal entries, so
    it contracts every entrywise spec (upper constant 1); the lower
    constant comes from the distance-function witness d(y, .) scaled into
    the ball."""
    if not spec.lp_exact():
        raise UnsupportedSpec("embedding checks need an exact seminorm spec")
    diam = diameter(space)
    lower_c = 1.0 if diam <= 0 else _LOWER_CONSTANT[spec.q_kind](diam, spec)
    rows = []
    max_upper = max_lower = max_defect = 0.0
    for x in range(space.size):
        for y in range(x + 1, space.size):
            mu = tracial_functional(algebra, v, x)
            nu = tracial_functional(algebra, v, y)
            val = mk_distance(space, algebra, mu, nu, spec).value
            d = float(space.dist[x, y])
            max_upper = max(max_upper, val - d)
            max_lower = max(max_lower, lower_c * d - val)
            max_defect = max(max_defect, abs(val - d) / d)
            rows.append({"x": str(space.labels[x]), "y": str(space.labels[y]),
                         "dist": d, "mk": val})
    return {"spec": spec.describe(),
            "upper_constant": 1.0, "lower_constant": lower_c,
            "max_upper_excess": max_upper, "max_lower_shortfall": max_lower,
            "max_relative_defect": max_defect,
            "violated": max_upper > TAU_LP or max_lower > TAU_LP,
            "pairs": rows}
