"""Monge-Kantorovich distances between functional states.

For entrywise-box seminorm specs the Lip-ball, sampled on the support
points of the two states, is a polytope, so the defining sup is a finite
linear program; the optimizer then extends channel by channel to a
certified witness on the whole space.

Under the conv, conv_K and quotient_C q kinds the pairing kills constants,
(mu - nu)(1) = 0, so the recentring scalar drops out and the LP splits into
one problem per real channel: maximize c.y subject to |y_p - y_q| <= d_pq
and |y_p| <= beta.  That is the dual of a transport problem on the support
plus an anchor node at distance beta from every point, solved as a
min-cost flow.  Its potentials are the witness channels (lower bound) and
its flow is a dual certificate (upper bound); both are re-verified on every
call.  The state q kind couples the channels through one equality and
keeps the dense simplex.

Operator- and max-norm specs get two-sided intervals instead, from the
nested unit balls of the norm sandwich, optionally tightened by 16-gon
inner/outer approximations of each complex-modulus constraint (dense LPs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import Algebra, check_state_shapes, tracial_state
from .errors import BoundViolation, InputError, UnsupportedSpec
from .funcspace import (MatrixFunction, SeminormSpec, channel_slots, from_channels,
                        lipnorm)
from .lpcore import TAU_LP, LinearProgram, min_cost_flow, solve
from .mcshane import extend_channels
from .metric import FiniteMetricSpace, diameter
from .states import FunctionalState, delta_embed, evaluate

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


def _support_points(mu, nu, spec) -> list:
    support = set(mu.support()) | set(nu.support())
    if spec.q_kind == "state":
        support |= set(spec.state.support())
    return sorted(support)


def _solve_support_lp(space, algebra, mu, nu, spec, gon_gamma=None,
                      dump_csv=None):
    """Maximize (mu - nu)(a) over the Lip ball restricted to support points.

    The restriction is exact for these specs: any feasible assignment on
    the support extends channel by channel (clamped inf-convolution) to a
    feasible element of the full ball with the same pairing values.  One
    dense LP over every channel; it serves the state q kind, whose channels
    couple, and the 16-gon refinements.  Returns (value, per-point channels
    on the support, support).
    """
    support = _support_points(mu, nu, spec)
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
    chans = sol.x[:layout.n_base].reshape(len(support), -1)
    return max(float(sol.optimum), 0.0), chans, support


def _solve_support_flows(space, algebra, mu, nu, spec, dump_csv=None):
    """The same optimum as _solve_support_lp for the conv, conv_K and
    quotient_C q kinds, as one min-cost flow per real channel.

    Arcs between support points cost their distance, arcs to and from the
    anchor (the last node) cost beta, and each point supplies its pairing
    coefficient in the channel.  Channels the pairing does not read stay 0.
    """
    support = _support_points(mu, nu, spec)
    n = len(support)
    positions = {s: i for i, s in enumerate(support)}
    layout = _SupportLayout(algebra, n, with_shift=False)
    gain = (_pairing_vector(layout, mu, positions)
            - _pairing_vector(layout, nu, positions)).reshape(n, -1)
    beta = spec.K / 2.0 if spec.q_kind == "conv_K" else 1.0
    cost = np.full((n + 1, n + 1), beta)
    cost[:n, :n] = space.dist[np.ix_(support, support)]
    cost[n, n] = 0.0

    chans = np.zeros_like(gain)
    flows = []
    for ch in np.flatnonzero(gain.any(axis=0)):
        supply = np.append(gain[:, ch], -gain[:, ch].sum())
        sol = min_cost_flow(cost, supply)
        chans[:, ch] = sol.potential[:n]
        flows.append((int(ch), supply, sol))
    value = max(float((gain * chans).sum()), 0.0)
    if dump_csv:
        _dump_flows(dump_csv, [space.labels[s] for s in support], flows)
    _certify_flows(cost, beta, flows, value)
    return value, chans, support


def _solve_support(space, algebra, mu, nu, spec, dump_csv=None):
    """The exact support optimum: per-channel flows unless the state q kind
    couples the channels."""
    solver = _solve_support_lp if spec.q_kind == "state" else _solve_support_flows
    return solver(space, algebra, mu, nu, spec, dump_csv=dump_csv)


def _certify_flows(cost, beta, flows, value) -> None:
    """Re-verify that no element of the ball pairs above the value.

    For every feasible y (|y_p - y_q| <= d_pq, |y_p| <= beta, 0 at the
    anchor) and every flow f >= 0 whose net outflow misses the supplies by
    r, c.y = sum_ij f_ij (y_i - y_j) + r.y <= sum_ij f_ij cost_ij
    + beta |r|_1.  Nonnegative flows that conserve every supply and cost
    the value therefore prove it optimal.  Slack is relative to
    beta sum |c|, which bounds the value.
    """
    slack = TAU_LP * beta * sum(float(np.abs(s[:-1]).sum()) for _, s, _ in flows)
    upper = leak = 0.0
    for ch, supply, sol in flows:
        if (sol.flow < 0).any():
            raise BoundViolation("channel %d carries a negative flow" % ch)
        net = sol.flow.sum(axis=1) - sol.flow.sum(axis=0)
        leak += beta * float(np.abs(net - supply).sum())
        upper += float((sol.flow * cost).sum())
    if leak > slack:
        raise BoundViolation("flows miss the supplies by %.3g (slack %.3g)"
                             % (leak, slack))
    if abs(upper - value) > slack:
        raise BoundViolation("flow cost %.12g does not certify the optimum %.12g"
                             % (upper, value))


def _dump_flows(path, labels, flows) -> None:
    """One CSV section per solved channel: each node's supply, potential
    and outgoing flows, the anchor last."""
    import csv  # only the dump needs it; kept off the import path

    names = [str(lab) for lab in labels] + ["anchor"]
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        if not flows:
            fh.write("# no channel carries a pairing\n")
        for ch, supply, sol in flows:
            fh.write("# channel %d\n" % ch)
            out.writerow(["node", "supply", "potential"]
                         + ["flow to %s" % name for name in names])
            for name, s, y, row in zip(names, supply, sol.potential, sol.flow):
                out.writerow([name] + ["%.12g" % v for v in (s, y, *row)])


def _witness_from_channels(space, algebra, support, chans) -> MatrixFunction:
    """Extend the optimizer's channels from the support to the whole space.

    Each channel is extended with its own realized Lipschitz constant and
    clamped to its support range, which preserves every box constraint the
    solver certified."""
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
      dump_csv: optional CSV path for the exact solve: per-channel
        supplies, flows and potentials, or the simplex tableaus for the
        state q kind.

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
        optimum, chans, support = _solve_support(space, algebra, mu, nu, spec,
                                                 dump_csv=dump_csv)
        witness = _witness_from_channels(space, algebra, support, chans)
        witness = _certify_witness(space, algebra, mu, nu, spec, witness,
                                   optimum)
        return MkResult("exact", value=optimum, witness=witness)

    rm_spec = SeminormSpec("real_max", spec.q_kind, K=spec.K,
                           state=spec.state)
    v_rm = _solve_support(space, algebra, mu, nu, rm_spec)[0]
    if spec.norm_kind == "operator":
        return MkResult("interval", lower=v_rm / (_ROOT2 * algebra.max_block),
                        upper=v_rm)
    lower, upper = v_rm / _ROOT2, v_rm
    if refine:
        inner = _solve_support_lp(space, algebra, mu, nu, rm_spec,
                                  gon_gamma=math.cos(math.pi / 16.0))[0]
        outer = _solve_support_lp(space, algebra, mu, nu, rm_spec,
                                  gon_gamma=1.0)[0]
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
    phi = tracial_state(algebra, v)
    points = [delta_embed(phi, x) for x in range(space.size)]
    rows = []
    max_upper = max_lower = max_defect = 0.0
    for x in range(space.size):
        for y in range(x + 1, space.size):
            val = mk_distance(space, algebra, points[x], points[y], spec).value
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
