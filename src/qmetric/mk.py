"""Monge-Kantorovich distances between functional states.

For entrywise-box seminorm specs the Lip-ball, sampled on the support
points of the two states, is a polytope, so the defining sup is a finite
linear program; the optimizer then extends channel by channel to a
certified witness on the whole space.

The pairing kills constants, (mu - nu)(1) = 0, so under the conv, conv_K
and quotient_C q kinds the recentring scalar drops out and the LP splits
into one problem per real channel: maximize c.y subject to
|y_p - y_q| <= d_pq and |y_p| <= beta.  That is the dual of a transport
problem on the support plus an anchor node at distance beta from every
point, solved as a min-cost flow.  The state q kind is the beta = 1 case
cut by one equality, psi(y) = 0, whose multiplier is found exactly by a
search over one real variable, each step a set of channel flows.  The
potentials are the witness channels (lower bound) and the flows are a dual
certificate (upper bound); both are re-verified on every call.

Operator- and max-norm specs get two-sided intervals instead, from the
nested unit balls of the norm sandwich, optionally tightened by 16-gon
inner/outer approximations of each complex-modulus constraint (dense LPs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

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

# A multiplier probe this close (per unit of total supply) to the level
# where the bracketing lines cross has landed there; the rest is rounding.
_LEVEL_EPS = 64 * np.finfo(float).eps
_MAX_PROBES = 100


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
    """Real coordinates of a self-adjoint element sampled on support points:
    per point, the real channels of funcspace.channel_slots."""

    def __init__(self, algebra: Algebra, n_points: int):
        self.n_points = n_points
        self.slots = channel_slots(algebra)
        self.diag, re, im = (np.concatenate(part) for part in zip(*self.slots))
        self.pairs = list(zip(re, im))
        self.per_point = sum(m * m for m in algebra.block_sizes)
        self.n_vars = self.per_point * n_points


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


def _polygon_rows(layout: _SupportLayout, d_sub: np.ndarray, spec: SeminormSpec,
                  positions: dict, gon_gamma: float):
    """Rows and bounds (all >= 0) of a 16-gon approximation of the max-norm
    Lip ball: each bound |re + i im| <= r on an off-diagonal entry becomes a
    regular 16-gon of inradius gon_gamma * r.  The q term recentres the
    diagonal by the state's pairing (state q kind) or not at all, since
    (mu - nu)(1) = 0 makes the recentring scalar free."""
    rows: list[np.ndarray] = []
    bounds: list[float] = []
    nv, pp = layout.n_vars, layout.per_point

    def box(vec, b):
        rows.append(vec)
        bounds.append(b)
        rows.append(-vec)
        bounds.append(b)

    def disc(vre, vim, b):
        for t in range(16):
            th = 2.0 * math.pi * t / 16.0
            rows.append(math.cos(th) * vre + math.sin(th) * vim)
            bounds.append(gon_gamma * b)

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
                disc(gap(p, q, c_re), gap(p, q, c_im), d)

    beta = spec.K / 2.0 if spec.q_kind == "conv_K" else 1.0
    if spec.q_kind == "state":
        shift = _pairing_vector(layout, spec.state, positions)
    else:
        shift = np.zeros(nv)
    for p in range(layout.n_points):
        for c in layout.diag:
            vec = -shift.copy()
            vec[p * pp + c] += 1.0
            box(vec, beta)
        for c_re, c_im in layout.pairs:
            disc(gap(p, None, c_re), gap(p, None, c_im), beta)
    return np.array(rows), np.array(bounds)


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


def _solve_polygon_lp(space, algebra, mu, nu, spec, gon_gamma):
    """Maximize (mu - nu)(a) over a 16-gon approximation of the max-norm
    Lip ball, restricted to the support points; one dense LP, since the
    polygons couple each entry's (Re, Im) channel pair."""
    support = _support_points(mu, nu, spec)
    positions = {s: i for i, s in enumerate(support)}
    d_sub = space.dist[np.ix_(support, support)]
    layout = _SupportLayout(algebra, len(support))
    a_mat, b_vec = _polygon_rows(layout, d_sub, spec, positions, gon_gamma)
    objective = (_pairing_vector(layout, mu, positions)
                 - _pairing_vector(layout, nu, positions))
    sol = solve(LinearProgram(objective, a_mat, b_vec))
    if sol.status != "optimal":
        raise ArithmeticError(
            "Lip-ball LP reported %s; the ball is bounded" % sol.status)
    return max(float(sol.optimum), 0.0)


def _channel_flows(cost, gain, channels):
    """One min-cost flow per listed channel, each point supplying its gain:
    the potentials (0 in unlisted channels) and (channel, supply, solution)."""
    n = gain.shape[0]
    chans = np.zeros_like(gain)
    flows = []
    for ch in channels:
        supply = np.append(gain[:, ch], -gain[:, ch].sum())
        sol = min_cost_flow(cost, supply)
        chans[:, ch] = sol.potential[:n]
        flows.append((int(ch), supply, sol))
    return chans, flows


class _Probe(NamedTuple):
    z: np.ndarray
    flows: list
    gain_z: float
    psi_z: float


def _state_optimum(cost, gain, psi):
    """Maximize gain.z over the beta = 1 channel balls subject to psi.z = 0.

    The dual F(lam) = max over the balls of (gain - lam psi).z, one set of
    channel flows per lam, is convex and piecewise linear with min F the
    constrained optimum; a probe's maximizer z gives the supporting line
    lam' -> gain.z - lam' psi.z.  Doubling out from lam = 0 brackets the
    minimum by probes a, b with psi.z_a >= 0 >= psi.z_b.  Each next probe
    goes where their lines cross and replaces one of them, until F there is
    the lines' level: then z_a and z_b both maximize at that lam, and so
    does their mix with psi.z = 0, the constrained optimum.

    Returns (lam, z, flows), the flows certifying F(lam) = gain.z.
    """
    channels = np.flatnonzero(gain.any(axis=0) | psi.any(axis=0))

    def probe(lam):
        z, flows = _channel_flows(cost, gain - lam * psi, channels)
        return _Probe(z, flows, float((gain * z).sum()), float((psi * z).sum()))

    a = probe(0.0)
    if a.psi_z == 0.0:
        return 0.0, a.z, a.flows
    # Once |lam| >= sum |gain|, the scalar -sign(lam) 1 scores |lam| and
    # beats every z with psi.z of the sign of lam (states have mass 1,
    # (mu - nu)(1) = 0), so the first step brackets in exact arithmetic.
    side, step = math.copysign(1.0, a.psi_z), float(np.abs(gain).sum())
    b = probe(side * step)
    while side * b.psi_z > 0.0:
        a, step = b, 2.0 * step
        b = probe(side * step)
    if side < 0.0:
        a, b = b, a
    for _ in range(_MAX_PROBES):
        lam = (a.gain_z - b.gain_z) / (a.psi_z - b.psi_z)
        level = a.gain_z - lam * a.psi_z
        c = probe(lam)
        if c.psi_z == 0.0:
            return lam, c.z, c.flows
        scale = sum(float(np.abs(supply).sum()) for _, supply, _ in c.flows)
        if c.gain_z - lam * c.psi_z <= level + _LEVEL_EPS * scale:
            theta = -b.psi_z / (a.psi_z - b.psi_z)
            return lam, theta * a.z + (1.0 - theta) * b.z, c.flows
        if c.psi_z > 0.0:
            a = c
        else:
            b = c
    raise ArithmeticError("multiplier search did not close; input likely ill-posed")


def _solve_support_flows(space, algebra, mu, nu, spec, dump_csv=None):
    """Maximize (mu - nu)(a) over the Lip ball restricted to support points.

    The restriction is exact: any feasible assignment on the support
    extends channel by channel (clamped inf-convolution) to a feasible
    element of the full ball with the same pairing values.  Per channel,
    arcs between support points cost their distance, arcs to and from the
    anchor (the last node) cost beta.  For the state q kind, a - psi(a) 1
    pairs like a and has psi = 0, which couples the channels.  Returns
    (value, per-point channels on the support, support).
    """
    support = _support_points(mu, nu, spec)
    n = len(support)
    positions = {s: i for i, s in enumerate(support)}
    layout = _SupportLayout(algebra, n)
    gain = (_pairing_vector(layout, mu, positions)
            - _pairing_vector(layout, nu, positions)).reshape(n, -1)
    beta = spec.K / 2.0 if spec.q_kind == "conv_K" else 1.0
    cost = np.full((n + 1, n + 1), beta)
    cost[:n, :n] = space.dist[np.ix_(support, support)]
    cost[n, n] = 0.0

    if spec.q_kind == "state":
        psi = _pairing_vector(layout, spec.state, positions).reshape(n, -1)
        lam, chans, flows = _state_optimum(cost, gain, psi)
    else:
        lam = None
        chans, flows = _channel_flows(cost, gain, np.flatnonzero(gain.any(axis=0)))
    value = max(float((gain * chans).sum()), 0.0)
    if dump_csv:
        _dump_flows(dump_csv, [space.labels[s] for s in support], flows, lam)
    _certify_flows(cost, beta, flows, value)
    return value, chans, support


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


def _dump_flows(path, labels, flows, multiplier=None) -> None:
    """One CSV section per solved channel: each node's supply, potential
    and outgoing flows, the anchor last.  For the state q kind a first
    line gives the multiplier lam, and the supplies are gain - lam psi."""
    import csv  # only the dump needs it; kept off the import path

    names = [str(lab) for lab in labels] + ["anchor"]
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        if multiplier is not None:
            fh.write("# multiplier %.12g\n" % multiplier)
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
        supplies, flows and potentials (after the multiplier line for the
        state q kind).

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
        optimum, chans, support = _solve_support_flows(space, algebra, mu, nu, spec,
                                                       dump_csv=dump_csv)
        witness = _witness_from_channels(space, algebra, support, chans)
        witness = _certify_witness(space, algebra, mu, nu, spec, witness,
                                   optimum)
        return MkResult("exact", value=optimum, witness=witness)

    rm_spec = SeminormSpec("real_max", spec.q_kind, K=spec.K,
                           state=spec.state)
    v_rm = _solve_support_flows(space, algebra, mu, nu, rm_spec)[0]
    if spec.norm_kind == "operator":
        return MkResult("interval", lower=v_rm / (_ROOT2 * algebra.max_block),
                        upper=v_rm)
    lower, upper = v_rm / _ROOT2, v_rm
    if refine:
        inner = _solve_polygon_lp(space, algebra, mu, nu, rm_spec,
                                  gon_gamma=math.cos(math.pi / 16.0))
        outer = _solve_polygon_lp(space, algebra, mu, nu, rm_spec, gon_gamma=1.0)
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
