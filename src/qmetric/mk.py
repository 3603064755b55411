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
point: min-cost flows, all channels of a support in one batched call.  The
state q kind is the beta = 1 case cut by one equality, psi(y) = 0, whose
multiplier is found exactly by a search over one real variable, each step
a set of channel flows.  The potentials are the witness channels (lower
bound) and the flows are a dual certificate (upper bound); both are
re-verified on every call, the witness on a transient function built
from its channels.  The witness returned holds only those channels.

Operator- and max-norm specs get two-sided intervals instead, from the
nested unit balls of the norm sandwich.  Under the max norm each
off-diagonal entry's modulus bounds couple its (Re, Im) channel pair, and
--refine brackets those discs by inner and outer 16-gons.  The same
support pipeline then solves the real diagonals as flows and each entry as
one polygon LP in 2n variables (lpcore.solve), inside the same multiplier
search for the state q kind; both endpoints are certified from both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Optional

import numpy as np

from .algebra import Algebra, check_state_shapes, tracial_state
from .errors import BoundViolation, InputError, UnsupportedSpec
# lipnorm is unused; bench/test_bench.py checks the tracer wraps this alias
from .funcspace import (MatrixFunction, SeminormSpec, _lipnorms, channel_slots,  # noqa: F401
                        from_channels, lipnorm)
from .lpcore import TAU_LP, LinearProgram, min_cost_flows, solve
from .mcshane import extend_channels
from .metric import FiniteMetricSpace, diameter
from .states import FunctionalState, delta_embed, evaluate

_ROOT2 = math.sqrt(2.0)

# A multiplier probe this close (per unit of total supply) to the level
# where the bracketing lines cross has landed there; the rest is rounding.
_LEVEL_EPS = 64 * np.finfo(float).eps
_MAX_PROBES = 100


@dataclass(frozen=True, eq=False, slots=True)
class MkResult:
    """Either an exact value with its optimizing witness, or an interval;
    slotted, since callers may keep many."""

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


def _pairing_vectors(algebra: Algebra, states, positions: dict) -> np.ndarray:
    """Per state, the coefficients of the linear map a -> phi(a) over the
    real channels (funcspace.channel_slots) of a on the support points:
    shape (states, points, channels).

    Valid for self-adjoint a, where the pairing is real: tr(rho b) picks up
    rho_jj per real diagonal entry and 2 Re rho_jk, 2 Im rho_jk per upper
    (Re, Im) pair.  The rows of all terms are built at once, then added at
    their points in term order, so every sum is a per-term loop's.
    """
    terms = [(i, positions[x], w, phi) for i, state in enumerate(states)
             for w, x, phi in state.terms if w != 0.0]
    coefs = np.zeros((len(states), len(positions), sum(m * m for m in algebra.block_sizes)))
    which, at, w, phis = zip(*terms)
    w = np.array(w)
    rows = np.empty((len(terms), coefs.shape[2]))
    for l, (diag, re, im, r, c) in enumerate(channel_slots(algebra)):
        wt = w * np.array([phi.weights[l] for phi in phis])
        rho = np.stack([phi.densities[l] for phi in phis])
        upper = rho[:, r, c]
        rows[:, diag] = wt[:, None] * np.diagonal(rho, axis1=1, axis2=2).real
        rows[:, re] = (wt * 2.0)[:, None] * upper.real
        rows[:, im] = (wt * 2.0)[:, None] * upper.imag
    np.add.at(coefs, (list(which), list(at)), rows)
    return coefs


def _check_states(space: FiniteMetricSpace, algebra: Algebra,
                  *states: FunctionalState) -> None:
    for state in states:
        if state.max_point() >= space.size:
            raise InputError("state references a point outside the space")
        for _, _, phi in state.terms:
            check_state_shapes(phi, algebra)


class _Support(NamedTuple):
    """The Lip ball restricted to the support points, set up once per call:
    the points, the pairing of mu - nu per point and real channel, the
    reference state's (state q kind; else None), the anchor distance beta
    and the flows' arc costs, the anchor last."""

    points: list
    gain: np.ndarray
    psi: Optional[np.ndarray]
    beta: float
    cost: np.ndarray


def _restrict(space, algebra, mu, nu, spec) -> _Support:
    """The ball on the support points of mu, nu and the reference state.

    The restriction is exact: any feasible assignment on the support
    extends channel by channel (clamped inf-convolution) to a feasible
    element of the full ball with the same pairing values.  Per channel,
    arcs between support points cost their distance, arcs to and from the
    anchor cost beta.
    """
    support = set(mu.support()) | set(nu.support())
    if spec.q_kind == "state":
        support |= set(spec.state.support())
    support = sorted(support)
    n = len(support)
    positions = {s: i for i, s in enumerate(support)}
    states = (mu, nu, spec.state) if spec.q_kind == "state" else (mu, nu)
    pairing = _pairing_vectors(algebra, states, positions)
    gain, psi = pairing[0] - pairing[1], (pairing[2] if len(states) == 3 else None)
    beta = spec.K / 2.0 if spec.q_kind == "conv_K" else 1.0
    cost = np.full((n + 1, n + 1), beta)
    cost[:n, :n] = space.dist[np.ix_(support, support)]
    cost[n, n] = 0.0
    return _Support(support, gain, psi, beta, cost)


def _channel_flows(problems) -> list:
    """The listed channels' min-cost flows of each (cost, gain, channels),
    all costs of one shape, in one call, each point supplying its gain:
    per problem the potentials (0 in unlisted channels) and (channel,
    supply, solution).  Several problems solve over a stack of one cost
    per channel, each bit for bit as if alone."""
    supplies = []
    for _, gain, channels in problems:
        n = gain.shape[0]
        rows = np.empty((len(channels), n + 1))
        rows[:, :n] = gain[:, channels].T
        rows[:, n] = -rows[:, :n].sum(axis=1)
        supplies.append(rows)
    counts = [len(rows) for rows in supplies]
    cost = (problems[0][0] if len(problems) == 1 else
            np.repeat(np.stack([cost for cost, _, _ in problems]), counts, axis=0))
    sols = iter(min_cost_flows(cost, np.concatenate(supplies)) if sum(counts) else ())
    out = []
    for (_, gain, channels), rows in zip(problems, supplies):
        chans, flows = np.zeros_like(gain), []
        for ch, supply in zip(channels, rows):
            sol = next(sols)
            chans[:, ch] = sol.potential[:-1]
            flows.append((int(ch), supply, sol))
        out.append((chans, flows))
    return out


# Normals of the regular 16-gon: the modulus bound |w| <= r on a complex
# entry w becomes Re(w) cos + Im(w) sin <= gamma r for each of them.
_GON_ANGLES = 2.0 * math.pi * np.arange(16) / 16.0
_GON_COS, _GON_SIN = np.cos(_GON_ANGLES), np.sin(_GON_ANGLES)


def _polygon(sup: _Support, algebra: Algebra):
    """The off-diagonal entries' LP rows on the support, their bounds for
    16-gons of inradius 1 (a 16-gon of inradius gamma scales them by
    gamma), and each entry's (Re, Im) channel pair.  The rows are the same
    for every entry, and read-only, so that its LinearPrograms share them.
    The variables are the entry's Re at each point, then its Im.  The
    first 16 rows per point ("anchor" rows, point p's at 16 p + t) bound
    its modulus by beta, then 16 rows per point pair bound the difference
    by d."""
    dist = sup.cost[:-1, :-1]
    n = dist.shape[0]
    p, q = np.triu_indices(n, 1)
    rows = np.zeros((16 * (n + p.size), 2 * n))
    t, own = np.arange(16), np.arange(n)[:, None]
    anchor = rows[:16 * n].reshape(n, 16, 2 * n)
    anchor[own, t, own] = _GON_COS
    anchor[own, t, n + own] = _GON_SIN
    pair, k = rows[16 * n:].reshape(p.size, 16, 2 * n), np.arange(p.size)[:, None]
    for cols, sign in ((p, 1.0), (q, -1.0)):
        pair[k, t, cols[:, None]] = sign * _GON_COS
        pair[k, t, n + cols[:, None]] = sign * _GON_SIN
    bounds = np.concatenate([np.full(16 * n, sup.beta), np.repeat(dist[p, q], 16)])
    entries = np.concatenate([np.stack(s[1:3], axis=1) for s in channel_slots(algebra)])
    rows.setflags(write=False)
    return rows, bounds, entries


def _gon_start(objective):
    """Per point, the two adjacent anchor rows whose normals' cone holds its
    (Re, Im) gain, so that their weights are >= 0; the flows' counterpart
    is routing every supply through the anchor."""
    n = objective.size // 2
    t = np.floor(np.arctan2(objective[n:], objective[:n]) * (8.0 / math.pi)).astype(int)
    first = 16 * np.arange(n)
    return np.concatenate([first + t % 16, first + (t + 1) % 16])


def _entry_lps(polygon, objective, z):
    """Solve each off-diagonal entry's polygon LP into z (none where its
    objective is 0, which z = 0 maximizes); returns the
    (LinearProgram, LpSolution) pairs."""
    rows, bounds, entries = polygon
    lps, n = [], objective.shape[0]
    for re, im in entries:
        c = np.concatenate([objective[:, re], objective[:, im]])
        if c.any():
            lp = LinearProgram(c, rows, bounds)
            sol = solve(lp, _gon_start(c))
            z[:, re], z[:, im] = sol.x[:n], sol.x[n:]
            lps.append((lp, sol))
    return lps


def _maximize(cost, channels, polygon, objective):
    """Maximize objective.z over the ball on the support: the listed
    channels as min-cost flows, except that under a polygon (rows, bounds,
    entries) each off-diagonal entry is one polygon LP instead.  Returns z,
    the flows and the (LinearProgram, LpSolution) pairs."""
    if polygon is None:
        return (*_channel_flows([(cost, objective, channels)])[0], [])
    z, flows = _channel_flows([(cost, objective, np.setdiff1d(channels, polygon[2]))])[0]
    return z, flows, _entry_lps(polygon, objective, z)


class _Probe(NamedTuple):
    z: np.ndarray
    flows: list
    polygons: list
    gain_z: float
    psi_z: float


def _state_optimum(gain, psi, argmax):
    """Maximize gain.z over the beta = 1 channel balls subject to psi.z = 0.

    argmax(objective) maximizes objective.z over the balls (_maximize).
    The dual F(lam) = max over the balls of (gain - lam psi).z is convex and
    piecewise linear with min F the constrained optimum; a probe's
    maximizer z gives the supporting line lam' -> gain.z - lam' psi.z.
    Doubling out from lam = 0 brackets the minimum by probes a, b with
    psi.z_a >= 0 >= psi.z_b.  Each next probe goes where their lines cross
    and replaces one of them, until F there is the lines' level: then z_a
    and z_b both maximize at that lam, and so does their mix with psi.z = 0,
    the constrained optimum.

    Returns (lam, z, flows, polygons), the last two certifying F(lam) = gain.z.
    """
    def probe(lam):
        z, flows, lps = argmax(gain - lam * psi)
        return _Probe(z, flows, lps, float((gain * z).sum()), float((psi * z).sum()))

    a = probe(0.0)
    if a.psi_z == 0.0:
        return 0.0, a.z, a.flows, a.polygons
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
            return lam, c.z, c.flows, c.polygons
        scale = sum(float(np.abs(supply).sum()) for _, supply, _ in c.flows)
        scale += sum(float(np.abs(lp.objective).sum()) for lp, _ in c.polygons)
        if c.gain_z - lam * c.psi_z <= level + _LEVEL_EPS * scale:
            theta = -b.psi_z / (a.psi_z - b.psi_z)
            return lam, theta * a.z + (1.0 - theta) * b.z, c.flows, c.polygons
        if c.psi_z > 0.0:
            a = c
        else:
            b = c
    raise ArithmeticError("multiplier search did not close; input likely ill-posed")


def _support_optimum(sup: _Support, polygon=None, unbounded=None):
    """Maximize (mu - nu)(a) over the ball on the support, each off-diagonal
    entry bounded by 16-gons if a polygon (rows, bounds, entries) is given,
    and certify the value from above.

    For the state q kind the multiplier search couples the channels.  For
    the others each channel is its own problem, so unbounded, the (z,
    flows) of the same ball without the polygon, lends its flows in the
    channels the polygon leaves to flows; only the entry LPs are solved.
    Returns (value, z, flows, lam), lam the state multiplier or None.
    """
    lam = None
    if unbounded is not None:
        taken = set(polygon[2].ravel().tolist())
        z = unbounded[0].copy()
        flows = [f for f in unbounded[1] if f[0] not in taken]
        lps = _entry_lps(polygon, sup.gain, z)
    elif sup.psi is None:
        z, flows, lps = _maximize(sup.cost, _live(sup), polygon, sup.gain)
    else:
        live = np.flatnonzero(sup.gain.any(axis=0) | sup.psi.any(axis=0))
        lam, z, flows, lps = _state_optimum(sup.gain, sup.psi,
                                            partial(_maximize, sup.cost, live, polygon))
    return _certified_value(sup, z, flows, lps), z, flows, lam


def _live(sup: _Support) -> np.ndarray:
    """The channels that the pairing reads; the others stay 0."""
    return np.flatnonzero(sup.gain.any(axis=0))


def _certified_value(sup: _Support, z, flows, lps=()) -> float:
    """The pairing of z, certified from above by the flows and polygons."""
    value = max(float((sup.gain * z).sum()), 0.0)
    _certify_flows(sup.cost, sup.beta, flows, value, *lps)
    return value


def _support_optima(sups) -> list:
    """(value, z) of _support_optimum for each support, bit for bit.  The
    state q kind runs each support's own multiplier search.  Otherwise the
    supports are grouped by size, every live channel of a group is solved
    in one min_cost_flows call, and each support's flows are certified on
    their own."""
    if sups and sups[0].psi is not None:
        return [_support_optimum(sup)[:2] for sup in sups]
    by_size = {}
    for i, sup in enumerate(sups):
        by_size.setdefault(len(sup.points), []).append(i)
    optima = [None] * len(sups)
    for group in by_size.values():
        solved = _channel_flows([(sups[i].cost, sups[i].gain, _live(sups[i])) for i in group])
        for i, (z, flows) in zip(group, solved):
            optima[i] = _certified_value(sups[i], z, flows), z
    return optima


def _certify_flows(cost, beta, flows, value, *polygons) -> None:
    """Re-verify that no element of the ball pairs above the value.

    For every feasible y (|y_p - y_q| <= d_pq, |y_p| <= beta, 0 at the
    anchor) and every flow f >= 0 whose net outflow misses the supplies by
    r, c.y = sum_ij f_ij (y_i - y_j) + r.y <= sum_ij f_ij cost_ij
    + beta |r|_1.  Nonnegative flows that conserve every supply and cost
    the value therefore prove it optimal.  Each polygon (LinearProgram,
    LpSolution) adds its entry's bound b.f, whose weights solve certified.
    Slack is relative to beta sum |c|, which bounds the value.
    """
    mass = sum(float(np.abs(s[:-1]).sum()) for _, s, _ in flows)
    mass += sum(float(np.abs(lp.objective).sum()) for lp, _ in polygons)
    slack = TAU_LP * beta * mass
    upper = leak = 0.0
    for ch, supply, sol in flows:
        if (sol.flow < 0).any():
            raise BoundViolation("channel %d carries a negative flow" % ch)
        net = sol.flow.sum(axis=1) - sol.flow.sum(axis=0)
        leak += beta * float(np.abs(net - supply).sum())
        upper += float((sol.flow * cost).sum())
    for lp, sol in polygons:
        upper += float(lp.bounds @ sol.weights)
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

    names = [*labels, "anchor"]
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


def _certify_witnesses(space, algebra, spec, solved) -> list:
    """Re-verify each (mu, nu, support, support channels, optimum): every
    exact result must carry its own proof.  The channels extend over the
    space, each with its own realized Lipschitz constant clamped to its
    support range, so every certified box constraint holds.  One batched
    lipnorm reads transient functions made from them; a witness that
    rounding left just outside the ball is rescaled and checked alone.
    Returns one (MkResult, certified lipnorm) per item, in order; each
    witness holds its checked channels and has not built its stacks."""
    probes = [from_channels(space, algebra, z if len(sup.points) == space.size
                            else extend_channels(space, sup.points, z))
              for _, _, sup, z, _ in solved]
    certified = []
    for (mu, nu, *_, optimum), probe, l_val in zip(solved, probes, _lipnorms(probes, spec)):
        if l_val > 1.0 + TAU_LP:
            probe = from_channels(space, algebra, (1.0 / l_val) * probe.channels)
            l_val = _lipnorms((probe,), spec)[0]
        diff = evaluate(mu, probe) - evaluate(nu, probe)
        if abs(diff.imag) > TAU_LP * max(1.0, optimum):
            raise BoundViolation("witness pairing is not real: imag %.3g"
                                 % diff.imag)
        if l_val > 1.0 + TAU_LP:
            raise BoundViolation("witness lipnorm %.12g exceeds 1 + %.1g"
                                 % (l_val, TAU_LP))
        if abs(abs(diff.real) - optimum) > TAU_LP * max(1.0, optimum):
            raise BoundViolation(
                "witness value %.12g does not certify the optimum %.12g"
                % (abs(diff.real), optimum))
        witness = from_channels(space, algebra, probe.channels)
        certified.append((MkResult("exact", value=optimum, witness=witness), l_val))
    return certified


def _solve_pairs(space, algebra, pairs, spec) -> list:
    """The (mu, nu, support, support channels, optimum) of each checked
    pair, bit for bit mk_distance's: restricted one by one, then solved in
    one flow call per support size (_support_optima)."""
    sups = [_restrict(space, algebra, mu, nu, spec) for mu, nu in pairs]
    return [(mu, nu, sup, z, value) for (mu, nu), sup, (value, z)
            in zip(pairs, sups, _support_optima(sups))]


def _exact_distances(space, algebra, pairs, spec) -> list:
    """mk_distance of each checked (mu, nu) pair under a real_max spec, bit
    for bit: solved by _solve_pairs, certified in one batch.  Returns one
    (MkResult, certified lipnorm of its witness) per pair."""
    solved = _solve_pairs(space, algebra, pairs, spec)
    return _certify_witnesses(space, algebra, spec, solved) if solved else []


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
      dump_csv: optional CSV path for the certified flows of the real_max
        ball: per-channel supplies, flows and potentials (after the
        multiplier line for the state q kind).

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

    # Every norm kind starts from the real_max ball: the exact value, or
    # the upper end of the sandwich interval.
    sup = _restrict(space, algebra, mu, nu, spec)
    value, z, flows, lam = _support_optimum(sup)
    if dump_csv:
        _dump_flows(dump_csv, [space.labels[s] for s in sup.points], flows, lam)
    if spec.norm_kind == "real_max":
        return _certify_witnesses(space, algebra, spec, [(mu, nu, sup, z, value)])[0][0]

    if spec.norm_kind == "operator":
        return MkResult("interval", lower=value / (_ROOT2 * algebra.max_block),
                        upper=value)
    lower, upper = value / _ROOT2, value
    if refine:
        rows, bounds, entries = _polygon(sup, algebra)
        unbounded = (z, flows) if sup.psi is None else None
        inner, outer = (_support_optimum(sup, (rows, g * bounds, entries), unbounded)[0]
                        for g in (math.cos(math.pi / 16.0), 1.0))
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
    the ball.

    Each value is mk_distance's, bit for bit.  The pairs are solved one row
    at a time, point x against every y > x: under the conv, conv_K and
    quotient_C kinds every support of a row has two points, so the row is
    one min_cost_flows call (_solve_pairs); the state kind runs each
    pair's multiplier search.  Each witness is then extended and certified
    on its own.  Memory is O(n) two-point supports and their flows, plus
    one witness of n sum m^2 floats.  A state spec's reference state is
    checked once, up front, also on a one-point space."""
    if not spec.lp_exact():
        raise UnsupportedSpec("embedding checks need an exact seminorm spec")
    if spec.q_kind == "state":
        _check_states(space, algebra, spec.state)
    diam = diameter(space)
    lower_c = 1.0 if diam <= 0 else _LOWER_CONSTANT[spec.q_kind](diam, spec)
    phi = tracial_state(algebra, v)
    # valid by construction: one state of the algebra, at points of the space
    points = [delta_embed(phi, x) for x in range(space.size)]
    rows = []
    max_upper = max_lower = max_defect = 0.0
    for x in range(space.size - 1):
        row = [(points[x], points[y]) for y in range(x + 1, space.size)]
        for y, item in enumerate(_solve_pairs(space, algebra, row, spec), x + 1):
            val = _certify_witnesses(space, algebra, spec, [item])[0][0].value
            d = float(space.dist[x, y])
            max_upper = max(max_upper, val - d)
            max_lower = max(max_lower, lower_c * d - val)
            max_defect = max(max_defect, abs(val - d) / d)
            rows.append({"x": space.labels[x], "y": space.labels[y],
                         "dist": d, "mk": val})
    return {"spec": spec.describe(),
            "upper_constant": 1.0, "lower_constant": lower_c,
            "max_upper_excess": max_upper, "max_lower_shortfall": max_lower,
            "max_relative_defect": max_defect,
            "violated": max_upper > TAU_LP or max_lower > TAU_LP,
            "pairs": rows}
