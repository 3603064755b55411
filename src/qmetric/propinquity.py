"""Approximation pipeline for pairs of metric spaces sharing one algebra.

Joins the two spaces with an offset cross metric, collects the nearly
matched pairs, transports Lip-ball elements across by channelwise
Lipschitz extension, and emits a closed-form distance bound together with
per-sample certificates that re-verify every claimed inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, _real_max_norms, stack_norms
from .errors import BoundViolation, InputError
# lipnorm is unused here, but bench/test_bench.py checks that the tracer
# wraps this module's alias of it
from .funcspace import (MatrixFunction, _lipnorms, conv_spec, from_channels,  # noqa: F401
                        lipnorm, optimal_conv_shift, to_channels)
from .generate import random_product_state
from .lpcore import TAU_LP
from .mcshane import extend_channels
from .metric import FiniteMetricSpace, JoinedSpace, epsilon_net, hausdorff
from .mk import mk_distance

_ROOT2 = math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class Bridge:
    """A joined metric with its matched-pair set, ready to transport elements.

    delta_xy is the Hausdorff distance of the supplied embedding (raw cross),
    threshold the pair-admission cut on the offset joined metric.
    """

    x: FiniteMetricSpace
    y: FiniteMetricSpace
    joined: JoinedSpace
    joined_metric: FiniteMetricSpace
    algebra: Algebra
    epsilon: float
    delta_xy: float
    threshold: float
    w_set: tuple


def build_bridge(x: FiniteMetricSpace, y: FiniteMetricSpace, cross,
                 epsilon: float, algebra: Algebra) -> Bridge:
    """Join two spaces with the offset cross metric and admit close pairs.

    The cross distances are lifted by epsilon / (8 sqrt(2) m_A), a quarter
    of the admission slack, so the joined matrix can stay a metric while
    every point still finds a partner within threshold."""
    epsilon = float(epsilon)
    if epsilon <= 0:
        raise InputError("epsilon must be positive")
    cross = np.asarray(cross, dtype=float)
    if cross.shape != (x.size, y.size):
        raise InputError("cross matrix must be %dx%d, got %r"
                         % (x.size, y.size, cross.shape))
    if not np.isfinite(cross).all() or (cross < 0).any():
        raise InputError("cross distances must be finite and nonnegative")

    offset = epsilon / (8.0 * _ROOT2 * algebra.max_block)
    joined = JoinedSpace(x, y, cross + offset)
    labels = (tuple("X|%s" % lab for lab in x.labels)
              + tuple("Y|%s" % lab for lab in y.labels))
    joined_metric = joined.metric_space(labels)

    delta_xy = max(float(cross.min(axis=1).max()),
                   float(cross.min(axis=0).max()))
    threshold = delta_xy + epsilon / (2.0 * _ROOT2 * algebra.max_block)
    pairs = np.argwhere(joined.cross <= threshold)
    w_set = tuple((int(i), int(j)) for i, j in pairs)
    if len({i for i, _ in w_set}) != x.size or len({j for _, j in w_set}) != y.size:
        raise ArithmeticError(
            "matched-pair projections are not surjective; the offset is a "
            "quarter of the admission slack, so this cannot happen")
    return Bridge(x, y, joined, joined_metric, algebra, epsilon,
                  delta_xy, threshold, w_set)


def match_element(bridge: Bridge, a_fn: MatrixFunction):
    """Transport a Lip-ball element across the bridge, with certificate.

    Extends every real entry channel from the X side over the joined
    space (clamped, own realized constant) and restricts to Y.  Clamping
    keeps each channel inside its source range, so the recentring scalar
    that certified the source also certifies the image; the matched-pair
    defect is bounded by the channel constants times the pair distances.
    The image is made from channels, so it is Hermitian by construction and
    its norms are not re-checked for self-adjointness; a source not made
    from channels is checked.

    Returns:
      (matched function on Y, certificate dict).  The certificate entries
      are re-verified from scratch; failure raises BoundViolation.
    """
    return _match_elements(bridge, (a_fn,))[0]


def _match_elements(bridge: Bridge, a_fns) -> list:
    """match_element of each element, bit for bit, in one batch: one
    batched lipnorm for the sources, one extension of all their channel
    columns, one batched lipnorm for the images.  Returns a list of
    (matched function, certificate) pairs."""
    if not a_fns:
        return []
    spec = conv_spec()
    for a_fn in a_fns:
        if a_fn.space.labels != bridge.x.labels:
            raise InputError("element must live on the bridge's X side")
        if a_fn.algebra.block_sizes != bridge.algebra.block_sizes:
            raise InputError("element algebra does not match the bridge algebra")
    l_as = _lipnorms(a_fns, spec)
    for l_a in l_as:
        if l_a > 1.0 + TAU_LP:
            raise InputError("element lipnorm %.12g exceeds the unit ball slack"
                             % l_a)

    algebra = bridge.algebra
    nx = bridge.x.size
    chans = extend_channels(bridge.joined_metric, range(nx),
                            np.concatenate([to_channels(a_fn) for a_fn in a_fns], axis=1))
    b_fns = [from_channels(bridge.y, algebra, part)
             for part in np.split(chans[nx:], len(a_fns), axis=1)]
    l_bs = _lipnorms(b_fns, spec)

    src, dst = np.array(bridge.w_set, dtype=int).reshape(-1, 2).T
    matched = []
    for a_fn, b_fn, l_a, l_b in zip(a_fns, b_fns, l_as, l_bs):
        r_a = optimal_conv_shift(a_fn)
        # b_fn and its real shifts are Hermitian by construction
        shifted = [s - e for s, e in zip(b_fn.stacks, algebra.scalar(r_a).blocks)]
        q_at_shift = float(_real_max_norms(shifted).max())
        pair_diffs = [sa[src] - sb[dst] for sa, sb in zip(a_fn.stacks, b_fn.stacks)]
        norms = (_real_max_norms(pair_diffs) if a_fn.channels is not None
                 else stack_norms(pair_diffs, "real_max"))
        w_defect = float(norms.max(initial=0.0))
        certificate = {
            "lipnorm_source": l_a,
            "lipnorm_matched": l_b,
            "source_shift": r_a,
            "q_at_source_shift": q_at_shift,
            "w_defect": w_defect,
            "w_defect_op_bound": _ROOT2 * algebra.max_block * w_defect,
            "threshold": bridge.threshold,
            "ok": bool(l_b <= 1.0 + TAU_LP and q_at_shift <= 1.0 + TAU_LP
                       and w_defect <= bridge.threshold + TAU_LP),
        }
        if not certificate["ok"]:
            raise BoundViolation(
                "matched element failed its certificate: lipnorm %.12g, "
                "q at source shift %.12g, defect %.12g vs threshold %.12g"
                % (l_b, q_at_shift, w_defect, bridge.threshold))
        matched.append((b_fn, certificate))
    return matched


@dataclass(frozen=True, eq=False)
class PropinquityBound:
    """Closed-form distance bound plus the sampled matching certificates."""

    delta_xy: float
    epsilon: float
    bound: float
    certificates: tuple

    def to_json_dict(self) -> dict:
        return {"delta_xy": self.delta_xy, "epsilon": self.epsilon,
                "bound": self.bound,
                "delta_is_embedding_hausdorff": True,
                "certificates": list(self.certificates)}


def _sample_witness(space, algebra, rng):
    mu = random_product_state(space, algebra, rng)
    nu = random_product_state(space, algebra, rng)
    return mk_distance(space, algebra, mu, nu, conv_spec()).witness


def propinquity_upper_bound(x: FiniteMetricSpace, y: FiniteMetricSpace,
                            cross, epsilon: float, algebra: Algebra,
                            samples: int = 3, seed: int = 0) -> PropinquityBound:
    """Certified upper bound sqrt(2) m_A delta_XY + epsilon/2.

    The bound needs no search; the sampled certificates transport Lip-ball
    extreme points (distance-LP witnesses) both ways across the bridge as
    falsification attempts.  delta_xy is the Hausdorff distance of the
    supplied embedding, itself an upper bound for the optimal one.
    """
    cross = np.asarray(cross, dtype=float)
    forward = build_bridge(x, y, cross, epsilon, algebra)
    backward = build_bridge(y, x, cross.T, epsilon, algebra)
    bound = _ROOT2 * algebra.max_block * forward.delta_xy + epsilon / 2.0
    rng = np.random.default_rng(seed)
    certificates = []
    # matching draws no randomness, so sampling a direction's witnesses
    # first keeps the draws in the one-at-a-time order
    for direction, bridge in (("forward", forward), ("backward", backward)):
        witnesses = [_sample_witness(bridge.x, algebra, rng) for _ in range(samples)]
        for _, cert in _match_elements(bridge, witnesses):
            cert["direction"] = direction
            certificates.append(cert)
    return PropinquityBound(forward.delta_xy, epsilon, bound,
                            tuple(certificates))


def approx_table(x: FiniteMetricSpace, algebra: Algebra, eps_schedule,
                 epsilon: float, samples: int = 3, seed: int = 0) -> list:
    """Net-approximation rows: one bound per net scale.

    Each row restricts the ground metric to a greedy net, bridges the net
    against the full space, and records the pinned columns (eps_n,
    net_size, hausdorff, delta_xy, bound)."""
    schedule = [float(e) for e in eps_schedule]
    if not schedule:
        raise InputError("the net schedule must be nonempty")
    if any(e <= 0 for e in schedule):
        raise InputError("net scales must be positive")
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise InputError("the net schedule must be strictly decreasing")
    rows = []
    for row_i, eps_n in enumerate(schedule):
        net = epsilon_net(x, eps_n)
        x_n = x.subspace(net)
        cross = x.dist[np.ix_(net, range(x.size))]
        haus = hausdorff(x, net, list(range(x.size)))
        pub = propinquity_upper_bound(x_n, x, cross, epsilon, algebra,
                                      samples=samples, seed=seed + row_i)
        rows.append({"eps_n": eps_n, "net_size": len(net),
                     "hausdorff": haus, "delta_xy": pub.delta_xy,
                     "bound": pub.bound,
                     "certificates": list(pub.certificates)})
    return rows
