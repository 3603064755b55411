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

from .algebra import Algebra
from .errors import BoundViolation, InputError
# lipnorm is unused here, but bench/test_bench.py checks that the tracer
# wraps this module's alias of it
from .funcspace import (MatrixFunction, _lipnorms, channel_slots, conv_spec,  # noqa: F401
                        from_channels, lipnorm, to_channels)
from .generate import random_product_state
from .lpcore import TAU_LP
from .mcshane import extend_channels
from .metric import FiniteMetricSpace, JoinedSpace, _block_hausdorff, epsilon_net
from .mk import _exact_distances

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
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise InputError("epsilon must be positive and finite")
    cross = np.asarray(cross, dtype=float)
    if cross.shape != (x.size, y.size):
        raise InputError("cross matrix must be %dx%d, got %r"
                         % (x.size, y.size, cross.shape))
    if not np.isfinite(cross).all() or (cross < 0).any():
        raise InputError("cross distances must be finite and nonnegative")

    offset = epsilon / (8.0 * _ROOT2 * algebra.max_block)
    return _bridge(JoinedSpace(x, y, cross + offset), cross, epsilon, algebra)


def _bridge(joined: JoinedSpace, cross: np.ndarray, epsilon: float,
            algebra: Algebra) -> Bridge:
    """The bridge over a checked join of the offset cross distances;
    cross holds the raw ones."""
    x, y = joined.x, joined.y
    labels = (tuple("X|%s" % lab for lab in x.labels)
              + tuple("Y|%s" % lab for lab in y.labels))
    joined_metric = joined.metric_space(labels)

    delta_xy = _block_hausdorff(cross)
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
    The source is checked for self-adjointness once; the image is made
    from channels, so it is Hermitian by construction.

    Returns:
      (matched function on Y, certificate dict).  The source's lipnorm is
      computed here and every certificate entry is re-verified; failure
      raises BoundViolation.
    """
    return _match_elements(bridge, (a_fn,))[0]


def _match_elements(bridge: Bridge, a_fns, lipnorms=None) -> list:
    """match_element of each element, bit for bit, in one batch: one batched
    lipnorm each for the sources and the images, one extension of the
    sources' channels (k, nx, w) to the images' (k, ny, w), and certificates
    reduced over both arrays.  lipnorms, if given, are the sources' certified
    conv seminorms (mk witnesses, made from channels and so self-adjoint),
    used instead of the sources' batch.  Returns (matched, certificate) pairs."""
    if not a_fns:
        return []
    spec = conv_spec()
    for a_fn in a_fns:
        if a_fn.space.labels != bridge.x.labels:
            raise InputError("element must live on the bridge's X side")
        if a_fn.algebra.block_sizes != bridge.algebra.block_sizes:
            raise InputError("element algebra does not match the bridge algebra")
    l_as = _lipnorms(a_fns, spec) if lipnorms is None else lipnorms
    for l_a in l_as:
        if l_a > 1.0 + TAU_LP:
            raise InputError("element lipnorm %.12g exceeds the unit ball slack"
                             % l_a)

    algebra = bridge.algebra
    k, nx = len(a_fns), bridge.x.size
    a_chans = np.stack([to_channels(a_fn) for a_fn in a_fns])
    ext = extend_channels(bridge.joined_metric, range(nx), np.hstack(a_chans))
    b_chans = np.stack(np.split(ext[nx:], k, axis=1))
    b_fns = [from_channels(bridge.y, algebra, b) for b in b_chans]
    l_bs = _lipnorms(b_fns, spec)

    src, dst = np.array(bridge.w_set, dtype=int).reshape(-1, 2).T
    w_defects = np.abs(a_chans[:, src] - b_chans[:, dst]).max(axis=(1, 2), initial=0.0)
    # the conv shift is the diagonal channels' midpoint and moves only them; b_fns hold copies
    diag = np.concatenate([slots[0] for slots in channel_slots(algebra)])
    shifts = 0.5 * (a_chans[:, :, diag].max(axis=(1, 2)) + a_chans[:, :, diag].min(axis=(1, 2)))
    b_chans[:, :, diag] -= shifts[:, None, None]
    q_at_shifts = np.abs(b_chans).max(axis=(1, 2))
    matched = []
    for b_fn, l_a, l_b, r_a, q_at_shift, w_defect in zip(
            b_fns, l_as, l_bs, shifts.tolist(), q_at_shifts.tolist(), w_defects.tolist()):
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


def _require_count(name: str, value) -> None:
    """InputError unless value is a nonnegative integer (numpy integers
    too; a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise InputError("%s must be a nonnegative integer, got %r" % (name, value))


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


def propinquity_upper_bound(x: FiniteMetricSpace, y: FiniteMetricSpace,
                            cross, epsilon: float, algebra: Algebra,
                            samples: int = 3, seed: int = 0) -> PropinquityBound:
    """Certified upper bound sqrt(2) m_A delta_XY + epsilon/2.

    The bound needs no search; the sampled certificates transport Lip-ball
    extreme points (distance-LP witnesses) both ways across the bridge as
    falsification attempts.  delta_xy is the Hausdorff distance of the
    supplied embedding, itself an upper bound for the optimal one.
    samples is the number of witnesses per direction and seed that of
    their states' generator, both nonnegative integers.
    """
    _require_count("samples", samples)
    _require_count("seed", seed)
    cross = np.asarray(cross, dtype=float)
    forward = build_bridge(x, y, cross, epsilon, algebra)
    # the mirrored join has the same triples, so it is not scanned again
    backward = _bridge(forward.joined.mirrored(), cross.T, forward.epsilon, algebra)
    bound = _ROOT2 * algebra.max_block * forward.delta_xy + epsilon / 2.0
    rng = np.random.default_rng(seed)
    certificates = []
    # solving and matching draw no randomness, so drawing a direction's
    # states first keeps the draws in the one-at-a-time order
    for direction, bridge in (("forward", forward), ("backward", backward)):
        pairs = [(random_product_state(bridge.x, algebra, rng),
                  random_product_state(bridge.x, algebra, rng)) for _ in range(samples)]
        solved = _exact_distances(bridge.x, algebra, pairs, conv_spec())
        for _, cert in _match_elements(bridge, [r.witness for r, _ in solved],
                                       [lip for _, lip in solved]):
            cert["direction"] = direction
            certificates.append(cert)
    return PropinquityBound(forward.delta_xy, epsilon, bound,
                            tuple(certificates))


def approx_table(x: FiniteMetricSpace, algebra: Algebra, eps_schedule,
                 epsilon: float, samples: int = 3, seed: int = 0) -> list:
    """Net-approximation rows: one bound per net scale.

    Each row restricts the ground metric to a greedy net, bridges the net
    against the full space, and records the pinned columns (eps_n,
    net_size, hausdorff, delta_xy, bound).  The net lies in the space, so
    its Hausdorff distance is the bridge's delta_xy."""
    schedule = [float(e) for e in eps_schedule]
    if not schedule:
        raise InputError("the net schedule must be nonempty")
    if any(e <= 0 for e in schedule):
        raise InputError("net scales must be positive")
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise InputError("the net schedule must be strictly decreasing")
    # row i draws from seed + i, which would turn a bool seed into an int
    _require_count("seed", seed)
    rows = []
    for row_i, eps_n in enumerate(schedule):
        net = epsilon_net(x, eps_n)
        x_n = x.subspace(net)
        cross = x.dist[np.ix_(net, range(x.size))]
        pub = propinquity_upper_bound(x_n, x, cross, epsilon, algebra,
                                      samples=samples, seed=seed + row_i)
        rows.append({"eps_n": eps_n, "net_size": len(net),
                     "hausdorff": pub.delta_xy, "delta_xy": pub.delta_xy,
                     "bound": pub.bound,
                     "certificates": list(pub.certificates)})
    return rows
