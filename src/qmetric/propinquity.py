"""Approximation pipeline for pairs of metric spaces sharing one algebra.

Joins the two spaces with an offset cross metric, collects the nearly
matched pairs, transports Lip-ball elements across by channelwise
Lipschitz extension, and emits a closed-form distance bound together with
per-sample certificates that re-verify every claimed inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import Algebra
from .errors import BoundViolation, InputError, _integer, _real
# lipnorm is unused here, but bench/test_bench.py checks that the tracer
# wraps this module's alias of it
from .funcspace import (MatrixFunction, _lipnorms, channel_slots, conv_spec,  # noqa: F401
                        from_channels, lipnorm, to_channels)
from .generate import random_product_state
from .lpcore import TAU_LP
from .mcshane import _clamped_inf_convolution, _realized_constants
from .metric import (TAU_METRIC, FiniteMetricSpace, JoinedSpace, _block_hausdorff, _cross_matrix,
                     epsilon_net)
from .mk import _exact_distances

_ROOT2 = math.sqrt(2.0)

# samples drawn per direction and row; the state pairs of a group of rows
# are drawn before any is solved
_MAX_SAMPLES = 10_000

# functions per side that one group of table rows certifies in one batch
_GROUP_FUNCTIONS = 32

# how far, relatively, a forward image's McShane bound may exceed its
# source's lipnorm before the image takes lipnorm instead
_BOUND_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class Bridge:
    """A checked join with its matched-pair set, ready to transport elements.

    delta_xy is the Hausdorff distance of the supplied embedding (raw cross),
    threshold the pair-admission cut on the offset joined metric.
    """

    x: FiniteMetricSpace
    y: FiniteMetricSpace
    joined: JoinedSpace
    algebra: Algebra
    epsilon: float
    delta_xy: float
    threshold: float
    w_set: tuple

    @cached_property
    def joined_metric(self) -> FiniteMetricSpace:
        """The join as one space, "X|..." labels first; transport never reads it."""
        return self.joined.metric_space(["X|" + lab for lab in self.x.labels]
                                        + ["Y|" + lab for lab in self.y.labels])


def build_bridge(x: FiniteMetricSpace, y: FiniteMetricSpace, cross,
                 epsilon: float, algebra: Algebra, net=None) -> Bridge:
    """Join two spaces with the offset cross metric and admit close pairs.

    The cross distances are lifted by epsilon / (8 sqrt(2) m_A), a quarter
    of the admission slack, so the joined matrix can stay a metric while
    every point still finds a partner within threshold.  An epsilon whose
    lift leaves some cross distance at or below the metric tolerance
    TAU_METRIC is bad input.

    The join's mixed triples are scanned.  net, given by approx_table rows,
    names the indices in y of x's points, with x y's subspace on them and
    cross y.dist[net]: such a join is a metric by the lemma of
    JoinedSpace._net_join, which scans only when rounding might break it
    or when the inputs are not as stated."""
    epsilon = _real(epsilon, "epsilon", positive=True)
    cross = _cross_matrix(cross, x, y)

    offset = epsilon / (8.0 * _ROOT2 * algebra.max_block)
    lifted = cross + offset
    if lifted.min() <= TAU_METRIC:
        raise InputError(
            "epsilon %.12g is too small: its cross offset epsilon / (8 sqrt(2) m_A) "
            "= %.3g lifts a cross distance only to %.3g, not above the metric "
            "tolerance %.3g" % (epsilon, offset, lifted.min(), TAU_METRIC))
    joined = (JoinedSpace(x, y, lifted) if net is None
              else JoinedSpace._net_join(x, y, net, lifted, offset))
    return _bridge(joined, cross, epsilon, algebra)


def _bridge(joined: JoinedSpace, cross: np.ndarray, epsilon: float,
            algebra: Algebra) -> Bridge:
    """The bridge over a checked join of the offset cross distances (raw in
    cross).  The join needs no further check to be a metric: it scanned the
    triples that mix X and Y, and symmetry, a zero diagonal and positivity
    follow from the validated X and Y and build_bridge's TAU_METRIC check."""
    delta_xy = _block_hausdorff(cross)
    threshold = delta_xy + epsilon / (2.0 * _ROOT2 * algebra.max_block)
    admitted = joined.cross <= threshold
    w_set = tuple(map(tuple, np.argwhere(admitted).tolist()))
    if not (admitted.any(axis=1).all() and admitted.any(axis=0).all()):
        raise ArithmeticError(
            "matched-pair projections are not surjective; the offset is a "
            "quarter of the admission slack, so this cannot happen")
    return Bridge(joined.x, joined.y, joined, algebra, epsilon, delta_xy, threshold, w_set)


def match_element(bridge: Bridge, a_fn: MatrixFunction):
    """Transport a Lip-ball element across the bridge, with certificate.

    Extends every real entry channel from the X side onto Y across the
    join's cross block (clamped, own realized constant on X).  Clamping
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
    (matched, certificate), = _match_elements(bridge, (a_fn,))
    _require_ok(certificate)
    return matched, certificate


def _match_elements(bridge: Bridge, a_fns, lipnorms=None) -> list:
    """match_element of each element, bit for bit, in one batch, except
    that the certificates are not yet required ok: _transport, then one
    batched lipnorm for the images.  lipnorms, if given, are the sources'
    certified conv seminorms (mk witnesses, made from channels and so
    self-adjoint), used instead of the sources' batch.  Returns (matched,
    certificate) pairs."""
    if not a_fns:
        return []
    l_as, b_chans, reductions, _ = _transport(bridge, a_fns, lipnorms)
    b_fns = [from_channels(bridge.y, bridge.algebra, b) for b in b_chans]
    return list(zip(b_fns, _certificates(bridge.threshold, bridge.algebra, l_as,
                                         _lipnorms(b_fns, conv_spec()), *reductions)))


def _transport(bridge: Bridge, a_fns, lipnorms=None) -> tuple:
    """The sources' lipnorms (or the given ones), their images' channels,
    the image-free part of their certificates, and what _image_bounds
    reads.  The sources' channels (k, nx, w) are extended once onto Y over
    the cross block, bit for bit the Y rows of extend_channels over the
    joined metric, into (k, ny, w); source_shift, q_at_source_shift and
    w_defect are reductions over both.  Returns (lipnorms, image channels,
    (shifts, q_at_shifts, w_defects), (constants, sizes)), where the
    constants (k, w) are those the kernel used, each channel's realized one
    on X, and sizes (k, w) the largest |value| of each source channel."""
    for a_fn in a_fns:
        if a_fn.space.labels != bridge.x.labels:
            raise InputError("element must live on the bridge's X side")
        if a_fn.algebra.block_sizes != bridge.algebra.block_sizes:
            raise InputError("element algebra does not match the bridge algebra")
    l_as = _lipnorms(a_fns, conv_spec()) if lipnorms is None else lipnorms
    for l_a in l_as:
        if l_a > 1.0 + TAU_LP:
            raise InputError("element lipnorm %.12g exceeds the unit ball slack"
                             % l_a)

    a_chans = np.stack([to_channels(a_fn) for a_fn in a_fns])
    flat = np.hstack(a_chans)
    consts = _realized_constants(bridge.x.dist, flat)
    ext = _clamped_inf_convolution(bridge.joined.cross.T, flat, consts)
    b_chans = np.stack(np.split(ext, len(a_fns), axis=1))

    src, dst = np.array(bridge.w_set, dtype=int).reshape(-1, 2).T
    w_defects = np.abs(a_chans[:, src] - b_chans[:, dst]).max(axis=(1, 2), initial=0.0)
    # the conv shift is the diagonal channels' midpoint and moves only them
    diag = np.concatenate([slots[0] for slots in channel_slots(bridge.algebra)])
    shifts = 0.5 * (a_chans[:, :, diag].max(axis=(1, 2)) + a_chans[:, :, diag].min(axis=(1, 2)))
    shifted = b_chans.copy()
    shifted[:, :, diag] -= shifts[:, None, None]
    q_at_shifts = np.abs(shifted).max(axis=(1, 2))
    return (l_as, b_chans, (shifts.tolist(), q_at_shifts.tolist(), w_defects.tolist()),
            (consts.reshape(len(a_fns), -1), np.abs(a_chans).max(axis=1)))


def _image_bounds(bridge: Bridge, l_as, consts, sizes) -> np.ndarray:
    """Certified upper bounds on the conv seminorms of _transport's
    images, in O(k w) per image: each at least what lipnorm computes for
    its image.  l_as must be computed conv lipnorms of the sources, consts
    and sizes (k, w) _transport's.

    Lemma (McShane).  Let f_c be a source channel on X, L_c its kernel
    constant, C the stored cross block with M = max C, and u = eps / 2.
    The image channel is b_c(y) = clip(min_s fl(fl(L_c C[s,y]) + f_c(s)),
    min f_c, max f_c).
    - q part.  Clipping keeps each channel inside the source's range, so
      the image's computed conv q part is at most the source's, which is
      at most l_a; max, min, abs and the halving are monotone in floating
      point too.
    - Lipschitz part.  The join's _tau bounds -(C[s,y'] + d(y',y) -
      C[s,y]) in exact arithmetic, so the exact minimum g_c over s has
      g_c(y) - g_c(y') <= L_c (d(y,y') + tau).  Each candidate is within
      delta_c = u (3 L_c M + max |f_c|) + s of its exact value ((2u + u^2)
      L_c M + u |f_c| rounding, s the least subnormal for an underflow),
      so is the minimum, and clipping is 1-Lipschitz.  So |b_c(y) -
      b_c(y')| <= L_c (d(y,y') + tau) + 2 delta_c, and every quotient over
      a pair of Y is at most V, the largest over c of L_c + (L_c tau + 2
      delta_c) / d_min, with d_min Y's least distance.

    The bound is max(l_a, fl(V) (1 + 16 eps)).  Every term of V is
    nonnegative, so its at most 7 roundings leave fl(V) >= V (1 - u)^7,
    and the factor, rounded once more, lifts that above V (1 + u)^2, which
    covers lipnorm's rounding of each difference and quotient."""
    eps = np.finfo(float).eps
    joined = bridge.joined
    delta = 0.5 * eps * (3.0 * consts * float(joined.cross.max()) + sizes)
    delta += np.finfo(float).smallest_subnormal
    lip = (consts + (consts * joined._tau + 2.0 * delta) / bridge.y._least_distance).max(axis=1)
    return np.maximum(l_as, lip * (1.0 + 16.0 * eps))


def _image_lipnorms(bridge: Bridge, l_as, b_chans, reach) -> list:
    """The lipnorm_matched of each of _transport's images: its bound from
    _image_bounds, or the image's lipnorm where that bound exceeds 1 +
    TAU_LP, so that a certificate fails only when lipnorm fails it, or
    exceeds l_a (1 + _BOUND_SLACK), so that a bound is never more than
    that above both its source's lipnorm and its image's."""
    l_bs = _image_bounds(bridge, l_as, *reach)
    over = np.flatnonzero((l_bs > 1.0 + TAU_LP)
                          | (l_bs > np.asarray(l_as) * (1.0 + _BOUND_SLACK)))
    if over.size:
        l_bs[over] = _lipnorms([from_channels(bridge.y, bridge.algebra, b_chans[j])
                                for j in over], conv_spec())
    return l_bs.tolist()


def _certificates(threshold: float, algebra: Algebra, l_as, l_bs, shifts,
                  q_at_shifts, w_defects) -> list:
    """One certificate per transported element, not yet required ok."""
    op_factor = _ROOT2 * algebra.max_block
    return [{"lipnorm_source": l_a,
             "lipnorm_matched": l_b,
             "source_shift": r_a,
             "q_at_source_shift": q_at_shift,
             "w_defect": w_defect,
             "w_defect_op_bound": op_factor * w_defect,
             "threshold": threshold,
             "ok": bool(l_b <= 1.0 + TAU_LP and q_at_shift <= 1.0 + TAU_LP
                        and w_defect <= threshold + TAU_LP)}
            for l_a, l_b, r_a, q_at_shift, w_defect
            in zip(l_as, l_bs, shifts, q_at_shifts, w_defects)]


def _require_ok(certificate: dict) -> None:
    if not certificate["ok"]:
        raise BoundViolation(
            "matched element failed its certificate: lipnorm %.12g, "
            "q at source shift %.12g, defect %.12g vs threshold %.12g"
            % (certificate["lipnorm_matched"], certificate["q_at_source_shift"],
               certificate["w_defect"], certificate["threshold"]))


def _require_run(samples, seed) -> None:
    """InputError unless samples and seed are nonnegative integers and
    samples is at most _MAX_SAMPLES."""
    if _integer(samples, "samples") > _MAX_SAMPLES:
        raise InputError("samples must be at most %d, got %d" % (_MAX_SAMPLES, samples))
    _integer(seed, "seed")


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
    samples is the number of witnesses per direction, at most 10000, and
    seed that of their states' generator, both nonnegative integers.
    """
    _require_run(samples, seed)
    (delta_xy, bound, certificates), = _bound_rows(
        y, [(None, x, _cross_matrix(cross, x, y), seed)], epsilon, algebra, samples)
    return PropinquityBound(delta_xy, epsilon, bound, tuple(certificates))


def approx_table(x: FiniteMetricSpace, algebra: Algebra, eps_schedule,
                 epsilon: float, samples: int = 3, seed: int = 0) -> list:
    """Net-approximation rows: one bound per net scale.

    Each row restricts the ground metric to a greedy net, bridges the net
    against the full space, and records the pinned columns (eps_n,
    net_size, hausdorff, delta_xy, bound).  The net lies in the space, so
    its Hausdorff distance is the bridge's delta_xy, and its join to the
    space is a metric by a lemma, scanned only when rounding might break
    it (build_bridge's net).  Row i is
    propinquity_upper_bound of its net with seed + i; samples is at most
    10000."""
    schedule = [_real(e, "net scales", positive=True) for e in eps_schedule]
    if not schedule:
        raise InputError("the net schedule must be nonempty")
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise InputError("the net schedule must be strictly decreasing")
    # row i draws from seed + i, which would turn a bool seed into an int
    _require_run(samples, seed)
    rows, net = [], None
    for row_i, eps_n in enumerate(schedule):
        row_net = tuple(epsilon_net(x, eps_n))
        if row_net != net:
            # the nets of one greedy run are prefixes of each other, so
            # equal nets are consecutive and share one subspace
            net = row_net
            x_n, cross = x.subspace(net), x.dist[np.ix_(net, range(x.size))]
        rows.append((net, x_n, cross, seed + row_i))
    return [{"eps_n": eps_n, "net_size": x_n.size,
             "hausdorff": delta_xy, "delta_xy": delta_xy, "bound": bound,
             "certificates": certificates}
            for eps_n, (_, x_n, _, _), (delta_xy, bound, certificates)
            in zip(schedule, rows, _bound_rows(x, rows, epsilon, algebra, samples))]


def _bound_rows(y: FiniteMetricSpace, rows, epsilon, algebra: Algebra,
                samples: int) -> list:
    """propinquity_upper_bound of each row (net, x, cross, seed) against
    the common space y: one (delta_xy, bound, certificates) per row, in
    order, bit for bit when every certificate is ok, except that a forward
    lipnorm_matched is _image_lipnorms': McShane's certified bound, or
    lipnorm where the bound exceeds 1 + TAU_LP or l_a (1 + _BOUND_SLACK).
    net is None for a caller's cross, or the indices of x in y with cross
    y.dist[net], and is build_bridge's net.  It is also the key of the
    row's bridge: consecutive rows with equal keys share one bridge pair,
    so they must have equal x and cross.

    Consecutive rows form a group while rows x samples <= _GROUP_FUNCTIONS,
    so at 32 samples or more each row is its own group.  A group draws
    each row's forward, then backward, state pairs from the row's own
    generator before anything is solved (solving and matching draw
    nothing).  The backward witnesses all live on y: they are solved and
    certified in one batch, after the group's first bridge is built.
    Rows then run one at a time.  A row builds its bridge pair only when
    its key differs from the previous row's, and drops the previous pair
    first.  It leaves behind only its delta_xy and its certificates of
    both directions, not yet required ok.

    A table with a bad row or a failed certificate can raise a different
    first error than one row at a time would.  A group fails in this
    order: the first row's bridges; every row's backward witnesses (solve
    and certificate); then, row by row, the row's bridges if new, its
    forward witnesses and the transports of both directions; last, at the
    end of the group, the image certificates, forward then backward, row
    by row."""
    spec = conv_spec()
    out, net, forward, backward = [], None, None, None
    size = max(1, _GROUP_FUNCTIONS // samples) if samples else len(rows)
    for start in range(0, len(rows), size):
        group = rows[start:start + size]
        drawn = []
        for _, x, _, seed in group:
            rng = np.random.default_rng(seed)
            drawn.append([[(random_product_state(space, algebra, rng),
                            random_product_state(space, algebra, rng))
                           for _ in range(samples)] for space in (x, y)])
        backward_solved, pending = None, []
        for i, ((key, x, cross, _), (forward_pairs, _)) in enumerate(zip(group, drawn)):
            if forward is None or key != net:
                # the previous pair is dropped before the next is built
                forward = backward = None
                forward = build_bridge(x, y, cross, epsilon, algebra, key)
                # the mirrored join has the same triples, so it is not scanned again
                backward = _bridge(forward.joined.mirrored(), cross.T, forward.epsilon,
                                   algebra)
                net = key
            if backward_solved is None:
                # after the group's first bridge, so bad bridge input fails before any solve
                backward_solved = _exact_distances(
                    y, algebra, [pair for _, pairs in drawn for pair in pairs], spec)
            forward_certificates, backward_certificates = [], []
            if samples:
                solved = _exact_distances(x, algebra, forward_pairs, spec)
                l_as, b_chans, reductions, reach = _transport(
                    forward, [r.witness for r, _ in solved], [lip for _, lip in solved])
                forward_certificates = _certificates(
                    forward.threshold, algebra, l_as,
                    _image_lipnorms(forward, l_as, b_chans, reach), *reductions)
                solved = backward_solved[i * samples:(i + 1) * samples]
                backward_certificates = [cert for _, cert in _match_elements(
                    backward, [r.witness for r, _ in solved], [lip for _, lip in solved])]
            pending.append((forward.delta_xy, forward_certificates, backward_certificates))

        for delta_xy, *batches in pending:
            certificates = []
            for direction, batch in zip(("forward", "backward"), batches):
                for certificate in batch:
                    _require_ok(certificate)
                    certificate["direction"] = direction
                    certificates.append(certificate)
            out.append((delta_xy, _ROOT2 * algebra.max_block * delta_xy + epsilon / 2.0,
                        certificates))
    return out
