"""Matrix-valued functions on finite metric spaces and their seminorm family.

Every seminorm is a max of two parts: a Lipschitz part, the worst normed
difference quotient over point pairs, and a quotient-type part selected by
the spec's q kind, which measures how far the function is from scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from . import algebra as alg
from .algebra import (Algebra, AlgElement, TAU_SA, _frozen, _hermitian_defect,
                      stack_norms)
from .errors import InputError, UnsupportedSpec
from .metric import FiniteMetricSpace
from .states import FunctionalState, evaluate

Q_KINDS = ("quotient_CX", "quotient_C", "state", "conv", "conv_K")

# q kinds whose unit ball is a polytope in the real entry coordinates
LP_EXACT_Q_KINDS = ("quotient_C", "state", "conv", "conv_K")


@dataclass(frozen=True, eq=False, init=False)
class MatrixFunction:
    """One algebra element per point of a finite metric space, kept as one
    read-only stack of shape (n_points, m, m) per block.  A function made
    from real channels (from_channels) holds only its read-only
    (n_points, sum m^2) channel array and builds its stacks, then its
    values, on first read."""

    space: FiniteMetricSpace
    algebra: Algebra
    channels: Optional[np.ndarray] = field(repr=False)  # None unless made from channels

    def __init__(self, space: FiniteMetricSpace, algebra: Algebra, values):
        values = tuple(values)
        if len(values) != space.size:
            raise InputError("need one value per point, got %d for %d points"
                             % (len(values), space.size))
        if any(v.algebra.block_sizes != algebra.block_sizes for v in values):
            raise InputError("value block sizes do not match the algebra")
        stacks = tuple(_frozen(np.stack([v.blocks[l] for v in values]))
                       for l in range(algebra.n_blocks))
        self._hold(space=space, algebra=algebra, channels=None, values=values,
                   stacks=stacks)

    def _hold(self, **fields) -> None:
        for name, val in fields.items():
            object.__setattr__(self, name, val)

    @cached_property
    def stacks(self) -> tuple[np.ndarray, ...]:
        """The per-block stacks; built here only for a function made from
        channels, whose Hermitian entries they fill in."""
        stacks = []
        for m, (diag, re, im, rows, cols) in zip(self.algebra.block_sizes,
                                                 channel_slots(self.algebra)):
            s = np.zeros((self.space.size, m, m), dtype=complex)
            s[:, range(m), range(m)] = self.channels[:, diag]
            z = self.channels[:, re] + 1j * self.channels[:, im]
            s[:, rows, cols] = z
            s[:, cols, rows] = np.conj(z)
            stacks.append(_frozen(s))
        return tuple(stacks)

    @cached_property
    def values(self) -> tuple[AlgElement, ...]:
        """The value at each point: bit for bit the stacks' slices."""
        return tuple(AlgElement(self.algebra, tuple(s[p] for s in self.stacks))
                     for p in range(self.space.size))

    def is_self_adjoint(self, tol: float = TAU_SA) -> bool:
        return all(_hermitian_defect(s).max() <= tol for s in self.stacks)

    def to_json_dict(self) -> dict:
        return {
            "space": self.space.to_json_dict(),
            "algebra": self.algebra.to_json_dict(),
            "values": [v.to_json_dict() for v in self.values],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "MatrixFunction":
        if not isinstance(data, dict):
            raise InputError("matrix function JSON must be an object")
        for key in ("space", "algebra", "values"):
            if key not in data:
                raise InputError("matrix function JSON is missing %r" % key)
        space = FiniteMetricSpace.from_json_dict(data["space"])
        algebra = Algebra.from_json_dict(data["algebra"])
        values = tuple(AlgElement.from_json_dict(algebra, v) for v in data["values"])
        return cls(space, algebra, values)


@lru_cache(maxsize=None)
def channel_slots(algebra: Algebra) -> tuple:
    """Where each block sits in one point's real channels of a self-adjoint
    element; computed once per algebra.

    One (diag, re, im, rows, cols) tuple of read-only index arrays per
    block: the channels of its real diagonal entries, then those of the
    real and imaginary parts of its strictly upper entries, interleaved as
    (Re, Im) pairs; re[i] and im[i] hold the entry at (rows[i], cols[i]),
    in row-major order.  A block of size m takes m^2 consecutive channels,
    in block order.
    """
    slots, off = [], 0
    for m in algebra.block_sizes:
        re = off + m + 2 * np.arange(m * (m - 1) // 2)
        slots.append(tuple(_frozen(i) for i in (np.arange(off, off + m), re, re + 1,
                                                *np.triu_indices(m, 1))))
        off += m * m
    return tuple(slots)


def to_channels(fn: MatrixFunction) -> np.ndarray:
    """The real channels of a self-adjoint function, shape (n_points, sum m^2).

    A function made from channels returns its own read-only array.  Other
    functions are read from their stacks: the lower triangle and the
    imaginary parts of the diagonal are not read.
    """
    if fn.channels is not None:
        return fn.channels
    chans = np.empty((fn.space.size, sum(m * m for m in fn.algebra.block_sizes)))
    for s, (diag, re, im, rows, cols) in zip(fn.stacks, channel_slots(fn.algebra)):
        chans[:, diag] = np.diagonal(s, axis1=1, axis2=2).real
        chans[:, re] = s[:, rows, cols].real
        chans[:, im] = s[:, rows, cols].imag
    return chans


def from_channels(space: FiniteMetricSpace, algebra: Algebra, channels) -> MatrixFunction:
    """The self-adjoint function whose real channels are given (copied);
    inverts to_channels."""
    chans = np.array(channels, dtype=float)
    width = sum(m * m for m in algebra.block_sizes)
    if chans.shape != (space.size, width):
        raise InputError("channel array must be %dx%d, got %r"
                         % (space.size, width, chans.shape))
    # finite channels make Hermitian stacks, which real_max reads unchecked
    if not np.isfinite(chans).all():
        raise InputError("channels must be finite")
    fn = object.__new__(MatrixFunction)
    fn._hold(space=space, algebra=algebra, channels=_frozen(chans))
    return fn


@dataclass(frozen=True, eq=False)
class SeminormSpec:
    """Choice of norm kind and quotient-type term for the seminorm family.

    norm_kind is one of "operator", "max", "real_max".  q_kind is one of
    "quotient_CX" (pointwise distance to scalars), "quotient_C" (one global
    scalar), "state" (recentre by a reference state), "conv" (one global
    real scalar under the real max norm), or "conv_K" (the same scaled by
    2/K).  The "real_max" and "conv"/"conv_K" choices apply to self-adjoint
    functions only.
    """

    norm_kind: str
    q_kind: str
    K: Optional[float] = None
    state: Optional[FunctionalState] = None

    def __post_init__(self):
        if self.norm_kind not in alg.NORM_KINDS:
            raise InputError("unknown norm kind %r" % (self.norm_kind,))
        if self.q_kind not in Q_KINDS:
            raise InputError("unknown q kind %r" % (self.q_kind,))
        if self.q_kind == "conv_K":
            if self.K is None or not float(self.K) > 0:
                raise InputError("conv_K needs a positive K")
            object.__setattr__(self, "K", float(self.K))
        elif self.K is not None:
            raise InputError("K only applies to the conv_K q kind")
        if self.q_kind == "state":
            if not isinstance(self.state, FunctionalState):
                raise InputError("the state q kind needs a reference state "
                                 "on the function space")
        elif self.state is not None:
            raise InputError("a reference state only applies to the state q kind")

    def lp_exact(self) -> bool:
        """Whether this spec's unit ball is an exactly LP-representable polytope."""
        return self.norm_kind == "real_max" and self.q_kind in LP_EXACT_Q_KINDS

    def describe(self) -> str:
        extra = ""
        if self.q_kind == "conv_K":
            extra = ", K=%.12g" % self.K
        if self.q_kind == "state":
            extra = ", reference state with %d terms" % len(self.state.terms)
        return "%s / %s%s" % (self.norm_kind, self.q_kind, extra)


def conv_spec() -> SeminormSpec:
    """The seminorm used throughout the approximation pipeline."""
    return SeminormSpec("real_max", "conv")


def sup_norm(fn: MatrixFunction, norm_kind: str = "operator", tol: float = TAU_SA) -> float:
    """Largest norm of any value; the C*-norm of the function when norm_kind is operator."""
    return float(stack_norms(fn.stacks, norm_kind, tol).max())


def lip_part(fn: MatrixFunction, norm_kind: str, tol: float = TAU_SA) -> float:
    """Worst normed difference quotient over unordered point pairs; 0 on one point.

    The one-function case of a batched kernel that takes one row of pairs
    (i against every j > i) at a time, in O(P n) memory for P functions."""
    return float(_lip_parts((fn,), norm_kind, tol)[0])


def _lip_parts(fns, norm_kind: str, tol: float = TAU_SA) -> np.ndarray:
    """lip_part of each of P functions on one space, bit for bit.

    Runs lip_part's row loop once over per-block stacks of shape
    (P, n, m, m), in O(P n) memory.  Under "real_max" a function made from
    channels is Hermitian by construction and is not checked; any other
    function is checked up front, and then every row is."""
    if norm_kind not in alg.NORM_KINDS:
        raise InputError("unknown norm kind %r" % (norm_kind,))
    if norm_kind == "real_max" and not all(fn.channels is not None or fn.is_self_adjoint(tol)
                                           for fn in fns):
        raise InputError("the real max norm applies to self-adjoint functions only")
    unchecked = norm_kind == "real_max" and all(fn.channels is not None for fn in fns)
    stacks = [np.stack(blocks) for blocks in zip(*(fn.stacks for fn in fns))]
    dist = fns[0].space.dist
    best = np.zeros(len(fns))
    for i in range(len(dist) - 1):
        diffs = [(s[:, i, None] - s[:, i + 1:]).reshape(-1, *s.shape[2:]) for s in stacks]
        if unchecked:
            norms = alg._real_max_norms(diffs)
        else:
            norms = stack_norms(diffs, norm_kind, tol)
        # fmax skips a NaN row maximum, as the one-function max(best, nan) did
        best = np.fmax(best, (norms.reshape(len(fns), -1) / dist[i, i + 1:]).max(axis=1))
    return best


def _scalar_distance(fn: MatrixFunction, norm_kind: str, tol: float) -> float:
    """scalar_distance of the function's stacks; under "real_max" a function
    made from channels is Hermitian by construction and is not checked."""
    hermitian = norm_kind == "real_max" and fn.channels is not None
    return float(alg._scalar_distances(fn.stacks, norm_kind, tol, pooled=True,
                                       hermitian=hermitian)[0])


def q_term(fn: MatrixFunction, spec: SeminormSpec, tol: float = TAU_SA) -> float:
    """The quotient-type part of the seminorm selected by the spec."""
    if spec.q_kind == "quotient_CX":
        return float(alg._scalar_distances(fn.stacks, spec.norm_kind, tol, pooled=False).max())

    if spec.q_kind == "quotient_C":
        return _scalar_distance(fn, spec.norm_kind, tol)

    if spec.q_kind == "state":
        m = evaluate(spec.state, fn)
        if spec.norm_kind == "real_max":
            if abs(m.imag) > tol:
                raise InputError("reference state value is not real; function must be self-adjoint")
            m = m.real
        shifted = [s - e for s, e in zip(fn.stacks, fn.algebra.scalar(m).blocks)]
        return float(stack_norms(shifted, spec.norm_kind, tol).max())

    # conv is the one-scalar quotient under the real max norm
    base = _scalar_distance(fn, "real_max", tol)
    if spec.q_kind == "conv":
        return base
    return (2.0 / spec.K) * base


def lipnorm(fn: MatrixFunction, spec: SeminormSpec, tol: float = TAU_SA) -> float:
    """Max of the Lipschitz part and the quotient-type part."""
    return _lipnorms((fn,), spec, tol)[0]


def _lipnorms(fns, spec: SeminormSpec, tol: float = TAU_SA) -> list[float]:
    """lipnorm of each of several functions on one space, bit for bit, with
    one batched Lipschitz part."""
    return [max(float(lip), q_term(fn, spec, tol))
            for lip, fn in zip(_lip_parts(fns, spec.norm_kind, tol), fns)]


def optimal_conv_shift(fn: MatrixFunction) -> float:
    """The real scalar attaining the pooled real max quotient term."""
    diags = np.concatenate([np.diagonal(s, axis1=1, axis2=2).real.ravel()
                            for s in fn.stacks])
    return 0.5 * (float(diags.max()) + float(diags.min()))


def classical_embed(space: FiniteMetricSpace, values, algebra: Algebra) -> MatrixFunction:
    """Embed a scalar function as scalar multiples of the identity."""
    vals = list(values)
    if len(vals) != space.size:
        raise InputError("need one scalar per point")
    return MatrixFunction(space, algebra, tuple(algebra.scalar(complex(v)) for v in vals))


def jordan_product(a: MatrixFunction, b: MatrixFunction) -> MatrixFunction:
    _check_compatible(a, b)
    return MatrixFunction(a.space, a.algebra,
                          tuple(alg.jordan(u, v) for u, v in zip(a.values, b.values)))


def lie_product(a: MatrixFunction, b: MatrixFunction) -> MatrixFunction:
    _check_compatible(a, b)
    return MatrixFunction(a.space, a.algebra,
                          tuple(alg.lie(u, v) for u, v in zip(a.values, b.values)))


def _check_compatible(a: MatrixFunction, b: MatrixFunction) -> None:
    if a.space.labels != b.space.labels or a.algebra.block_sizes != b.algebra.block_sizes:
        raise InputError("functions live on different spaces or algebras")


def default_leibniz_constants(spec: SeminormSpec, algebra: Algebra) -> tuple[float, float]:
    """The proven (C, D) pair for the spec's seminorm on this algebra."""
    ratio = {"operator": 1.0, "max": float(algebra.max_block),
             "real_max": math.sqrt(2.0) * algebra.max_block}[spec.norm_kind]
    if spec.q_kind in ("quotient_CX", "quotient_C"):
        return ratio, 0.0
    if spec.q_kind == "state":
        return max(ratio, 2.0), 0.0
    return math.sqrt(2.0) * algebra.max_block, 0.0


@dataclass(frozen=True)
class LeibnizReport:
    """Both sides of one product inequality check."""

    lhs: float
    rhs: float
    c_const: float
    d_const: float
    slack: float
    violated: bool


def quasi_leibniz_check(a: MatrixFunction, b: MatrixFunction, spec: SeminormSpec,
                        c_const: Optional[float] = None, d_const: Optional[float] = None,
                        slack_tol: float = 1e-9, tol: float = TAU_SA) -> LeibnizReport:
    """Check the product inequality for the Jordan and Lie products of a pair.

    Both products are formed pointwise, the seminorm of each is compared to
    C (|a| L(b) + |b| L(a)) + D L(a) L(b) with the C*-norm for the sizes,
    and the worst slack is reported.  Inputs must be self-adjoint.
    """
    if not (a.is_self_adjoint(tol) and b.is_self_adjoint(tol)):
        raise InputError("the product check applies to self-adjoint pairs")
    if c_const is None or d_const is None:
        c_default, d_default = default_leibniz_constants(spec, a.algebra)
        c_const = c_default if c_const is None else float(c_const)
        d_const = d_default if d_const is None else float(d_const)
    la, lb = lipnorm(a, spec, tol), lipnorm(b, spec, tol)
    na, nb = sup_norm(a, "operator"), sup_norm(b, "operator")
    lhs = max(lipnorm(jordan_product(a, b), spec, tol),
              lipnorm(lie_product(a, b), spec, tol))
    rhs = c_const * (na * lb + nb * la) + d_const * la * lb
    slack = rhs - lhs
    return LeibnizReport(lhs=lhs, rhs=rhs, c_const=c_const, d_const=d_const,
                         slack=slack, violated=slack < -slack_tol)
