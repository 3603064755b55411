"""Matrix-valued functions on finite metric spaces and their seminorm family.

Every seminorm is a max of two parts: a Lipschitz part, the worst normed
difference quotient over point pairs, and a quotient-type part selected by
the spec's q kind, which measures how far the function is from scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import compress
from typing import Optional

import numpy as np

from . import algebra as alg
from .algebra import Algebra, AlgElement, TAU_SA, _frozen, stack_norms
from .errors import InputError, UnsupportedSpec, _array, _real
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
        if not all(isinstance(v, AlgElement) and v.algebra.block_sizes == algebra.block_sizes
                   for v in values):
            raise InputError("each value must be an AlgElement of the algebra's block sizes")
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

    @cached_property
    def _value_defect(self) -> float:
        """Largest Hermitian defect (entry of |b - b^*|, NaN on a non-finite
        entry) of a value; exactly 0, at no cost, for a function made from
        channels."""
        if self.channels is not None:
            return 0.0
        return float(np.max([alg._hermitian_defect(s) for s in self.stacks]))

    @cached_property
    def hermitian_defects(self) -> tuple[float, float]:
        """Largest Hermitian defect of a value and of a difference of two
        values.  The second is 0 at no cost when the values are exactly
        Hermitian, as then is every difference.  Otherwise it is read from
        the differences of the Lipschitz row pass (_row_pass), the one place
        that decides it: a real_max Lipschitz part records it here from the
        pass that takes its norms, and a read before that runs the pass and
        keeps only the defect."""
        values = self._value_defect
        if values == 0.0:
            return values, 0.0
        return values, float(_row_pass((self,), "real_max", [True])[1][0])

    def is_self_adjoint(self, tol: float = TAU_SA) -> bool:
        return self._value_defect <= tol

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
        if not isinstance(data["values"], list):
            raise InputError("matrix function JSON needs a 'values' list")
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
    # finite channels make exactly Hermitian stacks (see hermitian_defects)
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
            object.__setattr__(self, "K", _real(self.K, "K", positive=True))
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


_NOT_SELF_ADJOINT = "the real max norm applies to self-adjoint functions only"


def _require_self_adjoint(fns, tol: float) -> None:
    """InputError unless each function's values are self-adjoint within tol."""
    if not all(fn._value_defect <= tol for fn in fns):
        raise InputError(_NOT_SELF_ADJOINT)


def sup_norm(fn: MatrixFunction, norm_kind: str = "operator", tol: float = TAU_SA) -> float:
    """Largest norm of any value; the C*-norm of the function when norm_kind is operator."""
    if norm_kind == "real_max":
        _require_self_adjoint((fn,), tol)
    return float(stack_norms(fn.stacks, norm_kind).max())


def lip_part(fn: MatrixFunction, norm_kind: str, tol: float = TAU_SA) -> float:
    """Worst normed difference quotient over unordered point pairs; 0 on one point.

    The one-function case of a batched kernel that takes one row of pairs
    (i against every j > i) at a time, in O(P n) memory for P functions."""
    return float(_lip_parts((fn,), norm_kind, tol)[0])


def _lip_parts(fns, norm_kind: str, tol: float = TAU_SA) -> np.ndarray:
    """lip_part of each of P functions on one space, bit for bit, from one
    row pass (_row_pass) in O(P n) memory, for every norm kind.

    Under "real_max" each function's values are checked up front.  The
    differences of a function made from values that are not exactly
    Hermitian are checked, once per function, from the same row pass that
    takes their norms, before this returns."""
    if norm_kind not in alg.NORM_KINDS:
        raise InputError("unknown norm kind %r" % (norm_kind,))
    if norm_kind != "real_max":
        return _row_pass(fns, norm_kind)[0]
    _require_self_adjoint(fns, tol)
    probe = [fn._value_defect != 0.0 and "hermitian_defects" not in vars(fn) for fn in fns]
    best, defects = _row_pass(fns, norm_kind, probe)
    for fn, defect in zip(compress(fns, probe), defects):
        fn._hold(hermitian_defects=(fn._value_defect, float(defect)))
    if not all(fn.hermitian_defects[1] <= tol for fn in fns):
        raise InputError(_NOT_SELF_ADJOINT)
    return best


def _row_pass(fns, norm_kind: str, probe=()) -> tuple[np.ndarray, np.ndarray]:
    """The Lipschitz part under norm_kind of each of P functions on one
    space, and the largest Hermitian defect of a difference of two values
    (NaN on a non-finite entry) of each function where probe is true, in
    order.

    Each block is read through one float view of shape (P, n, 2 m^2)
    (algebra._float_view).  A row of pairs, point i against every j > i,
    is one subtract per block on the views, which is the complex
    difference bit for bit.  "real_max" takes its abs and max in place.
    "operator", "max" and the probed defects read the same difference as
    complex (P, r, m, m) matrices, which only they build."""
    dist = fns[0].space.dist
    sizes = fns[0].algebra.block_sizes
    views = [alg._float_view(np.stack(blocks)) for blocks in zip(*(fn.stacks for fn in fns))]
    probed = np.flatnonzero(probe)
    best, worst = np.zeros(len(fns)), np.zeros(len(probed))
    for i in range(len(dist) - 1):
        diffs = [v[:, i, None] - v[:, i + 1:] for v in views]
        if probed.size or norm_kind != "real_max":
            mats = [d.view(complex).reshape(len(fns), -1, m, m) for m, d in zip(sizes, diffs)]
        if probed.size:
            for z in mats:
                worst = np.maximum(worst, alg._hermitian_defect(z[probed]).max(axis=1))
        if norm_kind == "real_max":
            norms = np.max([np.abs(d, out=d).max(axis=2) for d in diffs], axis=0)
        else:
            norms = stack_norms([z.reshape(-1, *z.shape[2:]) for z in mats],
                                norm_kind).reshape(len(fns), -1)
        # fmax skips a NaN row maximum, as the one-function max(best, nan) did
        best = np.fmax(best, (norms / dist[i, i + 1:]).max(axis=1))
    return best, worst


def q_term(fn: MatrixFunction, spec: SeminormSpec, tol: float = TAU_SA) -> float:
    """The quotient-type part of the seminorm selected by the spec."""
    # conv is the one-scalar quotient under the real max norm
    conv = spec.q_kind in ("conv", "conv_K")
    if conv or spec.norm_kind == "real_max":
        _require_self_adjoint((fn,), tol)
    if spec.q_kind == "state":
        m = evaluate(spec.state, fn)
        if spec.norm_kind == "real_max":
            if abs(m.imag) > tol:
                raise InputError("reference state value is not real; function must be self-adjoint")
            m = m.real
        shifted = [s - e for s, e in zip(fn.stacks, fn.algebra.scalar(m).blocks)]
        return float(stack_norms(shifted, spec.norm_kind).max())
    base = float(alg._scalar_distances(fn.stacks, "real_max" if conv else spec.norm_kind,
                                       tol, pooled=spec.q_kind != "quotient_CX").max())
    return (2.0 / spec.K) * base if spec.q_kind == "conv_K" else base


def lipnorm(fn: MatrixFunction, spec: SeminormSpec, tol: float = TAU_SA) -> float:
    """Max of the Lipschitz part and the quotient-type part."""
    return _lipnorms((fn,), spec, tol)[0]


def _lipnorms(fns, spec: SeminormSpec, tol: float = TAU_SA) -> list[float]:
    """lipnorm of each of several functions on one space, bit for bit, with
    one batched Lipschitz part."""
    return [max(float(lip), q_term(fn, spec, tol))
            for lip, fn in zip(_lip_parts(fns, spec.norm_kind, tol), fns)]


def classical_embed(space: FiniteMetricSpace, values, algebra: Algebra) -> MatrixFunction:
    """Embed a scalar function as scalar multiples of the identity."""
    vals = _array(values, "scalar values", complex)
    if vals.shape != (space.size,):
        raise InputError("need one scalar per point")
    return MatrixFunction(space, algebra, tuple(algebra.scalar(v) for v in vals))


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
    c_default, d_default = default_leibniz_constants(spec, a.algebra)
    c_const = c_default if c_const is None else _real(c_const, "c_const", nonnegative=True)
    d_const = d_default if d_const is None else _real(d_const, "d_const", nonnegative=True)
    slack_tol = _real(slack_tol, "slack_tol", nonnegative=True)
    la, lb = lipnorm(a, spec, tol), lipnorm(b, spec, tol)
    na, nb = sup_norm(a, "operator"), sup_norm(b, "operator")
    lhs = max(lipnorm(jordan_product(a, b), spec, tol),
              lipnorm(lie_product(a, b), spec, tol))
    rhs = c_const * (na * lb + nb * la) + d_const * la * lb
    slack = rhs - lhs
    return LeibnizReport(lhs=lhs, rhs=rhs, c_const=c_const, d_const=d_const,
                         slack=slack, violated=slack < -slack_tol)
