"""Finite direct sums of complex matrix blocks: elements, norms, and states.

An algebra here is always a finite direct sum of full matrix algebras over
the complex numbers, described by its list of block sizes.  Elements carry
one square complex matrix per block.  Three norms are provided: the C*-norm
(largest singular value), the entrywise max-modulus norm, and the real max
norm on self-adjoint elements.  The real max norm is the abs-max of the float
view of the blocks: viewed as floats, a complex (k, m, m) stack is a
(k, 2 m^2) array that holds the Re and Im of each entry side by side, and an
element's norm is the largest |x| over its row of every block.

Norms and distances to scalars are computed on per-block stacks of shape
(k, m, m), so one call covers many elements: stack_norms gives each
element's norm and scalar_distance the distance from all of them to one
common scalar.  The per-element functions are one-element stacks.  The
C*-norm and the spectral spread come from LAPACK through numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, _array, _integer, _real

TAU_SA = 1e-9     # self-adjointness slack
TAU_STATE = 1e-8  # state validity slack

NORM_KINDS = ("operator", "max", "real_max")


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Algebra:
    """A direct sum of full complex matrix algebras, one block per size."""

    block_sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(_integer(m, "block size", 1) for m in self.block_sizes)
        if not sizes:
            raise InputError("an algebra needs at least one block")
        object.__setattr__(self, "block_sizes", sizes)

    @property
    def n_blocks(self) -> int:
        return len(self.block_sizes)

    @property
    def max_block(self) -> int:
        """Largest block size; controls every norm-equivalence constant."""
        return max(self.block_sizes)

    def identity(self) -> "AlgElement":
        return AlgElement(self, tuple(np.eye(m, dtype=complex) for m in self.block_sizes))

    def zero(self) -> "AlgElement":
        return AlgElement(self, tuple(np.zeros((m, m), dtype=complex) for m in self.block_sizes))

    def scalar(self, lam: complex) -> "AlgElement":
        """The element lam times the identity in every block."""
        return AlgElement(self, tuple(lam * np.eye(m, dtype=complex) for m in self.block_sizes))

    def to_json_dict(self) -> dict:
        return {"blocks": list(self.block_sizes)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Algebra":
        if not isinstance(data, dict) or not isinstance(data.get("blocks"), list):
            raise InputError("algebra JSON must be an object with a 'blocks' list")
        return cls(tuple(data["blocks"]))


def _matrix_to_json(mat: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat, dtype=complex)]


def _matrix_from_json(rows) -> np.ndarray:
    try:
        arr = np.array([[complex(entry[0], entry[1]) for entry in row] for row in rows])
    except (TypeError, IndexError) as exc:
        raise InputError("matrix JSON must be rows of [re, im] pairs") from exc
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InputError("matrix JSON must be square, got shape %r" % (arr.shape,))
    return arr


@dataclass(frozen=True, eq=False)
class AlgElement:
    """One square complex matrix per block of an Algebra."""

    algebra: Algebra
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        sizes = self.algebra.block_sizes
        if len(self.blocks) != len(sizes):
            raise InputError(
                "element has %d blocks, algebra has %d" % (len(self.blocks), len(sizes)))
        mats = []
        for m, blk in zip(sizes, self.blocks):
            arr = _array(blk, "block", complex)
            if arr.shape != (m, m):
                raise InputError("block must be %dx%d, got %r" % (m, m, arr.shape))
            mats.append(_frozen(arr))
        object.__setattr__(self, "blocks", tuple(mats))

    def adjoint(self) -> "AlgElement":
        return AlgElement(self.algebra, tuple(b.conj().T for b in self.blocks))

    def is_self_adjoint(self, tol: float = TAU_SA) -> bool:
        return all(np.abs(b - b.conj().T).max() <= tol for b in self.blocks)

    def __add__(self, other: "AlgElement") -> "AlgElement":
        _check_same_algebra(self, other)
        return AlgElement(self.algebra, tuple(a + b for a, b in zip(self.blocks, other.blocks)))

    def __sub__(self, other: "AlgElement") -> "AlgElement":
        _check_same_algebra(self, other)
        return AlgElement(self.algebra, tuple(a - b for a, b in zip(self.blocks, other.blocks)))

    def __neg__(self) -> "AlgElement":
        return AlgElement(self.algebra, tuple(-b for b in self.blocks))

    def __matmul__(self, other: "AlgElement") -> "AlgElement":
        _check_same_algebra(self, other)
        return AlgElement(self.algebra, tuple(a @ b for a, b in zip(self.blocks, other.blocks)))

    def scaled(self, lam: complex) -> "AlgElement":
        return AlgElement(self.algebra, tuple(lam * b for b in self.blocks))

    def to_json_dict(self) -> list:
        return [_matrix_to_json(b) for b in self.blocks]

    @classmethod
    def from_json_dict(cls, algebra: Algebra, data) -> "AlgElement":
        if not isinstance(data, list):
            raise InputError("element JSON must be a list of block matrices")
        return cls(algebra, tuple(_matrix_from_json(b) for b in data))


def _check_same_algebra(a: AlgElement, b: AlgElement) -> None:
    if a.algebra.block_sizes != b.algebra.block_sizes:
        raise InputError("elements belong to different algebras")


def jordan(a: AlgElement, b: AlgElement) -> AlgElement:
    """Jordan product (ab + ba)/2; self-adjoint whenever a and b are."""
    return (a @ b + b @ a).scaled(0.5)


def lie(a: AlgElement, b: AlgElement) -> AlgElement:
    """Lie product (ab - ba)/(2i); self-adjoint whenever a and b are."""
    return (a @ b - b @ a).scaled(-0.5j)


def matrix_unit(algebra: Algebra, k: int, p: int, q: int) -> AlgElement:
    """The element with a single 1 at row p, column q of block k.

    Blocks are indexed from 0 and entries from 1, so p and q run from 1 to
    the size of block k.
    """
    k = _integer(k, "block index", 0, algebra.n_blocks)
    m = algebra.block_sizes[k]
    p, q = _integer(p, "row p", 1, m + 1), _integer(q, "column q", 1, m + 1)
    blocks = [np.zeros((s, s), dtype=complex) for s in algebra.block_sizes]
    blocks[k][p - 1, q - 1] = 1.0
    return AlgElement(algebra, tuple(blocks))


def _hermitian_defect(stack: np.ndarray) -> np.ndarray:
    """Largest entry of |b - b^*| for each matrix b of a (..., m, m) stack."""
    return np.abs(stack - stack.conj().swapaxes(-1, -2)).max(axis=(-2, -1))


def _require_self_adjoint(stacks, tol: float) -> None:
    if not all((_hermitian_defect(s) <= tol).all() for s in stacks):
        raise InputError("operation needs a self-adjoint element")


def _require_finite(stacks, norm_kind: str) -> None:
    # LAPACK does not converge on NaN or inf, and max() may skip a NaN
    if not all(np.isfinite(s).all() for s in stacks):
        raise InputError("the %s norm needs finite entries" % norm_kind)


def _float_view(stack) -> np.ndarray:
    """The float view of a complex stack of shape (..., m, m): shape
    (..., 2 m^2), the Re and Im of each entry side by side, in row-major
    order.  No copy for a C-contiguous complex stack; any other stack is
    copied to one first.  Complex arithmetic on the view is entry by entry,
    so a difference of two views is the view of the difference, bit for bit.
    """
    s = np.ascontiguousarray(stack, dtype=complex)
    return s.reshape(s.shape[:-2] + (s.shape[-2] * s.shape[-1],)).view(float)


def _real_diagonal(m: int) -> slice:
    """The slots of the real diagonal entries in a float view of m x m blocks."""
    return slice(None, None, 2 * (m + 1))


def stack_norms(stacks, norm_kind: str) -> np.ndarray:
    """Norm of each element held as per-block stacks of shape (k, m, m).

    "operator" and "max" raise InputError on NaN or inf entries.
    "real_max" is the abs-max of each element's row of the float views
    (_float_view), NaN when that row holds a NaN.  It checks nothing: its
    callers hand it stacks that are self-adjoint, checked once per element
    or function, or Hermitian by construction.
    """
    if norm_kind in ("operator", "max"):
        _require_finite(stacks, norm_kind)
    if norm_kind == "operator":
        return np.max([np.linalg.norm(s, 2, axis=(1, 2)) for s in stacks], axis=0)
    if norm_kind == "max":
        return np.max([np.abs(s).max(axis=(1, 2)) for s in stacks], axis=0)
    if norm_kind != "real_max":
        raise InputError("unknown norm kind %r" % (norm_kind,))
    return np.max([np.abs(_float_view(s)).max(axis=1) for s in stacks], axis=0)


def _one(a: AlgElement) -> tuple:
    return tuple(b[None] for b in a.blocks)


def op_norm(a: AlgElement) -> float:
    """C*-norm: the largest singular value over all blocks."""
    return float(stack_norms(_one(a), "operator")[0])


def max_norm(a: AlgElement) -> float:
    """Largest modulus of any entry in any block."""
    return float(stack_norms(_one(a), "max")[0])


def real_max_norm(a: AlgElement, tol: float = TAU_SA) -> float:
    """Largest of |Re| and |Im| over all entries; a norm on self-adjoint elements only."""
    _require_self_adjoint(_one(a), tol)
    return float(stack_norms(_one(a), "real_max")[0])


def _circumcentre(z1: complex, z2: complex, z3: complex):
    ax, ay = (z2 - z1).real, (z2 - z1).imag
    bx, by = (z3 - z1).real, (z3 - z1).imag
    det = 2.0 * (ax * by - ay * bx)
    scale = max(abs(ax) + abs(ay), abs(bx) + abs(by), 1e-300)
    if abs(det) <= 1e-14 * scale * scale:
        return None
    r1 = ax * ax + ay * ay
    r2 = bx * bx + by * by
    cx = (by * r1 - ay * r2) / det
    cy = (ax * r2 - bx * r1) / det
    return z1 + complex(cx, cy)


def min_enclosing_radius(points) -> tuple[float, complex]:
    """Radius and centre of the smallest circle containing the given points.

    The optimal centre is a midpoint of two points or the circumcentre of
    three, so all such candidates are enumerated and the one whose maximal
    distance to the set is smallest wins: O(k^3) candidates for k distinct
    points, each checked against all k.  q_term pools n * sum(m) entries.
    """
    zs = np.unique(np.asarray(points, dtype=complex).ravel())
    if zs.size == 0:
        raise InputError("enclosing circle of an empty point set")
    if zs.size == 1:
        return 0.0, complex(zs[0])
    cands = []
    n = zs.size
    for i in range(n):
        for j in range(i + 1, n):
            cands.append(0.5 * (zs[i] + zs[j]))
            for k in range(j + 1, n):
                c = _circumcentre(zs[i], zs[j], zs[k])
                if c is not None:
                    cands.append(c)
    best_r, best_c = math.inf, 0j
    for c in cands:
        r = float(np.abs(zs - c).max())
        if r < best_r:
            best_r, best_c = r, c
    return best_r, complex(best_c)


def scalar_distance(stacks, norm_kind: str, tol: float = TAU_SA) -> float:
    """Distance from all the elements in per-block (k, m, m) stacks to one common scalar.

    Kind "operator" is half the spread of the joint spectrum and needs
    self-adjoint, finite input.  The entrywise kinds split each element
    into the part a scalar can move and the rest, whose norm is a floor:
    "max" moves the complex diagonal, whose cost is the smallest circle
    enclosing all diagonal entries, and needs finite input; "real_max"
    moves the real diagonal, whose cost is half its spread, and needs
    self-adjoint input.
    """
    if norm_kind == "real_max":
        _require_self_adjoint(stacks, tol)
    return float(_scalar_distances(stacks, norm_kind, tol, pooled=True)[0])


def _scalar_distances(stacks, norm_kind, tol, pooled):
    """Without pooling, each element's distance to the scalars (entry i is
    scalar_distance of element i alone, bit for bit); pooled, one entry.
    "real_max" checks nothing (see stack_norms)."""
    rows = 1 if pooled else len(stacks[0])
    if norm_kind in ("operator", "max"):
        _require_finite(stacks, norm_kind)
    if norm_kind == "operator":
        _require_self_adjoint(stacks, tol)
        evs = np.concatenate([np.linalg.eigvalsh(0.5 * (s + s.conj().swapaxes(1, 2)))
                              for s in stacks], axis=1).reshape(rows, -1)
        return 0.5 * (evs.max(axis=1) - evs.min(axis=1))
    if norm_kind == "real_max":
        # the scalar moves the real diagonal slots of the float views; the
        # rest is the abs-max of every other slot
        views = [_float_view(s) for s in stacks]
        diags = [v[:, _real_diagonal(s.shape[1])] for s, v in zip(stacks, views)]
        pool = np.concatenate(diags, axis=1).reshape(rows, -1)
        moved = 0.5 * (pool.max(axis=1) - pool.min(axis=1))
        rest = []
        for s, v in zip(stacks, views):
            mags = np.abs(v)
            mags[:, _real_diagonal(s.shape[1])] = 0.0
            rest.append(mags.max(axis=1))
        rest = np.max(rest, axis=0)
    elif norm_kind == "max":
        diags = [np.diagonal(s, axis1=1, axis2=2) for s in stacks]
        moved = [min_enclosing_radius(z)[0]
                 for z in np.concatenate(diags, axis=1).reshape(rows, -1)]
        rest = stack_norms([s - d[:, :, None] * np.eye(s.shape[1])
                            for s, d in zip(stacks, diags)], norm_kind)
    else:
        raise InputError("unknown norm kind %r" % (norm_kind,))
    return np.maximum(rest.max(keepdims=True) if pooled else rest, moved)


@dataclass(frozen=True, eq=False)
class AlgState:
    """A state given by finite block weights plus one density matrix per
    block, checked with slack TAU_STATE."""

    weights: tuple[float, ...]
    densities: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not np.iterable(self.weights):
            raise InputError("block weights must be a sequence, got %r" % (self.weights,))
        w = tuple(_real(t, "block weights") for t in self.weights)
        if not w:
            raise InputError("a state needs at least one block")
        if len(w) != len(self.densities):
            raise InputError("need one density per block weight")
        if min(w) < -TAU_STATE:
            raise InputError("block weights must be nonnegative")
        if abs(sum(w) - 1.0) > TAU_STATE:
            raise InputError("block weights must sum to 1, got %.12g" % sum(w))
        mats = []
        for rho in self.densities:
            arr = _array(rho, "densities", complex)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise InputError("densities must be square matrices")
            if not np.isfinite(arr).all():
                raise InputError("densities must have finite entries")
            if np.abs(arr - arr.conj().T).max() > TAU_STATE:
                raise InputError("densities must be Hermitian")
            if abs(np.trace(arr) - 1.0) > TAU_STATE:
                raise InputError("densities must have trace 1")
            smallest = np.linalg.eigvalsh(0.5 * (arr + arr.conj().T))[0]
            if float(smallest) < -TAU_STATE:
                raise InputError("densities must be positive semidefinite")
            mats.append(_frozen(arr))
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "densities", tuple(mats))

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(rho.shape[0] for rho in self.densities)

    def to_json_dict(self) -> dict:
        return {
            "weights": [float(t) for t in self.weights],
            "densities": [_matrix_to_json(rho) for rho in self.densities],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "AlgState":
        if not (isinstance(data, dict) and isinstance(data.get("weights"), list)
                and isinstance(data.get("densities"), list)):
            raise InputError("state JSON must carry 'weights' and 'densities' lists")
        return cls(tuple(data["weights"]), tuple(_matrix_from_json(m) for m in data["densities"]))


def tracial_state(algebra: Algebra, v) -> AlgState:
    """The block-weighted normalised trace with weight vector v."""
    densities = tuple(np.eye(m, dtype=complex) / m for m in algebra.block_sizes)
    return AlgState(v, densities)


def vector_state(algebra: Algebra, k: int, vec) -> AlgState:
    """The pure state living on block k given by a unit vector."""
    k = _integer(k, "block index", 0, algebra.n_blocks)
    v = _array(vec, "vector", complex).ravel()
    m = algebra.block_sizes[k]
    if v.size != m:
        raise InputError("vector length %d does not match block size %d" % (v.size, m))
    nrm = float(np.linalg.norm(v))
    if nrm <= 0.0:
        raise InputError("vector state needs a nonzero vector")
    v = v / nrm
    weights = tuple(1.0 if i == k else 0.0 for i in range(algebra.n_blocks))
    densities = []
    for i, m_i in enumerate(algebra.block_sizes):
        if i == k:
            densities.append(np.outer(v, v.conj()))
        else:
            densities.append(np.eye(m_i, dtype=complex) / m_i)
    return AlgState(weights, tuple(densities))


def check_state_shapes(phi: AlgState, algebra: Algebra) -> None:
    if phi.block_sizes() != algebra.block_sizes:
        raise InputError("state block sizes %r do not match algebra %r"
                         % (phi.block_sizes(), algebra.block_sizes))


def apply_state(phi: AlgState, a: AlgElement) -> complex:
    """Evaluate a state on an element by the weighted trace pairing."""
    check_state_shapes(phi, a.algebra)
    total = 0j
    for t, rho, blk in zip(phi.weights, phi.densities, a.blocks):
        total += t * np.trace(rho @ blk)
    return complex(total)


def matrix_unit_l1(phi: AlgState) -> float:
    """Sum of the moduli of the state's values on every matrix unit.

    Evaluating on the unit at (p, q) of block k reads the (q, p) entry of
    that block's density, so the sum is the weighted entrywise l1 mass of
    the densities.  It is exactly 1 for every tracial state.
    """
    return float(sum(t * np.abs(rho).sum() for t, rho in zip(phi.weights, phi.densities)))
