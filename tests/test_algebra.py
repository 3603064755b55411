import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import dist_to_scalars, random_element, random_sa_element
from oracles import (
    entrywise_real_max,
    entrywise_real_max_to_scalars,
    hermitian_eigenvalues,
    jacobi_op_norm,
    scan_scalar_distance,
)
from qmetric import algebra as alg_mod
from qmetric.algebra import (
    Algebra,
    AlgElement,
    AlgState,
    apply_state,
    jordan,
    lie,
    matrix_unit,
    matrix_unit_l1,
    max_norm,
    min_enclosing_radius,
    op_norm,
    real_max_norm,
    TAU_SA,
    scalar_distance,
    stack_norms,
    tracial_state,
    vector_state,
)
from qmetric.errors import InputError
from qmetric.generate import random_alg_state

ROOT2 = np.sqrt(2.0)


def _random_algebra(rng, max_blocks=3, max_block=4):
    n = int(rng.integers(1, max_blocks + 1))
    return Algebra(tuple(int(b) for b in rng.integers(1, max_block + 1, size=n)))


def _rm_of_blocks(bls):
    out = 0.0
    for b in bls:
        out = max(out, abs(np.diag(b).real).max())
        if b.shape[0] > 1:
            off = b - np.diag(np.diag(b))
            out = max(out, abs(off.real).max(), abs(off.imag).max())
    return out


# ----------------------------------------------------------------- algebra

def test_algebra_basics():
    alg = Algebra((2, 3))
    assert alg.n_blocks == 2
    assert alg.max_block == 3
    ident = alg.identity()
    for blk, m in zip(ident.blocks, (2, 3)):
        assert np.array_equal(blk, np.eye(m))
    assert op_norm(alg.zero()) == 0.0
    lam = alg.scalar(1.5 - 0.5j)
    assert lam.blocks[1][2, 2] == 1.5 - 0.5j


@pytest.mark.parametrize("blocks", [(), (0,), (-1, 2), (2.5,)])
def test_algebra_rejects_bad_blocks(blocks):
    with pytest.raises((InputError, TypeError)):
        Algebra(tuple(blocks))


def test_algebra_json_round_trip():
    alg = Algebra((1, 4, 2))
    assert Algebra.from_json_dict(alg.to_json_dict()) == alg


def test_element_shape_mismatch_rejected():
    alg = Algebra((2, 2))
    with pytest.raises(InputError):
        AlgElement(alg, (np.eye(2), np.eye(3)))


def test_element_arithmetic(rng):
    alg = Algebra((2, 3))
    a = random_element(alg, rng)
    b = random_element(alg, rng)
    s = a + b.scaled(-2.0)
    for blk, x, y in zip(s.blocks, a.blocks, b.blocks):
        assert np.allclose(blk, x - 2.0 * y)
    prod = a @ b
    for blk, x, y in zip(prod.blocks, a.blocks, b.blocks):
        assert np.allclose(blk, x @ y)


def test_adjoint_is_an_involution(rng):
    alg = Algebra((3,))
    a = random_element(alg, rng)
    again = a.adjoint().adjoint()
    assert all(np.array_equal(x, y) for x, y in zip(a.blocks, again.blocks))
    assert not a.is_self_adjoint()
    assert (a + a.adjoint()).is_self_adjoint()


def test_jordan_and_lie_products_stay_self_adjoint(rng):
    alg = Algebra((2, 3))
    for _ in range(20):
        a = random_sa_element(alg, rng)
        b = random_sa_element(alg, rng)
        assert jordan(a, b).is_self_adjoint()
        assert lie(a, b).is_self_adjoint()
    # jordan is commutative, lie is anticommutative
    j1, j2 = jordan(a, b), jordan(b, a)
    assert all(np.allclose(x, y) for x, y in zip(j1.blocks, j2.blocks))
    l1, l2 = lie(a, b), lie(b, a)
    assert all(np.allclose(x, -y) for x, y in zip(l1.blocks, l2.blocks))


def test_matrix_units_span_and_pair_against_states():
    alg = Algebra((2,))
    e = matrix_unit(alg, 0, 1, 2)
    assert e.blocks[0][0, 1] == 1.0
    assert np.count_nonzero(e.blocks[0]) == 1
    with pytest.raises(InputError):
        matrix_unit(alg, 1, 1, 1)
    with pytest.raises(InputError):
        matrix_unit(alg, 0, 0, 1)


def test_element_json_round_trip(rng):
    alg = Algebra((2, 1))
    a = random_element(alg, rng)
    back = AlgElement.from_json_dict(alg, a.to_json_dict())
    assert all(np.array_equal(x, y) for x, y in zip(a.blocks, back.blocks))


# ------------------------------------------------------------ eigensolver
# The Jacobi solver is the oracle for the package's LAPACK-based norms; these
# tests keep it honest against LAPACK itself.

def test_eigenvalues_against_lapack(rng):
    """The cyclic Jacobi sweep must agree with LAPACK across sizes and scales."""
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        scale = 10.0 ** rng.integers(-3, 4)
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = (g + g.conj().T) * (scale / 2.0)
        got = hermitian_eigenvalues(h)
        ref = np.linalg.eigvalsh(h)
        denom = max(1.0, float(np.abs(ref).max()))
        worst = max(worst, float(np.abs(np.sort(got) - ref).max()) / denom)
    assert worst < 1e-10


def test_eigenvalues_of_known_matrices():
    assert hermitian_eigenvalues(np.array([[2.0]])) == pytest.approx([2.0])
    h = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert sorted(hermitian_eigenvalues(h)) == pytest.approx([-1.0, 1.0])
    assert np.allclose(sorted(hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0]))),
                       [1.0, 2.0, 3.0])
    # subnormal scale: the unit-scale step must not overflow
    tiny = np.array([[2.0, 1.0 + 1.0j], [1.0 - 1.0j, 3.0]]) * 1e-310
    assert np.allclose(hermitian_eigenvalues(tiny) / 1e-310, [1.0, 4.0],
                       rtol=1e-9, atol=0.0)


def test_eigenvalues_reject_non_square_and_non_hermitian():
    with pytest.raises(InputError):
        hermitian_eigenvalues(np.ones((2, 3)))
    with pytest.raises(InputError):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ----------------------------------------------------------------- norms

def test_operator_norm_against_lapack(rng):
    alg = Algebra((3, 2))
    for _ in range(50):
        a = random_element(alg, rng)
        ref = max(np.linalg.norm(np.asarray(b), 2) for b in a.blocks)
        assert op_norm(a) == pytest.approx(ref, abs=1e-10)


def test_operator_norm_against_jacobi(rng):
    """LAPACK's SVD against the independent Jacobi eigensolver on b^* b."""
    for _ in range(60):
        alg = _random_algebra(rng)
        a = random_element(alg, rng).scaled(10.0 ** rng.integers(-3, 4))
        ref = jacobi_op_norm(a.blocks)
        assert op_norm(a) == pytest.approx(ref, rel=1e-10, abs=0.0)


def test_operator_paths_reject_non_finite_entries():
    alg = Algebra((2,))
    for bad in (np.nan, np.inf):
        a = AlgElement(alg, (np.array([[bad, 0.0], [0.0, 1.0]]),))
        with pytest.raises(InputError, match="finite"):
            op_norm(a)
        with pytest.raises(InputError, match="finite"):
            dist_to_scalars(a, "operator")


def test_entrywise_norms():
    alg = Algebra((2,))
    a = AlgElement(alg, (np.array([[1.0, 3.0 + 4.0j], [3.0 - 4.0j, -2.0]]),))
    assert max_norm(a) == 5.0
    # off-diagonal real and imaginary parts are separate coordinates
    assert real_max_norm(a) == 4.0
    with pytest.raises(InputError):
        real_max_norm(AlgElement(alg, (np.array([[0.0, 1.0], [0.0, 0.0]]),)))


def test_norm_sandwiches(rng):
    """Entrywise, operator, and real-part norms bound one another."""
    for _ in range(100):
        alg = _random_algebra(rng)
        m_a = alg.max_block
        a = random_element(alg, rng)
        opn, maxn = op_norm(a), max_norm(a)
        assert maxn <= opn + 1e-12
        assert opn <= m_a * maxn + 1e-12
        s = random_sa_element(alg, rng)
        opn, maxn, rmn = op_norm(s), max_norm(s), real_max_norm(s)
        assert rmn <= maxn + 1e-12
        assert maxn <= ROOT2 * rmn + 1e-12
        assert opn <= ROOT2 * m_a * rmn + 1e-12


def _complex_stacks(rng, sizes, k):
    """Per-block (k, m, m) stacks with entries across twelve orders of
    magnitude, some of them -0.0."""
    stacks = []
    for m in sizes:
        z = (rng.normal(size=(k, m, m)) + 1j * rng.normal(size=(k, m, m))) \
            * 10.0 ** rng.uniform(-6, 6, size=(k, 1, 1))
        z[rng.random(size=z.shape) < 0.1] = complex(-0.0, -0.0)
        stacks.append(z)
    return stacks


def test_float_view_holds_re_and_im_side_by_side(rng):
    s = _complex_stacks(rng, (3,), 4)[0]
    view = alg_mod._float_view(s)
    assert view.shape == (4, 18) and np.shares_memory(view, s)
    for k, p, q in ((0, 0, 0), (1, 2, 1), (3, 1, 2)):
        assert view[k, 2 * (3 * p + q)] == s[k, p, q].real
        assert view[k, 2 * (3 * p + q) + 1] == s[k, p, q].imag
    assert (view[:, alg_mod._real_diagonal(3)] == np.diagonal(s, axis1=1, axis2=2).real).all()
    assert alg_mod._float_view(np.zeros((0, 3, 3), dtype=complex)).shape == (0, 18)


@pytest.mark.parametrize("sizes", [(1,), (2,), (2, 3), (4, 1, 3)])
@pytest.mark.parametrize("k", [0, 1, 5])
def test_real_max_norms_equal_the_entrywise_oracle(rng, sizes, k):
    """The abs-max of the float views is max(|Re|, |Im|) over the entries,
    bit for bit, for empty, transposed (not contiguous), strided and real
    stacks."""
    stacks = _complex_stacks(rng, sizes, k)
    for form in (stacks, [s.swapaxes(1, 2) for s in stacks],
                 [np.concatenate([s, s])[::2] for s in stacks],
                 [s.real for s in stacks]):
        got = stack_norms(form, "real_max")
        want = entrywise_real_max([np.asarray(s, dtype=complex) for s in form])
        assert got.shape == (k,) and got.tobytes() == want.tobytes()


def test_real_max_norms_of_non_finite_entries(rng):
    """An element with a NaN entry, in its Re or Im, has a NaN norm and one
    with an infinite entry an infinite norm; the others keep theirs."""
    for bad, part in ((np.nan, "real"), (np.nan, "imag"), (np.inf, "real"), (-np.inf, "imag")):
        stacks = _complex_stacks(rng, (2, 3), 4)
        getattr(stacks[1], part)[2, 2, 0] = bad
        got = stack_norms(stacks, "real_max")
        want = entrywise_real_max(stacks)
        assert np.isnan(got[2]) == np.isnan(bad) and (np.isinf(got[2]) == np.isinf(bad))
        assert np.array_equal(got, want, equal_nan=True)


def _nearly_hermitian_stacks(rng, sizes, k):
    """Self-adjoint stacks plus a defect of up to TAU_SA / 4 in each part of
    the lower triangle and the imaginary diagonal, at or above the scale of
    the self-adjoint part, so that each kind of slot is at times the
    largest."""
    stacks = []
    for m in sizes:
        z = rng.normal(size=(k, m, m)) + 1j * rng.normal(size=(k, m, m))
        s = 10.0 ** rng.uniform(-12, -9) * (z + z.conj().swapaxes(1, 2))
        e = rng.uniform(-0.25, 0.25, size=(2, k, m, m)) * TAU_SA
        s += np.tril(e[0] + 1j * e[1], -1) + 1j * e[1] * np.eye(m)
        stacks.append(s)
    return stacks


@pytest.mark.parametrize("sizes", [(1,), (2,), (2, 3)])
def test_real_max_distance_to_scalars_reads_every_slot_but_the_real_diagonal(rng, sizes):
    for k in (1, 2, 6):
        stacks = _nearly_hermitian_stacks(rng, sizes, k)
        for pooled in (True, False):
            got = alg_mod._scalar_distances(stacks, "real_max", TAU_SA, pooled)
            want = entrywise_real_max_to_scalars(stacks, pooled)
            assert got.tobytes() == want.tobytes()
        assert scalar_distance(stacks, "real_max") == entrywise_real_max_to_scalars(stacks, True)[0]


def test_min_enclosing_radius_known_cases():
    r, c = min_enclosing_radius([1.0])
    assert (r, c) == (0.0, 1.0 + 0.0j)
    r, c = min_enclosing_radius([0.0, 2.0])
    assert r == pytest.approx(1.0) and c == pytest.approx(1.0 + 0.0j)
    # equilateral triangle: circumradius side/sqrt(3)
    pts = [np.exp(2j * np.pi * k / 3) for k in range(3)]
    r, c = min_enclosing_radius(pts)
    assert r == pytest.approx(1.0, abs=1e-12)
    assert abs(c) < 1e-12


def test_min_enclosing_radius_against_scan(rng):
    for _ in range(20):
        pts = rng.normal(size=4) + 1j * rng.normal(size=4)
        r, _ = min_enclosing_radius(pts)
        ref = scan_scalar_distance([np.diag(pts)],
                                   lambda bls: max(np.abs(np.diag(b)).max() for b in bls),
                                   real_only=False, radius=4.0)
        assert r == pytest.approx(ref, abs=1e-9)


def test_dist_to_scalars_against_scan(rng):
    """Every closed form must match a direct search over candidate scalars."""
    for trial in range(15):
        alg = _random_algebra(rng)
        sa = random_sa_element(alg, rng)
        got = dist_to_scalars(sa, "operator")
        ref = scan_scalar_distance(
            [np.asarray(b) for b in sa.blocks],
            lambda bls: max(np.linalg.norm(b, 2) for b in bls),
            real_only=False, radius=2 * max_norm(sa) + 1)
        assert got == pytest.approx(ref, abs=1e-9)

        gen = random_element(alg, rng)
        got = dist_to_scalars(gen, "max")
        ref = scan_scalar_distance(
            [np.asarray(b) for b in gen.blocks],
            lambda bls: max(np.abs(b).max() for b in bls),
            real_only=False, radius=2 * max_norm(gen) + 1)
        assert got == pytest.approx(ref, abs=1e-9)

        got = dist_to_scalars(sa, "real_max")
        ref = scan_scalar_distance(
            [np.asarray(b) for b in sa.blocks], _rm_of_blocks,
            real_only=True, radius=2 * max_norm(sa) + 1)
        assert got == pytest.approx(ref, abs=1e-9)


def test_real_max_scalar_distance_rejects_non_self_adjoint_stacks():
    stacks = (np.array([[[1.0, 2.0], [2.0, -1.0]], [[0.0, 1.0], [0.0, 0.0]]]),)
    with pytest.raises(InputError, match="self-adjoint"):
        scalar_distance(stacks, "real_max")
    assert scalar_distance((stacks[0][:1],), "real_max") == 2.0


def test_dist_to_scalars_vanishes_on_scalars():
    alg = Algebra((2, 3))
    lam = alg.scalar(0.7)
    for kind in ("operator", "max", "real_max"):
        assert dist_to_scalars(lam, kind) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(lam=st.floats(-5.0, 5.0), seed=st.integers(0, 2 ** 16))
def test_dist_to_scalars_shift_invariance(lam, seed):
    rng = np.random.default_rng(seed)
    alg = Algebra((2, 2))
    a = random_sa_element(alg, rng)
    shifted = a + alg.scalar(lam)
    for kind in ("operator", "max", "real_max"):
        assert dist_to_scalars(shifted, kind) == pytest.approx(
            dist_to_scalars(a, kind), abs=1e-9)


# ----------------------------------------------------------------- states

def test_state_validation_rejects_bad_inputs():
    alg = Algebra((2,))
    with pytest.raises(InputError):
        AlgState((1.0,), (np.array([[2.0, 0.0], [0.0, -1.0]]),))  # not psd
    with pytest.raises(InputError):
        AlgState((1.0,), (np.eye(2),))  # trace 2
    with pytest.raises(InputError):
        AlgState((0.5, 0.4), (np.eye(2) / 2, np.eye(2) / 2))  # weights sum .9
    with pytest.raises(InputError):
        AlgState((1.0,), (np.array([[0.5, 0.5], [0.0, 0.5]]),))  # not hermitian
    with pytest.raises(InputError, match="finite"):
        AlgState((1.0,), (np.array([[np.nan, 0.0], [0.0, 1.0]]),))
    with pytest.raises(InputError, match="block weights must be finite"):
        AlgState((np.nan, 1.0), (np.eye(2) / 2, np.eye(2) / 2))


def test_apply_state_is_linear_and_unital(rng):
    alg = Algebra((2, 3))
    phi = random_alg_state(alg, rng)
    a = random_element(alg, rng)
    b = random_element(alg, rng)
    lhs = apply_state(phi, a + b.scaled(2.5))
    rhs = apply_state(phi, a) + 2.5 * apply_state(phi, b)
    assert lhs == pytest.approx(rhs, abs=1e-12)
    assert apply_state(phi, alg.identity()) == pytest.approx(1.0, abs=1e-12)


def test_tracial_state_is_the_normalized_trace(rng):
    alg = Algebra((2, 3))
    tr = tracial_state(alg, np.array([0.25, 0.75]))
    a = random_element(alg, rng)
    ref = 0.25 * np.trace(a.blocks[0]) / 2 + 0.75 * np.trace(a.blocks[1]) / 3
    assert apply_state(tr, a) == pytest.approx(ref, abs=1e-12)


def test_vector_state_evaluates_as_quadratic_form(rng):
    alg = Algebra((2, 3))
    vec = rng.normal(size=3) + 1j * rng.normal(size=3)
    vec = vec / np.linalg.norm(vec)
    phi = vector_state(alg, 1, vec)
    a = random_element(alg, rng)
    assert apply_state(phi, a) == pytest.approx(
        complex(vec.conj() @ a.blocks[1] @ vec), abs=1e-12)


def test_matrix_unit_l1_is_one_for_tracial_states(rng):
    for _ in range(25):
        alg = _random_algebra(rng)
        w = rng.dirichlet(np.ones(alg.n_blocks))
        assert matrix_unit_l1(tracial_state(alg, w)) == pytest.approx(1.0, abs=1e-12)


def test_matrix_unit_l1_exceeds_one_off_the_trace():
    alg = Algebra((2,))
    phi = vector_state(alg, 0, np.array([1.0, 1.0]) / ROOT2)
    # the density (1/2) all-ones matrix has entrywise l1 sum 2
    assert matrix_unit_l1(phi) == pytest.approx(2.0, abs=1e-12)


def test_state_json_round_trip(rng):
    alg = Algebra((2, 2))
    phi = random_alg_state(alg, rng)
    back = AlgState.from_json_dict(phi.to_json_dict())
    assert np.allclose(back.weights, phi.weights)
    for x, y in zip(back.densities, phi.densities):
        assert np.allclose(x, y)


def test_diag_and_offdiag_helpers():
    """The max-norm distance to scalars is the larger of the largest
    off-diagonal modulus and the radius of the diagonal entries."""
    alg = Algebra((2,))
    # diagonal radius 2, off-diagonal modulus sqrt(5): the off-diagonal wins
    a = AlgElement(alg, (np.array([[1.0, 2.0 - 1.0j], [0.5j, -3.0]]),))
    assert dist_to_scalars(a, "max") == pytest.approx(np.sqrt(5.0))
    # diagonal radius 3, off-diagonal modulus 1: the diagonal wins
    b = AlgElement(alg, (np.array([[4.0, 1.0j], [0.5, -2.0]]),))
    assert dist_to_scalars(b, "max") == pytest.approx(3.0)
