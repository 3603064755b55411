import numpy as np
import pytest

from helpers import random_element, random_sa_function
from oracles import loop_evaluate
from qmetric.algebra import Algebra, apply_state, matrix_unit, tracial_state
from qmetric.errors import InputError
from qmetric.funcspace import MatrixFunction
from qmetric.generate import random_alg_state, random_product_state
from qmetric.metric import FiniteMetricSpace
from qmetric.states import (
    FunctionalState,
    delta_embed,
    evaluate,
    mix,
    tracial_functional,
)

SPACE = FiniteMetricSpace(
    ("a", "b", "c"),
    np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float))
ALG = Algebra((2, 3))


def test_weights_must_form_a_distribution(rng):
    phi = random_alg_state(ALG, rng)
    with pytest.raises(InputError):
        FunctionalState(((0.6, 0, phi), (0.6, 1, phi)))
    with pytest.raises(InputError):
        FunctionalState(((-0.1, 0, phi), (1.1, 1, phi)))


def test_out_of_range_point_caught_at_evaluation(rng):
    phi = random_alg_state(ALG, rng)
    st = FunctionalState(((1.0, 5, phi),))
    fn = random_sa_function(SPACE, ALG, rng)
    with pytest.raises(InputError):
        evaluate(st, fn)


def test_support_and_max_point(rng):
    phi = random_alg_state(ALG, rng)
    psi = random_alg_state(ALG, rng)
    st = FunctionalState(((0.0, 0, phi), (0.4, 2, psi), (0.6, 1, phi)))
    assert st.support() == [1, 2]
    assert st.max_point() == 2


def test_delta_embed_evaluates_at_its_point(rng):
    phi = random_alg_state(ALG, rng)
    st = delta_embed(phi, 1)
    fn = random_sa_function(SPACE, ALG, rng)
    want = sum(w * apply_state(p, fn.values[x]) for w, x, p in st.terms)
    assert evaluate(st, fn) == pytest.approx(want, abs=1e-12)
    assert st.support() == [1]


def test_evaluate_is_linear_in_the_function(rng):
    st = random_product_state(SPACE, ALG, rng)
    f = random_sa_function(SPACE, ALG, rng)
    g = random_sa_function(SPACE, ALG, rng)
    combo = MatrixFunction(SPACE, ALG, tuple(
        x + y.scaled(-3.0) for x, y in zip(f.values, g.values)))
    assert evaluate(st, combo) == pytest.approx(
        evaluate(st, f) - 3.0 * evaluate(st, g), abs=1e-10)


def test_evaluate_on_identity_is_one(rng):
    st = random_product_state(SPACE, ALG, rng)
    ones = MatrixFunction(SPACE, ALG, tuple(ALG.identity() for _ in range(3)))
    assert evaluate(st, ones) == pytest.approx(1.0, abs=1e-12)


def test_mix_is_convex_combination(rng):
    a = random_product_state(SPACE, ALG, rng)
    b = random_product_state(SPACE, ALG, rng)
    m = mix(((0.25, a), (0.75, b)))
    fn = random_sa_function(SPACE, ALG, rng)
    assert evaluate(m, fn) == pytest.approx(
        0.25 * evaluate(a, fn) + 0.75 * evaluate(b, fn), abs=1e-10)
    with pytest.raises(InputError):
        mix(((0.5, a), (0.6, b)))


def test_tracial_functional_pairs_matrix_units(rng):
    """Pairing a point trace against matrix units reads off the density."""
    v = rng.dirichlet(np.ones(ALG.n_blocks))
    st = tracial_functional(ALG, v, 2)
    tr = tracial_state(ALG, v)
    for k, m in enumerate(ALG.block_sizes):
        for p in range(1, m + 1):
            for q in range(1, m + 1):
                unit = matrix_unit(ALG, k, p, q)
                fn = MatrixFunction(SPACE, ALG, (ALG.zero(), ALG.zero(), unit))
                want = apply_state(tr, unit)
                assert evaluate(st, fn) == pytest.approx(want, abs=1e-12)


def test_two_path_pairing_identity(rng):
    """Evaluating a point state equals summing unit pairings times entries."""
    for _ in range(10):
        alg = Algebra(tuple(int(b) for b in rng.integers(1, 4, size=2)))
        phi = random_alg_state(alg, rng)
        x = int(rng.integers(0, SPACE.size))
        st = delta_embed(phi, x)
        fn = MatrixFunction(SPACE, alg, tuple(
            random_element(alg, rng) for _ in range(SPACE.size)))
        total = 0.0 + 0.0j
        for k, m in enumerate(alg.block_sizes):
            for p in range(1, m + 1):
                for q in range(1, m + 1):
                    weight = apply_state(phi, matrix_unit(alg, k, p, q))
                    total += weight * fn.values[x].blocks[k][p - 1, q - 1]
        assert evaluate(st, fn) == pytest.approx(total, abs=1e-12)


def test_state_json_round_trip(rng):
    st = random_product_state(SPACE, ALG, rng)
    data = st.to_json_dict(SPACE.labels)
    back = FunctionalState.from_json_dict(data, SPACE.labels)
    fn = random_sa_function(SPACE, ALG, rng)
    assert evaluate(back, fn) == pytest.approx(evaluate(st, fn), abs=1e-12)


def test_state_json_rejects_unknown_labels(rng):
    phi = random_alg_state(ALG, rng)
    st = delta_embed(phi, 0)
    data = st.to_json_dict(SPACE.labels)
    data["terms"][0]["x"] = "nowhere"
    with pytest.raises(InputError):
        FunctionalState.from_json_dict(data, SPACE.labels)


def _term_mass(state, fn):
    """Sum over terms and blocks of w t sum_ij |rho_ij a_ji|: the size of
    the terms the pairing adds up, against which rounding is measured."""
    return sum(w * t * float(np.abs(rho * s[x].T).sum())
               for w, x, phi in state.terms
               for t, rho, s in zip(phi.weights, phi.densities, fn.stacks))


def test_evaluate_equals_the_per_term_loop(rng):
    space = FiniteMetricSpace(tuple("p%d" % i for i in range(16)),
                              np.abs(np.subtract.outer(np.arange(16), np.arange(16))) + 0.0)
    for _ in range(10):
        fn = MatrixFunction(SPACE, ALG, tuple(random_element(ALG, rng) for _ in range(3)))
        # repeated points and a zero weight, as mixtures produce them
        st = mix([(0.5, random_product_state(SPACE, ALG, rng)),
                  (0.3, delta_embed(random_alg_state(ALG, rng), 1)),
                  (0.2, FunctionalState(((0.0, 2, random_alg_state(ALG, rng)),
                                         (1.0, 1, random_alg_state(ALG, rng)))))])
        got, want = evaluate(st, fn), loop_evaluate(st, fn)
        assert abs(got - want) <= 1e-15 * _term_mass(st, fn)
    for algebra in (Algebra((1,)), Algebra((2, 3)), Algebra((4, 1, 2))):
        fn = MatrixFunction(space, algebra, tuple(random_element(algebra, rng)
                                                  for _ in range(16)))
        w = rng.dirichlet(np.ones(16))
        st = FunctionalState(tuple((float(w[p]), p, random_alg_state(algebra, rng))
                                   for p in range(16)))
        got, want = evaluate(st, fn), loop_evaluate(st, fn)
        assert abs(got - want) <= 1e-15 * _term_mass(st, fn)


def test_evaluate_checks_every_term_before_reading(rng):
    phi = random_alg_state(ALG, rng)
    fn = random_sa_function(SPACE, ALG, rng)
    with pytest.raises(InputError, match="beyond"):
        evaluate(FunctionalState(((0.5, 0, phi), (0.5, 3, phi))), fn)
    wrong = random_alg_state(Algebra((2,)), rng)
    with pytest.raises(InputError, match="block sizes"):
        evaluate(FunctionalState(((0.5, 0, phi), (0.5, 1, wrong))), fn)


def test_weights_just_below_zero_are_clamped(rng):
    """A weight within the validity slack below 0 carries no mass: it is
    stored as 0.0, so support() and every pairing skip its point."""
    phi = random_alg_state(ALG, rng)
    st = FunctionalState(((1.0, 0, phi), (-1e-12, 2, phi)))
    assert [w for w, _, _ in st.terms] == [1.0, 0.0]
    assert st.support() == [0]
    assert st.to_json_dict(SPACE.labels)["terms"][1]["w"] == 0.0
    with pytest.raises(InputError, match="weights must lie"):
        FunctionalState(((1.0, 0, phi), (-1e-6, 2, phi)))


def test_non_finite_term_weights_are_rejected(rng):
    """Every comparison with NaN is false, so a NaN weight used to pass the
    range and sum checks."""
    phi = random_alg_state(ALG, rng)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InputError, match="term weights must be finite"):
            FunctionalState(((1.0, 0, phi), (bad, 2, phi)))
        with pytest.raises(InputError, match="term weights must be finite"):
            FunctionalState(((bad, 0, phi),))
