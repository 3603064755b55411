"""Every integer the library reads from its callers, a point, block, size,
count or start row, passes one check (errors._integer): a Python or numpy
integer in range, never a bool or a float, 2.0 included.  Every real, a
scale, bound, constant or weight, passes another (errors._real): a finite
Python or numpy real, never a bool or a string, with a sign where the site
needs one.  Every numeric array, a distance or cross matrix, a block, a
density, a vector or a list of values, passes a third (errors._array): a
rectangular array of numbers, never of strings."""

import math

import numpy as np
import pytest

from qmetric import cli, lpcore
from qmetric.algebra import (Algebra, AlgElement, AlgState, matrix_unit, tracial_state,
                             vector_state)
from qmetric.errors import InputError
from qmetric.funcspace import (MatrixFunction, SeminormSpec, classical_embed, conv_spec,
                               quasi_leibniz_check)
from qmetric.generate import circle_net, interval_net, random_planar_space, scaled_to_diameter
from qmetric.mcshane import ExtensionProblem
from qmetric.metric import FiniteMetricSpace, JoinedSpace, epsilon_net, gh_upper, scale
from qmetric.propinquity import approx_table, build_bridge
from qmetric.states import FunctionalState, delta_embed, mix

ALG = Algebra((2, 3))
PHI = tracial_state(ALG, (0.5, 0.5))
SPACE = circle_net(5)
LP = lpcore.LinearProgram(np.array([1.0, 1.0]), np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                          np.array([1.0, 1.0, 1.5]))

# site: (call on the integer, values it must refuse, a numpy integer it takes)
SITES = {
    "FunctionalState": (lambda v: FunctionalState(((1.0, v, PHI),)), [2.7, True, -1],
                        np.int64(2)),
    "delta_embed": (lambda v: delta_embed(PHI, v), [2.7, True], np.int64(2)),
    "ExtensionProblem": (lambda v: ExtensionProblem(SPACE, (0, v), (0.0, 1.0), 5.0),
                         [2.7, True, 5], np.int64(2)),
    "epsilon_net": (lambda v: epsilon_net(SPACE, 0.5, start=v), [0.5, True, 5], np.int64(1)),
    "matrix_unit_block": (lambda v: matrix_unit(ALG, v, 1, 1), [0.5, True, 2], np.int64(1)),
    "matrix_unit_row": (lambda v: matrix_unit(ALG, 0, v, 1), [1.0, 0, 3], np.int64(2)),
    "matrix_unit_column": (lambda v: matrix_unit(ALG, 0, 1, v), [1.5, True], np.int64(2)),
    "vector_state": (lambda v: vector_state(ALG, v, [1.0, 0.0]), [0.5, False], np.int64(0)),
    "Algebra": (lambda v: Algebra((2, v)), [math.nan, math.inf, True, 2.0, 0], np.int64(3)),
    "circle_net": (lambda v: circle_net(v), [2.5, 0, True], np.int64(3)),
    "interval_net": (lambda v: interval_net(v), [2.5, 0], np.int64(3)),
    "random_planar_space": (lambda v: random_planar_space(v, np.random.default_rng(0)),
                            [2.5, 0], np.int64(3)),
    "lpcore.solve": (lambda v: lpcore.solve(LP, [0, v]), [1.7, True, 3], np.int64(1)),
}


@pytest.mark.parametrize("site, bad", [(site, bad) for site, (_, bads, _) in SITES.items()
                                       for bad in bads])
def test_an_outside_integer_out_of_range_or_not_an_integer_is_an_input_error(site, bad):
    call = SITES[site][0]
    with pytest.raises(InputError, match=r"must be (a nonnegative |an )integer.*, got "):
        call(bad)


@pytest.mark.parametrize("site", sorted(SITES))
def test_numpy_integers_are_accepted_at_every_site(site):
    call, _, good = SITES[site]
    call(good)


def test_the_start_rows_of_a_solve_are_integers():
    with pytest.raises(InputError, match=r"start row must be an integer in 0\.\.2, got 0\.5"):
        lpcore.solve(LP, [0.5, 1.7])
    assert lpcore.solve(LP, np.array([0, 1])).optimum == pytest.approx(1.5, abs=1e-15)


M2 = Algebra((2,))
PATH2 = FiniteMetricSpace(("a", "b"), [[0.0, 1.0], [1.0, 0.0]])
PURE = AlgState((1.0,), ([[1.0, 0.0], [0.0, 0.0]],))
RAGGED = [[0.0, 1.0], [1.0]]
FN = classical_embed(PATH2, [0.0, 1.0], M2)

# each call used to raise a bare ValueError or TypeError
BARE = {
    "tracial_state_text": lambda: tracial_state(M2, ["a"]),
    "tracial_state_scalar": lambda: tracial_state(M2, 1.0),
    "vector_state_text": lambda: vector_state(M2, 0, ["a", 1]),
    "mix_text": lambda: mix([("a", delta_embed(PURE, 0))]),
    "epsilon_net_text": lambda: epsilon_net(PATH2, "a"),
    "scale_text": lambda: scale(PATH2, "a"),
    "circle_net_radius_text": lambda: circle_net(4, radius="a"),
    "interval_net_length_text": lambda: interval_net(4, length="a"),
    "build_bridge_epsilon_text": lambda: build_bridge(PATH2, PATH2, PATH2.dist, "a", M2),
    "approx_table_scale_text": lambda: approx_table(PATH2, M2, ["a"], 0.1),
    "gh_upper_ragged_cross": lambda: gh_upper(PATH2, PATH2, RAGGED),
    "JoinedSpace_ragged_cross": lambda: JoinedSpace(PATH2, PATH2, RAGGED),
    "build_bridge_ragged_cross": lambda: build_bridge(PATH2, PATH2, RAGGED, 0.1, M2),
    "SeminormSpec_K_text": lambda: SeminormSpec("real_max", "conv_K", K="a"),
    "ExtensionProblem_values_text": lambda: ExtensionProblem(PATH2, (0,), ["a"], 1.0),
    "ExtensionProblem_values_ragged": lambda: ExtensionProblem(PATH2, (0, 1), RAGGED, 1.0),
    "ExtensionProblem_lip_bound_text": lambda: ExtensionProblem(PATH2, (0,), [0.0], "a"),
    "quasi_leibniz_c_const_text": lambda: quasi_leibniz_check(FN, FN, conv_spec(), c_const="a"),
    "AlgElement_text": lambda: AlgElement(M2, ([["a", 0], [0, 0]],)),
    "AlgElement_ragged": lambda: AlgElement(M2, (RAGGED,)),
    "AlgState_text": lambda: AlgState((1.0,), ([["a", 0], [0, 0]],)),
    "AlgState_ragged": lambda: AlgState((1.0,), (RAGGED,)),
    "classical_embed_text": lambda: classical_embed(circle_net(4), ["a", 1, 2, 3], M2),
    "MatrixFunction_not_elements": lambda: MatrixFunction(PATH2, M2, [1, 2]),
    "FiniteMetricSpace_labels_not_a_sequence": lambda: FiniteMetricSpace(5, [[0]]),
}

# each was accepted, as a number or a numeric array
TIGHTENED = {
    "SeminormSpec_K_numeric_string": lambda: SeminormSpec("real_max", "conv_K", K="1.5"),
    "term_weight_numeric_string": lambda: FunctionalState((("1", 0, PURE),)),
    "AlgState_bool_weight": lambda: AlgState((True,), PURE.densities),
    "distance_numeric_string": lambda: FiniteMetricSpace(("a", "b"), [[0, "1"], ["1", 0]]),
    "cross_numeric_string": lambda: gh_upper(PATH2, PATH2, [[0, "1"], ["1", 0]]),
    "density_numeric_string": lambda: AlgState((1.0,), ([["1", 0], [0, 0]],)),
    "epsilon_net_inf": lambda: epsilon_net(PATH2, math.inf),
    "lip_bound_one_element_list": lambda: ExtensionProblem(PATH2, (0,), [0.0], [1.0]),
}


@pytest.mark.parametrize("case", sorted(BARE) + sorted(TIGHTENED))
def test_bad_outside_input_is_an_input_error(case):
    with pytest.raises(InputError):
        BARE.get(case, TIGHTENED.get(case))()


def test_a_real_that_is_not_one_is_named_with_its_rule():
    with pytest.raises(InputError, match=r"epsilon must be positive and finite, got 'a'"):
        BARE["build_bridge_epsilon_text"]()
    with pytest.raises(InputError, match=r"c_const must be finite and nonnegative, got 'a'"):
        BARE["quasi_leibniz_c_const_text"]()
    with pytest.raises(InputError, match=r"term weights must be finite, got '1'"):
        TIGHTENED["term_weight_numeric_string"]()
    with pytest.raises(InputError, match=r"cross matrix must be a rectangular array of real "
                                         r"numbers: setting an array element"):
        BARE["gh_upper_ragged_cross"]()
    with pytest.raises(InputError, match=r"densities must be a rectangular array of numbers, "
                                         r"got str entries"):
        TIGHTENED["density_numeric_string"]()


# site: a call on a real that is 1 in every numpy type
REAL_SITES = {
    "SeminormSpec_K": lambda v: SeminormSpec("real_max", "conv_K", K=v),
    "circle_net_radius": lambda v: circle_net(4, radius=v),
    "interval_net_length": lambda v: interval_net(4, length=v),
    "random_planar_space_box": lambda v: random_planar_space(3, np.random.default_rng(0), box=v),
    "scaled_to_diameter": lambda v: scaled_to_diameter(PATH2, v),
    "scale": lambda v: scale(PATH2, v),
    "epsilon_net": lambda v: epsilon_net(PATH2, v),
    "build_bridge_epsilon": lambda v: build_bridge(PATH2, PATH2, PATH2.dist, v, M2),
    "approx_table_scale": lambda v: approx_table(PATH2, M2, [v], 0.1, samples=0),
    "quasi_leibniz_c_const": lambda v: quasi_leibniz_check(FN, FN, conv_spec(), c_const=v),
    "quasi_leibniz_d_const": lambda v: quasi_leibniz_check(FN, FN, conv_spec(), d_const=v),
    "quasi_leibniz_slack_tol": lambda v: quasi_leibniz_check(FN, FN, conv_spec(), slack_tol=v),
    "ExtensionProblem_lip_bound": lambda v: ExtensionProblem(PATH2, (0, 1), [0.0, 1.0], v),
    "AlgState_weight": lambda v: AlgState((v,), PURE.densities),
    "FunctionalState_weight": lambda v: FunctionalState(((v, 0, PURE),)),
    "tracial_state_weight": lambda v: tracial_state(M2, (v,)),
    "mix_weight": lambda v: mix([(v, delta_embed(PURE, 0))]),
}

# site: a call on an array of integers given as a numpy array of any dtype
ARRAY_SITES = {
    "FiniteMetricSpace_dist": lambda a: FiniteMetricSpace(("a", "b"), a([[0, 1], [1, 0]])),
    "gh_upper_cross": lambda a: gh_upper(PATH2, PATH2, a([[1, 2], [2, 1]])),
    "JoinedSpace_cross": lambda a: JoinedSpace(PATH2, PATH2, a([[1, 2], [2, 1]])),
    "build_bridge_cross": lambda a: build_bridge(PATH2, PATH2, a([[0, 1], [1, 0]]), 0.1, M2),
    "AlgElement_block": lambda a: AlgElement(M2, (a([[1, 0], [0, 1]]),)),
    "AlgState_density": lambda a: AlgState((1.0,), (a([[1, 0], [0, 0]]),)),
    "vector_state_vector": lambda a: vector_state(M2, 0, a([1, 0])),
    "classical_embed_values": lambda a: classical_embed(PATH2, a([0, 1]), M2),
    "ExtensionProblem_values": lambda a: ExtensionProblem(PATH2, (0, 1), a([0, 1]), 1.0),
    "tracial_state_weights": lambda a: tracial_state(M2, a([1])),
}

NUMPY_TYPES = [np.float32, np.float64, np.int64]


@pytest.mark.parametrize("kind", NUMPY_TYPES, ids=lambda t: t.__name__)
@pytest.mark.parametrize("site", sorted(REAL_SITES))
def test_numpy_reals_are_accepted_at_every_site(site, kind):
    REAL_SITES[site](kind(1))


@pytest.mark.parametrize("kind", NUMPY_TYPES, ids=lambda t: t.__name__)
@pytest.mark.parametrize("site", sorted(ARRAY_SITES))
def test_numpy_arrays_are_accepted_at_every_site(site, kind):
    ARRAY_SITES[site](lambda rows: np.array(rows, dtype=kind))


def test_a_checked_array_is_a_copy_of_the_callers():
    """A site stores a new array, never the caller's, which it freezes."""
    block = np.eye(2, dtype=complex)
    elem = AlgElement(M2, (block,))
    assert block.flags.writeable and elem.blocks[0] is not block


@pytest.mark.parametrize("raw, ok", [("1e-6", True), ("inf", False), ("-1", False),
                                     ("0", False), ("nan", False)])
def test_the_cli_tolerance_is_a_positive_finite_real(monkeypatch, raw, ok):
    monkeypatch.setenv("QMETRIC_TOL", raw)
    if ok:
        assert cli._cli_tol() == 1e-6
    else:
        with pytest.raises(InputError, match="QMETRIC_TOL must be positive and finite"):
            cli._cli_tol()
