"""Every integer the library reads from its callers, a point, block, size,
count or start row, passes one check (errors._integer): a Python or numpy
integer in range, never a bool or a float, 2.0 included.  Every real, a
scale, bound, constant or weight, passes another (errors._real): a finite
Python or numpy real, never a bool or a string, with a sign where the site
needs one.  Every numeric array, a distance or cross matrix, a block, a
density, a vector or a list of values, passes a third (errors._array): a
rectangular array of numbers, never of strings, and never with a bool
anywhere in its lists.  Every JSON object passes a fourth (errors._fields),
which names the first key that is missing or not of its kind.  A point
label is a string, and a reader that names a point matches it exactly."""

import math

import numpy as np
import pytest

from qmetric import cli, lpcore
from qmetric.algebra import (Algebra, AlgElement, AlgState, matrix_unit, min_enclosing_radius,
                             tracial_state, vector_state)
from qmetric.errors import InputError
from qmetric.funcspace import (MatrixFunction, SeminormSpec, classical_embed, conv_spec,
                               from_channels, quasi_leibniz_check)
from qmetric.generate import circle_net, interval_net, random_planar_space, scaled_to_diameter
from qmetric.mcshane import ExtensionProblem
from qmetric.metric import FiniteMetricSpace, JoinedSpace, epsilon_net, gh_upper, hausdorff, scale
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
    "ExtensionProblem_json_values_not_a_list": lambda: ExtensionProblem.from_json_dict(
        {"space": PATH2.to_json_dict(), "subset": ["a"], "values": 5, "lip_bound": 1.0}),
}

M1 = Algebra((1,))
TRIANGLE = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
# labels "ab", "a" and "b": the string subset "ab" reads as the points a and b
AB = FiniteMetricSpace(("ab", "a", "b"), TRIANGLE).to_json_dict()
# the label "1.5": a term "x" or a subset entry 1.5 used to read as its point
A15 = FiniteMetricSpace(("a", "1.5", "c"), TRIANGLE).to_json_dict()

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
    "AlgState_json_bool_density": lambda: AlgState.from_json_dict(
        {"weights": [1.0], "densities": [[[[True, False]]]]}),
    "AlgElement_json_bool_block": lambda: AlgElement.from_json_dict(M1, [[[[True, False]]]]),
    "AlgElement_json_bool_among_numbers": lambda: AlgElement.from_json_dict(
        M2, [[[[1.0, 0.0], [False, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]),
    "AlgElement_json_entry_of_three_numbers": lambda: AlgElement.from_json_dict(
        M1, [[[[1.0, 0.0, 5.0]]]]),
    "distance_bool_among_numbers": lambda: FiniteMetricSpace(("a", "b"),
                                                             [[0, True], [True, 0]]),
    "distance_numpy_bool_among_numbers": lambda: FiniteMetricSpace(
        ("a", "b"), ((0, np.True_), (np.True_, 0))),
    "distance_bool_array_in_a_list": lambda: FiniteMetricSpace(
        ("a", "b"), [np.array([False, True]), [1, 0]]),
    "ExtensionProblem_bool_value": lambda: ExtensionProblem(PATH2, (0, 1), (0.0, True), 1.0),
    "from_channels_numeric_strings": lambda: from_channels(PATH2, M1, [["1"], ["2"]]),
    "ExtensionProblem_json_string_subset": lambda: ExtensionProblem.from_json_dict(
        {"space": AB, "subset": "ab", "values": [0.0, 0.0], "lip_bound": 1.0}),
    "FiniteMetricSpace_json_labels_not_strings": lambda: FiniteMetricSpace.from_json_dict(
        {"labels": [True, None, 1.5], "dist": TRIANGLE}),
    "FiniteMetricSpace_int_labels": lambda: FiniteMetricSpace((0, 1, 2), TRIANGLE),
    "FiniteMetricSpace_labels_one_string": lambda: FiniteMetricSpace("ab", [[0, 1], [1, 0]]),
    "term_point_a_number": lambda: FunctionalState.from_json_dict(
        {"terms": [{"w": 1.0, "x": 1.5, "phi": PURE.to_json_dict()}]}, A15["labels"]),
    "ExtensionProblem_json_number_subset": lambda: ExtensionProblem.from_json_dict(
        {"space": A15, "subset": [1.5], "values": [0.0], "lip_bound": 1.0}),
    "LinearProgram_numeric_strings": lambda: lpcore.LinearProgram(
        ["1", "1"], [[1, 0], [0, 1], [1, 1]], [1, 1, "1.5"]),
    "LinearProgram_bool_row": lambda: lpcore.LinearProgram(
        [1, 1], [[1, 0], [0, True], [1, 1]], [1, 1, 1.5]),
    "min_cost_flows_numeric_strings": lambda: lpcore.min_cost_flows(np.ones((2, 2)),
                                                                    [["1", "-1"]]),
    "min_cost_flows_bool_cost": lambda: lpcore.min_cost_flows(np.ones((2, 2), dtype=bool),
                                                              [[1.0, -1.0]]),
    "min_enclosing_radius_numeric_strings": lambda: min_enclosing_radius(["1", "3"]),
    "build_bridge_float_net": lambda: build_bridge(
        SPACE.subspace((0, 2, 4)), SPACE, SPACE.dist[[0, 2, 4]], 0.1, M2, net=[0.2, 2.7, 4.0]),
}

# each was refused already, by a check that no other test reaches
REFUSED = {
    "distance_nan": (lambda: FiniteMetricSpace(("a", "b"), [[0, math.nan], [math.nan, 0]]),
                     r"distances must be finite"),
    "distance_wrong_shape": (lambda: FiniteMetricSpace(("a", "b"), [0, 1]),
                             r"distance matrix must be 2x2, got \(2,\)"),
    "subspace_empty": (lambda: SPACE.subspace([]), r"a subspace needs at least one point"),
    "hausdorff_empty": (lambda: hausdorff(SPACE, [], [0]),
                        r"Hausdorff distance needs nonempty subsets"),
    "LinearProgram_bound_count": (lambda: lpcore.LinearProgram([1, 1], [[1, 0], [0, 1]], [1]),
                                  r"need one bound per constraint row"),
    "LinearProgram_not_finite": (lambda: lpcore.LinearProgram(
        [1, math.inf], [[1, 0], [0, 1]], [1, 1]), r"linear program data must be finite"),
    "FunctionalState_no_terms": (lambda: FunctionalState(()),
                                 r"a functional state needs at least one term"),
    "FunctionalState_term_not_a_state": (lambda: FunctionalState(((1.0, 0, "phi"),)),
                                         r"each term needs an AlgState"),
    "ExtensionProblem_empty_subset": (lambda: ExtensionProblem(SPACE, (), (), 1.0),
                                      r"the subset must be nonempty"),
    "ExtensionProblem_repeated_subset": (lambda: ExtensionProblem(SPACE, (1, 1), (0, 0), 1.0),
                                         r"subset indices must be distinct"),
    "min_enclosing_radius_empty": (lambda: min_enclosing_radius([]),
                                   r"enclosing circle of an empty point set"),
}


@pytest.mark.parametrize("case", sorted(BARE) + sorted(TIGHTENED))
def test_bad_outside_input_is_an_input_error(case):
    with pytest.raises(InputError):
        BARE.get(case, TIGHTENED.get(case))()


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_each_refusal_names_its_rule(case):
    call, message = REFUSED[case]
    with pytest.raises(InputError, match=message):
        call()


def test_a_label_is_a_string_matched_exactly():
    with pytest.raises(InputError, match=r"point labels must be strings, got True"):
        TIGHTENED["FiniteMetricSpace_json_labels_not_strings"]()
    with pytest.raises(InputError, match=r"point labels must be strings, got 0"):
        TIGHTENED["FiniteMetricSpace_int_labels"]()
    with pytest.raises(InputError, match=r'state term JSON object needs a "x" str'):
        TIGHTENED["term_point_a_number"]()
    with pytest.raises(InputError, match=r"unknown point label 1\.5"):
        TIGHTENED["ExtensionProblem_json_number_subset"]()
    with pytest.raises(InputError, match=r"point index must be an integer in 0\.\.4, got 0\.2"):
        TIGHTENED["build_bridge_float_net"]()
    with pytest.raises(InputError, match=r"objective must be a rectangular array of real "
                                         r"numbers, got str entries"):
        TIGHTENED["LinearProgram_numeric_strings"]()
    with pytest.raises(InputError, match=r"arc costs must be a rectangular array of real "
                                         r"numbers, got bool entries"):
        TIGHTENED["min_cost_flows_bool_cost"]()
    with pytest.raises(InputError, match=r"points must be a rectangular array of numbers, "
                                         r"got str entries"):
        TIGHTENED["min_enclosing_radius_numeric_strings"]()
    space = FiniteMetricSpace.from_json_dict(A15)
    term = {"w": 1.0, "x": "1.5", "phi": PURE.to_json_dict()}
    assert FunctionalState.from_json_dict({"terms": [term]}, space.labels).terms[0][1] == 1
    assert ExtensionProblem.from_json_dict(
        {"space": A15, "subset": ["1.5"], "values": [0.0], "lip_bound": 1.0}).subset == (1,)


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


def test_a_bool_among_numbers_and_a_json_key_are_named():
    with pytest.raises(InputError, match=r"distance matrix must be a rectangular array of real "
                                         r"numbers, got a bool among them"):
        TIGHTENED["distance_bool_among_numbers"]()
    with pytest.raises(InputError, match=r"matrix JSON must be a rectangular array of real "
                                         r"numbers, got bool entries"):
        TIGHTENED["AlgState_json_bool_density"]()
    with pytest.raises(InputError, match=r"matrix JSON must hold \[re, im\] pairs, "
                                         r"got shape \(1, 1, 3\)"):
        TIGHTENED["AlgElement_json_entry_of_three_numbers"]()
    with pytest.raises(InputError, match=r"channel array must be a rectangular array of real "
                                         r"numbers, got str entries"):
        TIGHTENED["from_channels_numeric_strings"]()
    with pytest.raises(InputError, match=r'extension problem JSON object needs a "subset" list'):
        TIGHTENED["ExtensionProblem_json_string_subset"]()
    with pytest.raises(InputError, match=r'state term JSON object needs a "phi" key'):
        FunctionalState.from_json_dict({"terms": [{"w": 1.0, "x": "a"}]}, PATH2.labels)
    with pytest.raises(InputError, match=r"functional state JSON must be an object, got list"):
        FunctionalState.from_json_dict([], PATH2.labels)


def test_a_json_matrix_reads_each_pair_as_its_complex_bit_for_bit(rng):
    """The [re, im] pairs of an element or a state are viewed as complex
    numbers, exactly the complex(re, im) of each pair, ints and -0.0 included."""
    pairs = rng.normal(size=(3, 3, 2)) * 10.0 ** rng.integers(-300, 300, size=(3, 3, 2))
    rows = pairs.tolist()
    rows[0][1] = [-0.0, 2 ** 60 + 1]
    rows[2][2] = [5e-324, -7]
    elem = AlgElement.from_json_dict(Algebra((3,)), [rows])
    want = np.array([[complex(re, im) for re, im in row] for row in rows])
    assert elem.blocks[0].tobytes() == want.tobytes()


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


def test_a_linear_program_and_a_flow_leave_the_callers_arrays_alone():
    """A LinearProgram freezes a copy of each writeable array, and of a
    read-only view, and shares a read-only float array that owns its data,
    as the LPs of a polygon share its rows."""
    objective, rows, bounds = np.ones(2), np.array([[1.0, 0.0], [0.0, 1.0]]), np.ones(2)
    lp = lpcore.LinearProgram(objective, rows, bounds)
    for mine, stored in zip((objective, rows, bounds), (lp.objective, lp.rows, lp.bounds)):
        assert mine.flags.writeable and not stored.flags.writeable
        assert not np.shares_memory(mine, stored)
    assert lpcore.LinearProgram(2 * objective, lp.rows, bounds).rows is lp.rows
    view = objective.view()
    view.setflags(write=False)
    assert lpcore.LinearProgram(view, rows, bounds).objective is not view
    cost, supplies = np.ones((2, 2)), np.array([[1.0, -1.0]])
    lpcore.min_cost_flows(cost, supplies)
    assert cost.flags.writeable and supplies.flags.writeable
    assert supplies.tolist() == [[1.0, -1.0]]


@pytest.mark.parametrize("raw, ok", [("1e-6", True), ("inf", False), ("-1", False),
                                     ("0", False), ("nan", False)])
def test_the_cli_tolerance_is_a_positive_finite_real(monkeypatch, raw, ok):
    monkeypatch.setenv("QMETRIC_TOL", raw)
    if ok:
        assert cli._cli_tol() == 1e-6
    else:
        with pytest.raises(InputError, match="QMETRIC_TOL must be positive and finite"):
            cli._cli_tol()
