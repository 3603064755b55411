import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (loop_forest_flow, loop_min_cost_flow, lp_by_vertices, lp_from_pairs,
                     tableau_solve)
from qmetric import lpcore
from qmetric.errors import InputError
from qmetric.lpcore import LinearProgram, min_cost_flows

# The tests down to test_shape_validation pin the reference tableau,
# oracles.tableau_solve, against which test_mk checks the refine LPs.


def _lp(obj, pairs):
    return lp_from_pairs(np.array(obj, dtype=float),
                         [(np.array(r, dtype=float), float(b)) for r, b in pairs])


def test_single_variable_cap():
    sol = tableau_solve(_lp([1.0], [([1.0], 3.0)]))
    assert sol.status == "optimal"
    assert sol.optimum == pytest.approx(3.0, abs=1e-9)
    assert sol.x[0] == pytest.approx(3.0, abs=1e-9)


def test_two_variable_shared_cap():
    sol = tableau_solve(_lp([1.0, 1.0], [([1.0, 0.0], 1.0),
                                         ([0.0, 1.0], 1.0),
                                         ([1.0, 1.0], 1.5)]))
    assert sol.status == "optimal"
    assert sol.optimum == pytest.approx(1.5, abs=1e-9)


def test_infeasible_detected():
    # with every bound >= 0, x = 0 is feasible, so an infeasible program
    # needs a negative bound and is refused when it is built
    with pytest.raises(InputError, match="nonnegative"):
        _lp([1.0], [([1.0], -1.0), ([-1.0], -3.0)])


def test_unbounded_detected():
    sol = tableau_solve(_lp([1.0], [([-1.0], 0.0)]))
    assert sol.status == "unbounded"


def test_negative_bound_goes_through_phase_one():
    # x >= 2 encoded as -x <= -2, maximize -x + 7 cap: a negative bound is
    # refused, since solve starts from the slack basis and has no phase one
    with pytest.raises(InputError, match="nonnegative"):
        _lp([-1.0, 1.0], [([-1.0, 0.0], -2.0),
                          ([0.0, 1.0], 7.0),
                          ([1.0, 0.0], 10.0)])
    # the same program with x = 2 + x' has bounds >= 0 and solves directly
    sol = tableau_solve(_lp([-1.0, 1.0], [([-1.0, 0.0], 0.0),
                                          ([0.0, 1.0], 7.0),
                                          ([1.0, 0.0], 8.0)]))
    assert sol.status == "optimal"
    assert sol.optimum - 2.0 == pytest.approx(5.0, abs=1e-9)
    assert 2.0 + sol.x[0] == pytest.approx(2.0, abs=1e-9)


def test_free_variables_can_go_negative():
    sol = tableau_solve(_lp([-1.0], [([-1.0], 5.0)]))
    assert sol.status == "optimal"
    assert sol.optimum == pytest.approx(5.0, abs=1e-9)
    assert sol.x[0] == pytest.approx(-5.0, abs=1e-9)


def test_redundant_rows_are_harmless():
    sol = tableau_solve(_lp([1.0, 1.0], [([1.0, 0.0], 1.0),
                                         ([1.0, 0.0], 1.0),
                                         ([2.0, 0.0], 2.0),
                                         ([0.0, 1.0], 2.0)]))
    assert sol.optimum == pytest.approx(3.0, abs=1e-9)


def test_degenerate_vertex():
    # three constraints meeting at the optimum of a 2-d program
    sol = tableau_solve(_lp([1.0, 1.0], [([1.0, 0.0], 1.0),
                                         ([0.0, 1.0], 1.0),
                                         ([1.0, 1.0], 2.0)]))
    assert sol.optimum == pytest.approx(2.0, abs=1e-9)


def test_classic_cycling_program_terminates():
    """Bland's rule finishes the textbook degenerate program."""
    rows = [([0.25, -60.0, -1.0 / 25.0, 9.0], 0.0),
            ([0.5, -90.0, -1.0 / 50.0, 3.0], 0.0),
            ([0.0, 0.0, 1.0, 0.0], 1.0)]
    rows += [(list(-e), 0.0) for e in np.eye(4)]
    obj = [0.75, -150.0, 1.0 / 50.0, -6.0]
    sol = tableau_solve(_lp(obj, rows))
    assert sol.status == "optimal"
    assert sol.optimum == pytest.approx(
        lp_by_vertices(obj, [r for r, _ in rows], [b for _, b in rows]),
        abs=1e-9)
    assert sol.optimum == pytest.approx(0.05, abs=1e-9)


def test_solution_satisfies_constraints(rng):
    for _ in range(25):
        n = int(rng.integers(2, 4))
        rows = [(rng.normal(size=n), float(abs(rng.normal())))
                for _ in range(int(rng.integers(1, 5)))]
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            rows += [(e.copy(), 3.0), (-e, 3.0)]
        obj = rng.normal(size=n)
        sol = tableau_solve(_lp(obj, rows))
        assert sol.status == "optimal"
        for r, b in rows:
            assert float(np.asarray(r) @ sol.x) <= b + 1e-7
        assert float(obj @ sol.x) == pytest.approx(sol.optimum, abs=1e-7)


def test_matches_vertex_enumeration(rng):
    """Simplex optimum equals exhaustive vertex search on boxed programs."""
    for _ in range(25):
        n = int(rng.integers(2, 4))
        rows = [(rng.normal(size=n), float(abs(rng.normal())))
                for _ in range(int(rng.integers(1, 5)))]
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            rows += [(e.copy(), 3.0), (-e, 3.0)]
        obj = rng.normal(size=n)
        sol = tableau_solve(_lp(obj, rows))
        ref = lp_by_vertices(obj, [r for r, _ in rows], [b for _, b in rows])
        assert sol.optimum == pytest.approx(ref, abs=1e-7)


def test_weak_duality_spot_check():
    # dual multipliers (0, 0, 1) certify the shared-cap optimum
    rows = [([1.0, 0.0], 1.0), ([0.0, 1.0], 1.0), ([1.0, 1.0], 1.5)]
    sol = tableau_solve(_lp([1.0, 1.0], rows))
    y = np.array([0.0, 0.0, 1.0])
    a = np.array([r for r, _ in rows])
    b = np.array([bd for _, bd in rows])
    assert np.allclose(a.T @ y, [1.0, 1.0])  # dual feasibility for c
    assert sol.optimum <= float(b @ y) + 1e-9


def test_shape_validation():
    with pytest.raises(InputError):
        _lp([1.0, 2.0], [([1.0], 1.0)])
    with pytest.raises(InputError):
        tableau_solve(LinearProgram(np.zeros(0), np.zeros((0, 0)), np.zeros(0)))



def _boxed_program(rng, n):
    """Random rows plus the box |x_i| <= 3, and the start from the box: per
    variable the box row that the sign of its objective picks, weight |c_i|."""
    obj = rng.normal(size=n)
    rows = [(rng.normal(size=n), float(abs(rng.normal())))
            for _ in range(int(rng.integers(1, 5)))]
    start = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        start.append(len(rows) + (0 if obj[i] >= 0.0 else 1))
        rows += [(e.copy(), 3.0), (-e, 3.0)]
    return obj, rows, start


def _assert_certified(lp, sol):
    assert (lp.rows @ sol.x <= lp.bounds + 1e-12).all()
    assert sol.weights.min() >= 0.0
    assert np.abs(lp.rows.T @ sol.weights - lp.objective).max() <= 1e-12
    assert float(lp.bounds @ sol.weights) == pytest.approx(sol.optimum, abs=1e-12)
    assert float(lp.objective @ sol.x) == sol.optimum


def test_revised_simplex_matches_vertex_enumeration(rng):
    for _ in range(40):
        n = int(rng.integers(2, 5))
        obj, rows, start = _boxed_program(rng, n)
        lp = _lp(obj, rows)
        sol = lpcore.solve(lp, start)
        ref = lp_by_vertices(obj, [r for r, _ in rows], [b for _, b in rows])
        assert sol.optimum == pytest.approx(ref, abs=1e-9)
        _assert_certified(lp, sol)


@pytest.mark.parametrize("run", [lpcore._DEGENERATE_RUN, 0], ids=["dantzig", "bland"])
def test_revised_simplex_finishes_the_cycling_program(monkeypatch, run):
    """The textbook cycling program with the box 0 <= x <= 2, from the box,
    under both pricing rules (a run of 0 makes every pivot Bland's)."""
    monkeypatch.setattr(lpcore, "_DEGENERATE_RUN", run)
    rows = [([0.25, -60.0, -1.0 / 25.0, 9.0], 0.0),
            ([0.5, -90.0, -1.0 / 50.0, 3.0], 0.0),
            ([0.0, 0.0, 1.0, 0.0], 1.0)]
    rows += [(list(-e), 0.0) for e in np.eye(4)]
    rows += [(list(e), 2.0) for e in np.eye(4)]
    obj = [0.75, -150.0, 1.0 / 50.0, -6.0]
    lp = _lp(obj, rows)
    # positive objective entries start on x_i <= 2, negative ones on -x_i <= 0
    sol = lpcore.solve(lp, [7, 4, 9, 6])
    assert sol.optimum == pytest.approx(
        lp_by_vertices(obj, [r for r, _ in rows], [b for _, b in rows]), abs=1e-12)
    assert sol.optimum == pytest.approx(0.05, abs=1e-12)
    _assert_certified(lp, sol)


def test_start_must_be_a_basis_with_nonnegative_weights():
    lp = _lp([1.0, 1.0], [([1.0, 0.0], 1.0), ([0.0, 1.0], 1.0), ([1.0, 1.0], 1.5),
                          ([-1.0, 0.0], 1.0), ([2.0, 0.0], 2.0)])
    with pytest.raises(InputError, match="dependent"):
        lpcore.solve(lp, [0, 4])  # parallel rows
    with pytest.raises(InputError, match="dependent"):
        lpcore.solve(lp, [0, 3])
    with pytest.raises(InputError, match="weights >= 0"):
        lpcore.solve(lp, [3, 1])  # -x <= 1 needs weight -1 to give c
    for start in ([0], [0, 0]):
        with pytest.raises(InputError, match="one distinct row"):
            lpcore.solve(lp, start)
    for start in ([0, 5], [-1, 0]):
        with pytest.raises(InputError, match=r"start row must be an integer in 0\.\.4"):
            lpcore.solve(lp, start)
    sol = lpcore.solve(lp, [0, 1])
    assert sol.optimum == pytest.approx(1.5, abs=1e-15)
    _assert_certified(lp, sol)

def test_min_cost_flow_on_a_known_instance():
    # three points on a line and an anchor at distance 1 from each: each
    # outer supply goes straight to p1 (cost 1.5), not through the anchor (2)
    d = np.array([[0.0, 1.5, 3.0], [1.5, 0.0, 1.5], [3.0, 1.5, 0.0]])
    cost = np.ones((4, 4))
    cost[:3, :3] = d
    cost[3, 3] = 0.0
    sol = min_cost_flows(cost, [[0.5, -1.0, 0.5, 0.0]])[0]
    assert float((sol.flow * cost).sum()) == pytest.approx(1.5, abs=1e-15)
    assert np.array_equal(sol.flow[[0, 2], 1], [0.5, 0.5])
    assert sol.potential[3] == 0.0
    assert sol.potential @ [0.5, -1.0, 0.5, 0.0] == pytest.approx(1.5, abs=1e-15)


def test_min_cost_flow_matches_vertex_enumeration(rng):
    """Potentials solve the dual LP, and its value is the flow's cost."""
    for _ in range(25):
        n = int(rng.integers(2, 5))
        cost = rng.uniform(0.1, 2.0, size=(n, n))
        np.fill_diagonal(cost, 0.0)
        supply = rng.normal(size=n)
        supply[-1] = -supply[:-1].sum()
        sol = min_cost_flows(cost, [supply])[0]
        rows, bounds = [], []
        for i in range(n - 1):  # y[-1] = 0 drops out
            for j in range(n):
                if i != j:
                    r = np.zeros(n - 1)
                    r[i] = 1.0
                    if j < n - 1:
                        r[j] = -1.0
                    rows.append(r)
                    bounds.append(cost[i, j])
                    rows.append(-r)
                    bounds.append(cost[j, i])
        ref = lp_by_vertices(supply[:-1], rows, bounds)
        y = sol.potential
        assert float((sol.flow * cost).sum()) == pytest.approx(ref, abs=1e-9)
        assert float(supply @ y) == pytest.approx(ref, abs=1e-9)
        assert (y[:, None] - y[None, :] <= cost + 1e-12).all()
        assert sol.flow.min() >= 0.0
        net = sol.flow.sum(axis=1) - sol.flow.sum(axis=0)
        assert np.abs(net - supply).max() <= 1e-12


def test_min_cost_flow_input_checks():
    with pytest.raises(InputError, match="sum to zero"):
        min_cost_flows(np.ones((2, 2)), [[1.0, 0.0]])
    with pytest.raises(InputError, match="nonnegative"):
        min_cost_flows(-np.ones((2, 2)), [[1.0, -1.0]])
    with pytest.raises(InputError, match="square"):
        min_cost_flows(np.ones((2, 3)), [[1.0, -1.0]])
    sol = min_cost_flows(np.ones((2, 2)), [[0.0, 0.0]])[0]
    assert not sol.flow.any() and not sol.potential.any()


def _support_cost(rng, n):
    """Euclidean distances among n - 1 random points, each beta from an anchor."""
    pts = rng.normal(size=(n - 1, 2))
    cost = np.full((n, n), rng.uniform(0.2, 2.0))
    cost[:n - 1, :n - 1] = np.linalg.norm(pts[:, None] - pts[None], axis=2)
    cost[-1, -1] = 0.0
    return cost


def _assert_matches_the_loop(cost, supplies):
    sols = min_cost_flows(cost, supplies)
    assert len(sols) == len(supplies)
    for supply, sol in zip(supplies, sols):
        flow, potential = loop_forest_flow(cost, supply)
        assert sol.flow.tobytes() == flow.tobytes()
        assert sol.potential.tobytes() == potential.tobytes()


def test_batched_flows_equal_one_solve_per_row_bit_for_bit(rng):
    for k in range(1, 14):
        for n in (1, 2, 3, 5, 8, 17, 33):
            cost = _support_cost(rng, n)
            supplies = rng.normal(size=(k, n))
            supplies[:, -1] = -supplies[:, :-1].sum(axis=1)
            _assert_matches_the_loop(cost, supplies)


def test_batched_rows_may_finish_in_different_rounds(rng):
    # a zero row needs no round, a single unit pair one, a dense row many
    cost = _support_cost(rng, 12)
    one_pair = np.zeros(12)
    one_pair[[2, 7]] = 1.0, -1.0
    dense = rng.normal(size=12)
    dense[-1] = -dense[:-1].sum()
    _assert_matches_the_loop(cost, np.array([dense, np.zeros(12), one_pair, dense[::-1]]))
    # asymmetric costs and cancelled arcs, as in the generic test above
    cost = rng.uniform(0.1, 2.0, size=(6, 6))
    np.fill_diagonal(cost, 0.0)
    supplies = rng.normal(size=(9, 6))
    supplies[:, -1] = -supplies[:, :-1].sum(axis=1)
    supplies[4] = 0.0
    _assert_matches_the_loop(cost, supplies)


def test_batched_flow_input_errors_name_the_row():
    with pytest.raises(InputError, match="supply row 1"):
        min_cost_flows(np.ones((2, 2)), [[1.0, -1.0], [1.0, 0.0]])
    with pytest.raises(InputError, match="supply row 2"):
        min_cost_flows(np.ones((2, 2)), [[0.0, 0.0], [1.0, -1.0], [np.nan, 0.0]])
    with pytest.raises(InputError, match="supply row 0"):
        min_cost_flows(np.ones((2, 2)), [[np.inf, -np.inf]])
    with pytest.raises(InputError, match="square"):
        min_cost_flows(np.ones((3, 3)), [[1.0, -1.0]])
    with pytest.raises(InputError, match="square"):
        min_cost_flows(np.ones((2, 2)), [1.0, -1.0])
    assert min_cost_flows(np.ones((2, 2)), np.zeros((0, 2))) == []


def test_a_cost_stack_gives_each_row_its_solve_alone(rng):
    for k in (1, 2, 5):
        for n in (1, 2, 4, 9):
            costs = np.stack([_support_cost(rng, n) for _ in range(k)])
            supplies = rng.normal(size=(k, n))
            supplies[:, -1] = -supplies[:, :-1].sum(axis=1)
            supplies[k // 2] = 0.0  # a row that needs no round
            for cost, supply, sol in zip(costs, supplies, min_cost_flows(costs, supplies)):
                alone, = min_cost_flows(cost, supply[None])
                assert sol.flow.tobytes() == alone.flow.tobytes()
                assert sol.potential.tobytes() == alone.potential.tobytes()
            # one matrix repeated is the shared matrix, broadcast
            repeated = min_cost_flows(np.repeat(costs[:1], k, axis=0), supplies)
            for sol, shared in zip(repeated, min_cost_flows(costs[0], supplies)):
                assert sol.flow.tobytes() == shared.flow.tobytes()
                assert sol.potential.tobytes() == shared.potential.tobytes()


def test_bad_cost_stacks_are_rejected():
    supplies = [[1.0, -1.0], [0.5, -0.5]]
    for shape in ((1, 2, 2), (3, 2, 2), (2, 2, 2, 2)):
        with pytest.raises(InputError, match="one matrix per supply row"):
            min_cost_flows(np.ones(shape), supplies)
    for shape in ((2, 2, 3), (2, 3, 3), (2,)):
        with pytest.raises(InputError, match="square"):
            min_cost_flows(np.ones(shape), supplies)
    with pytest.raises(InputError, match="nonnegative"):
        min_cost_flows(-np.ones((2, 2, 2)), supplies)
    assert min_cost_flows(np.ones((0, 2, 2)), np.zeros((0, 2))) == []


@st.composite
def _flow_instances(draw):
    """A cost matrix and supply rows: costs from a short list (so that paths
    tie) or spread, symmetric or not, and rows that may be all zero or use
    small integers (ties again)."""
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, 4))
    levels = draw(st.sampled_from([(0.5, 1.0, 1.5), (0.1, 2.0), None]))
    if levels is None:
        cost = np.array(draw(st.lists(st.floats(0.05, 3.0), min_size=n * n,
                                      max_size=n * n))).reshape(n, n)
    else:
        cost = np.array(draw(st.lists(st.sampled_from(levels), min_size=n * n,
                                      max_size=n * n))).reshape(n, n)
    if draw(st.booleans()):
        cost = np.minimum(cost, cost.T)
    np.fill_diagonal(cost, 0.0)
    rows = []
    for _ in range(k):
        kind = draw(st.sampled_from(["zero", "integer", "real"]))
        if kind == "zero":
            row = np.zeros(n)
        elif kind == "integer":
            row = np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)),
                           dtype=float)
        else:
            row = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
        row[-1] = -row[:-1].sum()
        rows.append(row)
    return cost, np.array(rows)


@settings(max_examples=150, deadline=None)
@given(_flow_instances())
def test_forest_flows_are_optimal_and_match_the_successive_shortest_paths(instance):
    """Each optimum within 1e-12 relative of the successive-shortest-path
    loop (optimal flows are not unique, their cost is), with conservation,
    dual feasibility and complementary slackness checked on every row."""
    cost, supplies = instance
    n = cost.shape[0]
    slack = 1e-12 * n * cost.max(initial=1.0)
    for supply, sol in zip(supplies, min_cost_flows(cost, supplies)):
        mass = float(np.abs(supply).sum())
        flow, y = sol.flow, sol.potential
        assert flow.min() >= 0.0 and y[-1] == 0.0
        net = flow.sum(axis=1) - flow.sum(axis=0)
        assert np.abs(net - supply).sum() <= 1e-12 * mass
        gap = y[:, None] - y[None, :] - cost
        assert gap.max() <= slack  # dual feasible
        assert np.abs(gap[flow > 0.0]).max(initial=0.0) <= slack  # tight where used
        value = float((flow * cost).sum())
        ref_flow, _ = loop_min_cost_flow(cost, supply)
        ref = float((ref_flow * cost).sum())
        if mass == 0.0:
            assert value == ref == 0.0 and not flow.any()
        assert value == pytest.approx(ref, rel=1e-12, abs=0.0)
        assert float(supply @ y) == pytest.approx(value, rel=1e-12, abs=1e-12 * mass)
