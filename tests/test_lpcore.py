import numpy as np
import pytest

from oracles import lp_by_vertices
from qmetric.errors import InputError
from qmetric.lpcore import LinearProgram, min_cost_flow, solve


def _lp(obj, pairs):
    return LinearProgram.from_pairs(np.array(obj, dtype=float),
                                    [(np.array(r, dtype=float), float(b))
                                     for r, b in pairs])


def test_single_variable_cap():
    sol = solve(_lp([1.0], [([1.0], 3.0)]))
    assert sol.status == "optimal"
    assert sol.optimum == pytest.approx(3.0, abs=1e-9)
    assert sol.x[0] == pytest.approx(3.0, abs=1e-9)


def test_two_variable_shared_cap():
    sol = solve(_lp([1.0, 1.0], [([1.0, 0.0], 1.0),
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
    sol = solve(_lp([1.0], [([-1.0], 0.0)]))
    assert sol.status == "unbounded"


def test_negative_bound_goes_through_phase_one():
    # x >= 2 encoded as -x <= -2, maximize -x + 7 cap: a negative bound is
    # refused, since solve starts from the slack basis and has no phase one
    with pytest.raises(InputError, match="nonnegative"):
        _lp([-1.0, 1.0], [([-1.0, 0.0], -2.0),
                          ([0.0, 1.0], 7.0),
                          ([1.0, 0.0], 10.0)])
    # the same program with x = 2 + x' has bounds >= 0 and solves directly
    sol = solve(_lp([-1.0, 1.0], [([-1.0, 0.0], 0.0),
                                  ([0.0, 1.0], 7.0),
                                  ([1.0, 0.0], 8.0)]))
    assert sol.status == "optimal"
    assert sol.optimum - 2.0 == pytest.approx(5.0, abs=1e-9)
    assert 2.0 + sol.x[0] == pytest.approx(2.0, abs=1e-9)


def test_free_variables_can_go_negative():
    sol = solve(_lp([-1.0], [([-1.0], 5.0)]))
    assert sol.status == "optimal"
    assert sol.optimum == pytest.approx(5.0, abs=1e-9)
    assert sol.x[0] == pytest.approx(-5.0, abs=1e-9)


def test_redundant_rows_are_harmless():
    sol = solve(_lp([1.0, 1.0], [([1.0, 0.0], 1.0),
                                 ([1.0, 0.0], 1.0),
                                 ([2.0, 0.0], 2.0),
                                 ([0.0, 1.0], 2.0)]))
    assert sol.optimum == pytest.approx(3.0, abs=1e-9)


def test_degenerate_vertex():
    # three constraints meeting at the optimum of a 2-d program
    sol = solve(_lp([1.0, 1.0], [([1.0, 0.0], 1.0),
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
    sol = solve(_lp(obj, rows))
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
        sol = solve(_lp(obj, rows))
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
        sol = solve(_lp(obj, rows))
        ref = lp_by_vertices(obj, [r for r, _ in rows], [b for _, b in rows])
        assert sol.optimum == pytest.approx(ref, abs=1e-7)


def test_weak_duality_spot_check():
    # dual multipliers (0, 0, 1) certify the shared-cap optimum
    rows = [([1.0, 0.0], 1.0), ([0.0, 1.0], 1.0), ([1.0, 1.0], 1.5)]
    sol = solve(_lp([1.0, 1.0], rows))
    y = np.array([0.0, 0.0, 1.0])
    a = np.array([r for r, _ in rows])
    b = np.array([bd for _, bd in rows])
    assert np.allclose(a.T @ y, [1.0, 1.0])  # dual feasibility for c
    assert sol.optimum <= float(b @ y) + 1e-9


def test_shape_validation():
    with pytest.raises(InputError):
        _lp([1.0, 2.0], [([1.0], 1.0)])
    with pytest.raises(InputError):
        solve(LinearProgram(np.zeros(0), np.zeros((0, 0)), np.zeros(0)))


def test_min_cost_flow_on_a_known_instance():
    # three points on a line and an anchor at distance 1 from each: each
    # outer supply goes straight to p1 (cost 1.5), not through the anchor (2)
    d = np.array([[0.0, 1.5, 3.0], [1.5, 0.0, 1.5], [3.0, 1.5, 0.0]])
    cost = np.ones((4, 4))
    cost[:3, :3] = d
    cost[3, 3] = 0.0
    sol = min_cost_flow(cost, [0.5, -1.0, 0.5, 0.0])
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
        sol = min_cost_flow(cost, supply)
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
        min_cost_flow(np.ones((2, 2)), [1.0, 0.0])
    with pytest.raises(InputError, match="nonnegative"):
        min_cost_flow(-np.ones((2, 2)), [1.0, -1.0])
    with pytest.raises(InputError, match="square"):
        min_cost_flow(np.ones((2, 3)), [1.0, -1.0])
    sol = min_cost_flow(np.ones((2, 2)), [0.0, 0.0])
    assert not sol.flow.any() and not sol.potential.any()
