import json
import math

import numpy as np
import pytest

from oracles import (loop_pairing_vector, per_pair_embed_check, polygon_lp_value,
                     support_lp_value)
from qmetric import lpcore, mk
from qmetric.algebra import Algebra, AlgElement, AlgState, tracial_state, vector_state
from qmetric.errors import BoundViolation, InputError, UnsupportedSpec
from qmetric.funcspace import (MatrixFunction, SeminormSpec, conv_spec, from_channels,
                               lipnorm)
from qmetric.generate import (circle_net, random_alg_state, random_planar_space,
                              random_product_state)
from qmetric.metric import FiniteMetricSpace, scale
from qmetric.mk import diameter_cap, embed_check, mk_diameter_report, mk_distance
from qmetric.states import FunctionalState, delta_embed, evaluate, tracial_functional

M1 = Algebra((1,))
M2 = Algebra((2,))
M23 = Algebra((2, 3))


def _path(n, step=1.0):
    d = step * np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return FiniteMetricSpace(tuple("p%d" % i for i in range(n)), d.astype(float))


def _pairing(mu, nu, fn):
    return abs((evaluate(mu, fn) - evaluate(nu, fn)).real)


def _scaled_fn(fn, c):
    return MatrixFunction(fn.space, fn.algebra,
                          tuple(v.scaled(c) for v in fn.values))


def test_two_point_value_capped_by_radius_budget():
    # lip allows a swing of 3, the K=1 constraint allows only 1
    space = _path(2, step=3.0)
    mu = tracial_functional(M2, (1.0,), 0)
    nu = tracial_functional(M2, (1.0,), 1)
    spec = SeminormSpec("real_max", "conv_K", K=1.0)
    res = mk_distance(space, M2, mu, nu, spec)
    assert res.kind == "exact"
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_classical_points_recover_short_distances():
    space = _path(4, step=0.3)  # diameter 0.9, below every cap
    for x in range(4):
        for y in range(x + 1, 4):
            mu = tracial_functional(M23, (0.5, 0.5), x)
            nu = tracial_functional(M23, (0.5, 0.5), y)
            res = mk_distance(space, M23, mu, nu, conv_spec())
            assert res.value == pytest.approx(space.dist[x, y], abs=1e-9)


def test_same_state_gives_zero_and_symmetry_holds(rng):
    space = _path(3)
    for _ in range(5):
        mu = random_product_state(space, M2, rng)
        nu = random_product_state(space, M2, rng)
        assert mk_distance(space, M2, mu, mu, conv_spec()).value <= 1e-9
        ab = mk_distance(space, M2, mu, nu, conv_spec()).value
        ba = mk_distance(space, M2, nu, mu, conv_spec()).value
        assert ab == pytest.approx(ba, abs=1e-9)


def test_triangle_inequality_on_sampled_triples(rng):
    space = _path(3)
    spec = conv_spec()
    for _ in range(5):
        states = [random_product_state(space, M2, rng) for _ in range(3)]
        d01 = mk_distance(space, M2, states[0], states[1], spec).value
        d12 = mk_distance(space, M2, states[1], states[2], spec).value
        d02 = mk_distance(space, M2, states[0], states[2], spec).value
        assert d02 <= d01 + d12 + 1e-9


@pytest.mark.parametrize("norm_kind", ["operator", "max", "real_max"])
def test_pointwise_scalar_quotient_is_refused(norm_kind):
    space = _path(2)
    mu = tracial_functional(M2, (1.0,), 0)
    nu = tracial_functional(M2, (1.0,), 1)
    with pytest.raises(UnsupportedSpec):
        mk_distance(space, M2, mu, nu,
                    SeminormSpec(norm_kind, "quotient_CX"))


def test_exact_results_carry_valid_witnesses(rng):
    space = _path(3)
    specs = [conv_spec(),
             SeminormSpec("real_max", "conv_K", K=0.7),
             SeminormSpec("real_max", "quotient_C")]
    for spec in specs:
        mu = random_product_state(space, M23, rng)
        nu = random_product_state(space, M23, rng)
        res = mk_distance(space, M23, mu, nu, spec)
        assert res.kind == "exact"
        assert lipnorm(res.witness, spec) <= 1.0 + 1e-7
        assert _pairing(mu, nu, res.witness) == pytest.approx(
            res.value, abs=1e-7 * max(1.0, res.value))


def test_state_anchored_spec_frozen_value():
    # classical two-point space, distance 3, recentring at the left point:
    # the q constraint pins |a(1) - a(0)| at 1 before lip can reach 3
    space = _path(2, step=3.0)
    mu = tracial_functional(M1, (1.0,), 0)
    nu = tracial_functional(M1, (1.0,), 1)
    spec = SeminormSpec("real_max", "state", state=mu)
    res = mk_distance(space, M1, mu, nu, spec)
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert lipnorm(res.witness, spec) <= 1.0 + 1e-7


def test_state_recentring_uses_channels_only_the_reference_reads():
    # psi = |+><+| at p0 reads the off-diagonal channel, which the tracial
    # pairing does not: a(p0) = [[1, -1], [-1, 1]], a(p1) = -1 has psi(a) = 0,
    # q term 1 and slope 2/3, and pairs to 2, twice the diagonal-only best
    space = _path(2, step=3.0)
    mu = tracial_functional(M2, (1.0,), 0)
    nu = tracial_functional(M2, (1.0,), 1)
    plus = AlgState((1.0,), (np.full((2, 2), 0.5),))
    spec = SeminormSpec("real_max", "state", state=delta_embed(plus, 0))
    res = mk_distance(space, M2, mu, nu, spec)
    assert res.value == pytest.approx(2.0, abs=1e-12)
    assert lipnorm(res.witness, spec) <= 1.0 + 1e-7
    assert _pairing(mu, nu, res.witness) == pytest.approx(2.0, abs=1e-12)


def test_operator_interval_brackets_the_truth(rng):
    space = _path(3)
    mu = tracial_functional(M2, (1.0,), 0)
    nu = tracial_functional(M2, (1.0,), 2)
    exact = mk_distance(space, M2, mu, nu, conv_spec())
    op_spec = SeminormSpec("operator", "conv")
    res = mk_distance(space, M2, mu, nu, op_spec)
    assert res.kind == "interval"
    scale = math.sqrt(2.0) * M2.max_block
    assert res.upper == pytest.approx(exact.value, abs=1e-9)
    assert res.lower == pytest.approx(exact.value / scale, abs=1e-9)
    # the rescaled exact witness certifies the lower endpoint is attained
    shrunk = _scaled_fn(exact.witness, 1.0 / scale)
    assert lipnorm(shrunk, op_spec) <= 1.0 + 1e-9
    assert _pairing(mu, nu, shrunk) >= res.lower - 1e-9
    # sampled feasible elements never beat the upper endpoint
    from helpers import random_sa_function
    for _ in range(20):
        fn = random_sa_function(space, M2, rng)
        l_op = lipnorm(fn, op_spec)
        if l_op < 1e-9:
            continue
        assert _pairing(mu, nu, _scaled_fn(fn, 1.0 / l_op)) <= res.upper + 1e-7


def test_refined_max_interval_is_tight(rng):
    space = _path(3)
    spec = SeminormSpec("max", "conv")
    for _ in range(5):
        mu = delta_embed(random_alg_state(M2, rng), 0)
        nu = delta_embed(random_alg_state(M2, rng), 2)
        base = mk_distance(space, M2, mu, nu, spec)
        fine = mk_distance(space, M2, mu, nu, spec, refine=True)
        assert base.lower - 1e-12 <= fine.lower
        assert fine.upper <= base.upper + 1e-12
        assert fine.lower <= fine.upper + 1e-12
        if fine.upper > 1e-12:
            assert (fine.upper / fine.lower
                    <= 1.0 / math.cos(math.pi / 16.0) + 1e-9)


def test_radius_budget_scales_with_the_metric(rng):
    base = _path(3)
    c = 2.5
    scaled = FiniteMetricSpace(base.labels, c * base.dist)
    for _ in range(3):
        mu = random_product_state(base, M2, rng)
        nu = random_product_state(base, M2, rng)
        v1 = mk_distance(base, M2, mu, nu,
                         SeminormSpec("real_max", "conv_K", K=0.8)).value
        v2 = mk_distance(scaled, M2, mu, nu,
                         SeminormSpec("real_max", "conv_K", K=c * 0.8)).value
        assert v2 == pytest.approx(c * v1, abs=1e-9)


def test_distance_caps_by_family():
    assert diameter_cap(M23, conv_spec()) == pytest.approx(6 * math.sqrt(2.0))
    assert diameter_cap(M2, SeminormSpec("real_max", "conv_K", K=3.0)) \
        == pytest.approx(6 * math.sqrt(2.0))
    with pytest.raises(UnsupportedSpec):
        diameter_cap(M2, SeminormSpec("real_max", "quotient_CX"))


def test_diameter_report_respects_cap(rng):
    space = _path(3)
    pairs = [(random_product_state(space, M2, rng),
              random_product_state(space, M2, rng)) for _ in range(4)]
    report = mk_diameter_report(space, M2, conv_spec(), pairs)
    assert report["samples"] == 4
    assert len(report["values"]) == 4
    assert report["max_observed"] == pytest.approx(max(report["values"]))
    assert report["max_observed"] <= report["cap"] + 1e-9
    assert report["violated"] is False


def test_embedding_matches_metric_up_to_constants():
    space = _path(4)  # diameter 3, so distances above the swing cap shrink
    report = embed_check(space, M2, (1.0,), conv_spec())
    assert report["upper_constant"] == 1.0
    assert report["lower_constant"] == pytest.approx(1.0 / 3.0)
    assert report["violated"] is False
    by_pair = {(r["x"], r["y"]): r["mk"] for r in report["pairs"]}
    assert by_pair[("p0", "p1")] == pytest.approx(1.0, abs=1e-9)
    assert by_pair[("p0", "p3")] == pytest.approx(2.0, abs=1e-9)


def test_embedding_check_needs_exact_spec():
    with pytest.raises(UnsupportedSpec):
        embed_check(_path(2), M2, (1.0,), SeminormSpec("operator", "conv"))


def _embed_spec(q_kind, rng, space, algebra):
    if q_kind.startswith("conv_K"):
        return SeminormSpec("real_max", "conv_K", K=float(q_kind.split("=")[1]))
    if q_kind == "state":
        own = sorted(rng.choice(space.size, size=min(space.size, 3), replace=False))
        return SeminormSpec("real_max", "state",
                            state=_spread_state(space, algebra, rng, own))
    return SeminormSpec("real_max", q_kind)


@pytest.mark.parametrize("q_kind", ["conv", "conv_K=0.5", "conv_K=3", "quotient_C", "state"])
@pytest.mark.parametrize("algebra, v", [(M2, (1.0,)), (M23, (0.3, 0.7))], ids=["M2", "M23"])
def test_embedding_rows_match_the_per_pair_oracle(q_kind, algebra, v, rng):
    """Solving a row of pairs at a time and certifying each witness alone
    gives mk_distance's report, one pair at a time, bit for bit."""
    spaces = [circle_net(n) for n in (1, 2, 3, 5, 8, 12)]
    spaces += [random_planar_space(n, rng) for n in (1, 4, 7, 10)]
    for space in spaces:
        spec = _embed_spec(q_kind, rng, space, algebra)
        got = embed_check(space, algebra, v, spec)
        assert json.dumps(got) == json.dumps(per_pair_embed_check(space, algebra, v, spec))
        assert len(got["pairs"]) == space.size * (space.size - 1) // 2


@pytest.mark.parametrize("q_kind", ["conv", "conv_K=0.5", "quotient_C"])
@pytest.mark.parametrize("n", [2, 3, 9])
def test_embedding_solves_one_row_per_flow_call(monkeypatch, q_kind, n, rng):
    """n - 1 min_cost_flows calls, one per row of pairs, each with at most
    (n - 1) sum m^2 supply rows; every witness is certified on its own."""
    calls, batches = [], []
    flows, certify = mk.min_cost_flows, mk._certify_witnesses
    monkeypatch.setattr(mk, "min_cost_flows",
                        lambda cost, supply: calls.append(supply.shape) or flows(cost, supply))
    monkeypatch.setattr(mk, "_certify_witnesses",
                        lambda *args: batches.append(len(args[3])) or certify(*args))
    space = random_planar_space(n, rng)
    embed_check(space, M23, (0.3, 0.7), _embed_spec(q_kind, rng, space, M23))
    assert len(calls) == n - 1
    assert all(rows <= (n - 1) * sum(m * m for m in M23.block_sizes) for rows, _ in calls)
    assert batches == [1] * (n * (n - 1) // 2)


@pytest.mark.parametrize("reference", ["outside", "blocks"])
def test_embedding_checks_the_reference_state_on_one_point(monkeypatch, rng, reference):
    """A one-point space has no pairs, yet a bad reference state is an
    InputError, raised before any flow call."""
    monkeypatch.setattr(mk, "min_cost_flows", lambda *args: pytest.fail("flow call"))
    point = _path(1)
    if reference == "outside":
        state = delta_embed(random_alg_state(M2, rng), 5)
    else:
        state = delta_embed(random_alg_state(M23, rng), 0)
    spec = SeminormSpec("real_max", "state", state=state)
    with pytest.raises(InputError):
        embed_check(point, M2, (1.0,), spec)
    with pytest.raises(InputError):
        embed_check(_path(3), M2, (1.0,), spec)


def test_solver_tableau_dump(tmp_path):
    out = tmp_path / "mk.csv"
    mu = tracial_functional(M2, (1.0,), 0)
    nu = tracial_functional(M2, (1.0,), 1)
    mk_distance(_path(2), M2, mu, nu, conv_spec(), dump_csv=str(out))
    assert out.exists() and out.stat().st_size > 0


def test_state_outside_space_is_rejected(rng):
    space = _path(3)
    stray = delta_embed(random_alg_state(M2, rng), 7)
    mu = tracial_functional(M2, (1.0,), 0)
    with pytest.raises(InputError, match="outside the space"):
        mk_distance(space, M2, mu, stray, conv_spec())


def test_state_with_wrong_block_shapes_is_rejected(rng):
    space = _path(2)
    wrong = delta_embed(random_alg_state(M2, rng), 0)
    mu = tracial_functional(M23, (0.5, 0.5), 1)
    with pytest.raises(InputError):
        mk_distance(space, M23, mu, wrong, conv_spec())


def _spread_state(space, algebra, rng, points):
    """Random weights and a random algebra state on each of the given points."""
    w = rng.dirichlet(np.ones(len(points)))
    return FunctionalState(tuple((float(wt), int(p), random_alg_state(algebra, rng))
                                 for wt, p in zip(w, points)))


def _flow_spec(q_kind, rng, space, algebra):
    if q_kind == "conv_K":
        return SeminormSpec("real_max", "conv_K", K=float(rng.uniform(0.2, 3.0)))
    if q_kind == "state":
        n = space.size
        own = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        return SeminormSpec("real_max", "state",
                            state=_spread_state(space, algebra, rng, own))
    return SeminormSpec("real_max", q_kind)


@pytest.mark.parametrize("q_kind", ["conv", "conv_K", "quotient_C", "state"])
@pytest.mark.parametrize("algebra", [M1, M2, M23], ids=["M1", "M2", "M23"])
@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_flow_path_equals_the_dense_support_lp(n, algebra, q_kind, rng):
    space = random_planar_space(n, rng, box=float(rng.choice([0.3, 1.0, 4.0])))
    spec = _flow_spec(q_kind, rng, space, algebra)
    some = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
    rest = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
    mu = _spread_state(space, algebra, rng, some)
    cases = [(mu, _spread_state(space, algebra, rng, rest)),  # partial support
             (_spread_state(space, algebra, rng, range(n)),
              _spread_state(space, algebra, rng, range(n))),
             (mu, mu),
             # tracial points: every off-diagonal channel is identically zero
             (tracial_functional(algebra, (1.0 / algebra.n_blocks,) * algebra.n_blocks, 0),
              tracial_functional(algebra, (1.0 / algebra.n_blocks,) * algebra.n_blocks,
                                 n - 1))]
    for a, b in cases:
        sup = mk._restrict(space, algebra, a, b, spec)
        flow_value, chans, _, _ = mk._support_optimum(sup)
        dense_value = support_lp_value(space, algebra, a, b, spec)
        assert flow_value == pytest.approx(dense_value, rel=1e-12, abs=0.0)
        assert chans.shape == (len(sup.points), sum(m * m for m in algebra.block_sizes))


def _recorded_flows(monkeypatch):
    """Route mk's flow solves through a recorder; forbid the simplex."""
    seen = []

    def record(cost, supplies):
        sols = lpcore.min_cost_flows(cost, supplies)
        seen.extend((np.array(cost), np.array(supply), sol)
                    for supply, sol in zip(supplies, sols))
        return sols

    def no_simplex(*args, **kwargs):
        raise AssertionError("a polygon LP was solved")

    monkeypatch.setattr(mk, "min_cost_flows", record)
    monkeypatch.setattr(mk, "solve", no_simplex)
    return seen


def _certified_flows(monkeypatch):
    """Record the arguments of every flow certificate mk checks."""
    seen = []
    real = mk._certify_flows

    def record(*args):
        seen.append(args)
        return real(*args)

    monkeypatch.setattr(mk, "_certify_flows", record)
    return seen


def test_flow_certificate_rejects_tampered_flows(monkeypatch, rng):
    space = _path(4)
    mu = _spread_state(space, M2, rng, [0, 1])
    nu = _spread_state(space, M2, rng, [2, 3])
    seen = _certified_flows(monkeypatch)
    for spec in (SeminormSpec("real_max", "conv_K", K=1.5),
                 SeminormSpec("real_max", "state",
                              state=_spread_state(space, M2, rng, [1, 2]))):
        value = mk_distance(space, M2, mu, nu, spec).value
        cost, beta, flows, certified = seen.pop()
        assert certified == value
        mk._certify_flows(cost, beta, flows, value)  # the genuine flows pass

        def tampered(edit):
            ch, supply, sol = flows[0]
            flow = sol.flow.copy()
            edit(flow)
            bad = lpcore.FlowSolution(flow, sol.potential)
            return [(ch, supply, bad)] + flows[1:]

        def bump(flow):
            flow[0, 1] += 0.1

        def circulate(flow):
            flow[0, 2] += 0.1
            flow[2, 0] += 0.1

        def reverse(flow):
            flow[1, 0] = -0.1

        for edit, match in ((bump, "miss the supplies"),
                            (circulate, "does not certify"),
                            (reverse, "negative flow")):
            with pytest.raises(BoundViolation, match=match):
                mk._certify_flows(cost, beta, tampered(edit), value)
        with pytest.raises(BoundViolation, match="does not certify"):
            mk._certify_flows(cost, beta, flows, value * (1.0 + 1e-5))



_GAMMA_IN = math.cos(math.pi / 16.0)


@pytest.mark.parametrize("q_kind", ["conv", "conv_K", "quotient_C", "state"])
@pytest.mark.parametrize("algebra", [M1, M2, M23], ids=["M1", "M2", "M23"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_refined_interval_equals_the_coupled_polygon_lps(n, algebra, q_kind, rng):
    """Both refine endpoints against the coupled 16-gon LPs of the oracle,
    which has a free recentring scalar (conv kinds) or a psi row (state)."""
    space = random_planar_space(n, rng, box=float(rng.choice([0.3, 1.0, 4.0])))
    rm_spec = _flow_spec(q_kind, rng, space, algebra)
    spec = SeminormSpec("max", q_kind, K=rm_spec.K, state=rm_spec.state)
    some = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
    cases = [(_spread_state(space, algebra, rng, range(n)),
              _spread_state(space, algebra, rng, range(n))),
             (_spread_state(space, algebra, rng, some),
              _spread_state(space, algebra, rng, some[::-1]))]
    for mu, nu in cases:
        res = mk_distance(space, algebra, mu, nu, spec, refine=True)
        v_rm = support_lp_value(space, algebra, mu, nu, rm_spec)
        sup = mk._restrict(space, algebra, mu, nu, rm_spec)
        rows, bounds, entries = mk._polygon(sup, algebra)
        for gamma in (_GAMMA_IN, 1.0):
            value = mk._support_optimum(sup, (rows, gamma * bounds, entries))[0]
            ref = polygon_lp_value(space, algebra, mu, nu, rm_spec, gamma)
            # abs: an exact 0 (one point under conv kinds) comes back as rounding
            assert value == pytest.approx(ref, rel=1e-12, abs=1e-15)
            if gamma == 1.0:
                assert res.upper == pytest.approx(min(v_rm, ref), rel=1e-12, abs=1e-15)
            else:
                assert res.lower == pytest.approx(max(v_rm / math.sqrt(2.0), ref),
                                                  rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("q_kind", ["conv", "conv_K", "quotient_C", "state"])
def test_refined_interval_edge_cases(q_kind, rng):
    space = random_planar_space(4, rng)
    rm_spec = _flow_spec(q_kind, rng, space, M23)
    spec = SeminormSpec("max", q_kind, K=rm_spec.K, state=rm_spec.state)
    mu = _spread_state(space, M23, rng, range(4))
    res = mk_distance(space, M23, mu, mu, spec, refine=True)
    assert (res.lower, res.upper) == (0.0, 0.0)
    # M1 has no off-diagonal entry: the polygons bound nothing
    rm_spec = _flow_spec(q_kind, rng, space, M1)
    spec = SeminormSpec("max", q_kind, K=rm_spec.K, state=rm_spec.state)
    mu, nu = (_spread_state(space, M1, rng, range(4)) for _ in range(2))
    res = mk_distance(space, M1, mu, nu, spec, refine=True)
    exact = mk_distance(space, M1, mu, nu, rm_spec).value
    assert res.lower == res.upper == exact


def test_refine_certificate_rejects_tampered_lp_results(monkeypatch, rng):
    space = _path(3)
    mu = _spread_state(space, M2, rng, [0, 1])
    nu = _spread_state(space, M2, rng, [1, 2])
    spec = SeminormSpec("max", "conv")
    genuine = mk_distance(space, M2, mu, nu, spec, refine=True)
    real = lpcore._simplex

    def negative(x, weights):
        weights[np.flatnonzero(weights == 0.0)[0]] = -0.1

    def reweigh(x, weights):
        weights[weights.argmax()] *= 1.5

    def stretch(x, weights):
        x *= 2.0

    for edit, match in ((negative, "negative weight"),
                        (reweigh, "miss the objective"),
                        (stretch, "exceeds row")):
        def tampered(*args, edit=edit):
            x, weights = real(*args)
            edit(x, weights)
            return x, weights

        monkeypatch.setattr(lpcore, "_simplex", tampered)
        with pytest.raises(BoundViolation, match=match):
            mk_distance(space, M2, mu, nu, spec, refine=True)
    monkeypatch.setattr(lpcore, "_simplex", real)
    again = mk_distance(space, M2, mu, nu, spec, refine=True)
    assert (again.lower, again.upper) == (genuine.lower, genuine.upper)

def test_32_point_full_support_is_certified_from_both_sides(monkeypatch, rng):
    space = circle_net(32, "chord")
    mu = _spread_state(space, M23, rng, range(32))
    nu = _spread_state(space, M23, rng, range(32))
    spec = conv_spec()
    seen = _recorded_flows(monkeypatch)
    res = mk_distance(space, M23, mu, nu, spec)
    assert res.kind == "exact"
    lower = _pairing(mu, nu, res.witness) / max(1.0, lipnorm(res.witness, spec))
    upper = 0.0
    for cost, supply, sol in seen:
        assert sol.flow.min() >= 0.0
        net = sol.flow.sum(axis=1) - sol.flow.sum(axis=0)
        assert np.abs(net - supply).max() <= 1e-12
        upper += float((sol.flow * cost).sum())
    assert len(seen) == 13  # every channel of M2+M3 carries pairing mass
    assert upper - lower <= lpcore.TAU_LP * max(1.0, res.value)
    assert lower <= res.value <= upper + 1e-12


def test_16_point_full_support_state_is_certified_from_both_sides(monkeypatch, rng):
    space = circle_net(16, "chord")
    mu, nu, psi = (_spread_state(space, M23, rng, range(16)) for _ in range(3))
    spec = SeminormSpec("real_max", "state", state=psi)
    _recorded_flows(monkeypatch)
    seen = _certified_flows(monkeypatch)
    res = mk_distance(space, M23, mu, nu, spec)
    assert res.kind == "exact"
    lower = _pairing(mu, nu, res.witness) / max(1.0, lipnorm(res.witness, spec))
    (cost, _, flows, certified), = seen
    assert certified == res.value
    upper = 0.0
    for _, supply, sol in flows:
        assert sol.flow.min() >= 0.0
        net = sol.flow.sum(axis=1) - sol.flow.sum(axis=0)
        assert np.abs(net - supply).max() <= 1e-12
        upper += float((sol.flow * cost).sum())
    assert len(flows) == 13
    assert upper - lower <= lpcore.TAU_LP * max(1.0, res.value)
    assert lower - 1e-12 <= res.value <= upper + 1e-12


def test_state_distance_is_symmetric_and_vanishes_on_the_diagonal(rng):
    space = random_planar_space(5, rng)
    for _ in range(4):
        mu, nu = (_spread_state(space, M23, rng, range(5)) for _ in range(2))
        own = sorted(rng.choice(5, size=int(rng.integers(1, 6)), replace=False))
        spec = SeminormSpec("real_max", "state",
                            state=_spread_state(space, M23, rng, own))
        ab = mk_distance(space, M23, mu, nu, spec).value
        assert ab > 0.0
        assert mk_distance(space, M23, nu, mu, spec).value == pytest.approx(
            ab, rel=1e-12, abs=0.0)
        assert mk_distance(space, M23, mu, mu, spec).value == 0.0


def test_flow_dump_has_one_section_per_channel(tmp_path):
    out = tmp_path / "mk.csv"
    mu = tracial_functional(M23, (0.5, 0.5), 0)
    nu = tracial_functional(M23, (0.5, 0.5), 2)
    mk_distance(_path(3), M23, mu, nu, conv_spec(), dump_csv=str(out))
    lines = out.read_text().splitlines()
    # tracial states read the five diagonal channels only
    assert [ln for ln in lines if ln.startswith("#")] == [
        "# channel %d" % ch for ch in (0, 1, 4, 5, 6)]
    assert lines[1] == ("node,supply,potential,flow to p0,flow to p2,"
                        "flow to anchor")
    assert [ln.split(",")[0] for ln in lines[2:5]] == ["p0", "p2", "anchor"]
    # the state q kind: the multiplier, then the certifying flows, whose
    # supplies are gain - lam psi with psi = mu here
    state_spec = SeminormSpec("real_max", "state", state=mu)
    value = mk_distance(_path(3), M23, mu, nu, state_spec,
                        dump_csv=str(out)).value
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# multiplier ")
    lam = float(lines[0].split()[-1])
    assert [ln for ln in lines[1:] if ln.startswith("#")] == [
        "# channel %d" % ch for ch in (0, 1, 4, 5, 6)]
    dual = 0.0
    for k, coef in enumerate((0.25, 0.25, 1 / 6, 1 / 6, 1 / 6)):
        section = lines[2 + 5 * k:6 + 5 * k]
        assert section[0] == lines[2]
        rows = {ln.split(",")[0]: [float(v) for v in ln.split(",")[1:]]
                for ln in section[1:]}
        assert rows["p0"][0] == pytest.approx((1.0 - lam) * coef, abs=1e-11)
        assert rows["p2"][0] == pytest.approx(-coef, abs=1e-11)
        assert rows["anchor"][0] == pytest.approx(lam * coef, abs=1e-11)
        dual += sum(r[0] * r[1] for r in rows.values())
    assert dual == pytest.approx(value, abs=1e-10)


def test_embedding_builds_one_tracial_state(monkeypatch):
    calls = []
    real = mk.tracial_state

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(mk, "tracial_state", counted)
    embed_check(_path(4), M2, (1.0,), conv_spec())
    assert len(calls) == 1


@pytest.mark.parametrize("c", [1e-8, 1.0, 1e8, 1e9, 1e12])
def test_conv_values_are_scale_covariant(rng, c):
    """Scaling the distances and K by c scales a conv_K distance by c.

    conv is conv_K with K = 2, so scaling only the distances makes it c
    times conv_K with K = 2 / c on the unscaled space.  At c = 1e12 the
    witness pairing's rounding is far above 1e-7 in absolute terms.  The
    spread states have full support; the one-point pair below extends its
    witness off the support, with channel gaps of about c."""
    for space in (circle_net(8), random_planar_space(8, rng, box=10.0)):
        mu, nu = (_spread_state(space, M23, rng, range(8)) for _ in range(2))
        scaled = FiniteMetricSpace(space.labels, c * space.dist)
        base = mk_distance(space, M23, mu, nu, SeminormSpec("real_max", "conv_K", K=0.7))
        got = mk_distance(scaled, M23, mu, nu, SeminormSpec("real_max", "conv_K", K=0.7 * c))
        assert got.value == pytest.approx(c * base.value, rel=1e-12, abs=0.0)
        want = mk_distance(space, M23, mu, nu, SeminormSpec("real_max", "conv_K", K=2.0 / c))
        got = mk_distance(scaled, M23, mu, nu, conv_spec())
        assert got.value == pytest.approx(c * want.value, rel=1e-12, abs=0.0)
    if c >= 1e8:
        space = circle_net(5, "chord")
        mu = tracial_functional(M2, (1.0,), 0)
        nu = FunctionalState(((1.0, 2, vector_state(M2, 0, [1, 0])),))
        base = mk_distance(space, M2, mu, nu, SeminormSpec("real_max", "conv_K", K=1.0))
        got = mk_distance(scale(space, c), M2, mu, nu, SeminormSpec("real_max", "conv_K", K=c))
        assert got.kind == "exact"
        assert got.value == pytest.approx(c * base.value, rel=1e-12, abs=0.0)


def test_exact_distance_builds_no_algebra_element(monkeypatch, rng):
    """The witness stays in stacks through extension and certification."""
    space = circle_net(12, "chord")
    mu, nu = (_spread_state(space, M23, rng, range(0, 12, 2)) for _ in range(2))
    made = []
    real = AlgElement.__post_init__
    monkeypatch.setattr(AlgElement, "__post_init__",
                        lambda self: (made.append(self), real(self)))
    for spec in (conv_spec(), SeminormSpec("real_max", "conv_K", K=0.5)):
        assert mk_distance(space, M23, mu, nu, spec).kind == "exact"
    assert made == []


def test_slack_negative_weight_is_no_support_point():
    """A weight a hair below 0 (within the state slack) used to reach the
    pairing but not the support, and mk_distance raised KeyError."""
    space = _path(3)
    tr = tracial_state(M2, (1.0,))
    mu = FunctionalState(((1.0, 0, tr), (-1e-12, 2, tr)))
    nu = FunctionalState(((1.0, 1, tr),))
    res = mk_distance(space, M2, mu, nu, conv_spec())
    assert res.value == pytest.approx(1.0, abs=1e-12)
    clean = FunctionalState(((1.0, 0, tr),))
    assert res.value == mk_distance(space, M2, clean, nu, conv_spec()).value


def test_pairing_vector_equals_the_per_term_loop_bit_for_bit(rng):
    for algebra in (M1, M2, M23, Algebra((3, 1, 4))):
        space = random_planar_space(9, rng)
        points = [0, 3, 3, 5, 8, 0, 7]  # repeated points accumulate in term order
        w = rng.dirichlet(np.ones(len(points)))
        w[2] = 0.0
        w /= w.sum()
        state = FunctionalState(tuple((float(wt), p, random_alg_state(algebra, rng))
                                      for wt, p in zip(w, points)))
        positions = {p: i for i, p in enumerate([0, 2, 3, 5, 7, 8])}
        other = _spread_state(space, algebra, rng, [8, 2, 2])
        got = mk._pairing_vectors(algebra, (state, other), positions)
        for vec, st in zip(got, (state, other)):
            assert vec.tobytes() == loop_pairing_vector(algebra, st, positions).tobytes()
        assert not got[0, 1].any()  # point 2 carries no term of the first state


def test_exact_witness_holds_only_its_channels(rng):
    """mk_distance returns a witness whose stacks were never built; read,
    they are bit for bit those of from_channels, and the JSON result is
    that of an eagerly built witness."""
    space = circle_net(10, "chord")
    for spec, points in ((conv_spec(), range(10)),
                         (SeminormSpec("real_max", "conv_K", K=0.5), range(0, 10, 3)),
                         (SeminormSpec("real_max", "state",
                                       state=_spread_state(space, M23, rng, [1, 4])),
                          range(10))):
        mu, nu = (_spread_state(space, M23, rng, points) for _ in range(2))
        res = mk_distance(space, M23, mu, nu, spec)
        fn = res.witness
        assert "stacks" not in vars(fn) and "values" not in vars(fn)
        assert fn.channels.shape == (10, 13) and not fn.channels.flags.writeable
        built = from_channels(space, M23, fn.channels).stacks
        assert [s.tobytes() for s in fn.stacks] == [s.tobytes() for s in built]
        eager = MatrixFunction(space, M23, fn.values)
        want = {"kind": "exact", "value": res.value, "witness": eager.to_json_dict()}
        assert json.dumps(res.to_json_dict()) == json.dumps(want)


def test_refine_sets_up_the_support_once(monkeypatch, rng):
    """One support, one flow call, and one row array that every entry LP
    of both polygons shares, not a copy each."""
    space = random_planar_space(5, rng)
    mu, nu = (_spread_state(space, M23, rng, range(5)) for _ in range(2))
    calls = {"restrict": 0, "flows": 0}
    real_restrict, real_flows, real_lp = mk._restrict, mk.min_cost_flows, mk.LinearProgram
    lps = []

    def restrict(*args):
        calls["restrict"] += 1
        return real_restrict(*args)

    def flows(*args):
        calls["flows"] += 1
        return real_flows(*args)

    monkeypatch.setattr(mk, "_restrict", restrict)
    monkeypatch.setattr(mk, "min_cost_flows", flows)
    monkeypatch.setattr(mk, "LinearProgram", lambda *args: lps.append(real_lp(*args)) or lps[-1])
    for q_kind in ("conv", "conv_K", "quotient_C"):
        rm_spec = _flow_spec(q_kind, rng, space, M23)
        spec = SeminormSpec("max", q_kind, K=rm_spec.K)
        calls.update(restrict=0, flows=0)
        lps.clear()
        mk_distance(space, M23, mu, nu, spec, refine=True)
        # one batched call serves the real_max value and both polygons
        assert calls == {"restrict": 1, "flows": 1}
        assert len(lps) == 8 and len({id(lp.rows) for lp in lps}) == 1
    spec = SeminormSpec("max", "state", state=_spread_state(space, M23, rng, [0, 2]))
    calls.update(restrict=0)
    mk_distance(space, M23, mu, nu, spec, refine=True)
    assert calls["restrict"] == 1


@pytest.mark.parametrize("q_kind", ["conv", "conv_K", "quotient_C"])
@pytest.mark.parametrize("algebra", [M1, M2, M23], ids=["M1", "M2", "M23"])
def test_shared_diagonal_flows_give_the_polygon_solve_bit_for_bit(q_kind, algebra, rng):
    space = random_planar_space(6, rng)
    spec = _flow_spec(q_kind, rng, space, algebra)
    for points in (range(6), [1, 4]):
        mu, nu = (_spread_state(space, algebra, rng, points) for _ in range(2))
        sup = mk._restrict(space, algebra, mu, nu, spec)
        _, z, flows, _ = mk._support_optimum(sup)
        rows, bounds, entries = mk._polygon(sup, algebra)
        for gamma in (_GAMMA_IN, 1.0):
            polygon = (rows, gamma * bounds, entries)
            alone = mk._support_optimum(sup, polygon)
            shared = mk._support_optimum(sup, polygon, (z, flows))
            assert np.float64(shared[0]).tobytes() == np.float64(alone[0]).tobytes()
            assert shared[1].tobytes() == alone[1].tobytes()


def _one_by_one(space, algebra, pairs, spec):
    """mk_distance per pair, each result or the message it raised."""
    out = []
    for mu, nu in pairs:
        try:
            out.append(mk_distance(space, algebra, mu, nu, spec))
        except BoundViolation as exc:
            out.append(str(exc))
    return out


@pytest.mark.parametrize("q_kind", ["conv", "conv_K", "quotient_C", "state"])
def test_batched_certificates_equal_mk_distance_pair_by_pair(monkeypatch, q_kind, rng):
    """One batch of exact distances certifies each pair as mk_distance does
    alone, bit for bit: values, witness channels, the certified lipnorm,
    the rescale branch for a witness just outside the ball, and the first
    failing pair's message."""
    space = random_planar_space(7, rng)
    spec = _flow_spec(q_kind, rng, space, M23)
    pairs = [tuple(_spread_state(space, M23, rng, points) for _ in range(2))
             for points in (range(7), [1, 4], [2], [0, 3, 6])]
    pairs.append((pairs[0][0], pairs[0][0]))
    sizes, real_lipnorms = [], mk._lipnorms

    def lipnorms(fns, spec):
        sizes.append(len(fns))
        return real_lipnorms(fns, spec)

    monkeypatch.setattr(mk, "_lipnorms", lipnorms)

    def check(tamper):
        """Pair 1 goes through tamper(value, z), after mk_distance's solve
        and after the batched solve; the batch against one by one."""
        key = mk._restrict(space, M23, *pairs[1], spec).gain.tobytes()
        real, real_optima = mk._support_optimum, mk._support_optima

        def optimum(sup, *args):
            value, z, flows, lam = real(sup, *args)
            if sup.gain.tobytes() == key:
                value, z = tamper(value, z)
            return value, z, flows, lam

        def optima(sups):
            return [tamper(*found) if sup.gain.tobytes() == key else found
                    for sup, found in zip(sups, real_optima(sups))]

        monkeypatch.setattr(mk, "_support_optimum", optimum)
        sizes.clear()
        want = _one_by_one(space, M23, pairs, spec)
        monkeypatch.setattr(mk, "_support_optimum", real)
        monkeypatch.setattr(mk, "_support_optima", optima)
        one_sizes = sizes[:]
        sizes.clear()
        try:
            got = mk._exact_distances(space, M23, pairs, spec)
        except BoundViolation as exc:
            assert str(exc) == next(w for w in want if isinstance(w, str))
            return one_sizes, None
        finally:
            monkeypatch.setattr(mk, "_support_optima", real_optima)
        for (res, lip), one in zip(got, want):
            assert res.kind == "exact" and res.value == one.value
            assert res.witness.channels.tobytes() == one.witness.channels.tobytes()
            assert "stacks" not in vars(res.witness)
            assert json.dumps(res.to_json_dict()) == json.dumps(one.to_json_dict())
            assert lip == lipnorm(one.witness, spec)
        assert len(got) == len(pairs)
        return one_sizes, sizes[:]

    # one batched lipnorm for the five witnesses
    assert check(lambda value, z: (value, z)) == ([1] * 5, [5])
    # channels just outside the ball are rescaled and checked again alone
    assert check(lambda value, z: (value, (1.0 + 1e-6) * z)) == ([1, 1, 1, 1, 1, 1], [5, 1])
    # the second pair's value is off: the batch raises its message
    assert check(lambda value, z: (1.01 * value + 0.01, z)) == ([1] * 5, None)
    assert mk._exact_distances(space, M23, [], spec) == []


@pytest.mark.parametrize("q_kind", ["conv", "conv_K", "quotient_C"])
def test_exact_distances_make_one_flow_call_per_support_size(monkeypatch, q_kind, rng):
    """Every live channel of the pairs of one support size is solved in one
    min_cost_flows call: over a cost stack when several pairs share the
    size, over the one cost matrix when a pair is alone; each result is
    mk_distance's bit for bit."""
    space = random_planar_space(7, rng)
    spec = _flow_spec(q_kind, rng, space, M23)
    supports = ([1, 4], range(7), [2], [0, 5], [0, 3, 6], [3], range(7))
    pairs = [tuple(_spread_state(space, M23, rng, points) for _ in range(2))
             for points in supports]
    want = [mk_distance(space, M23, mu, nu, spec) for mu, nu in pairs]
    calls, real = [], mk.min_cost_flows

    def flows(cost, supplies):
        calls.append((np.shape(cost), len(supplies)))
        return real(cost, supplies)

    monkeypatch.setattr(mk, "min_cost_flows", flows)
    got = mk._exact_distances(space, M23, pairs, spec)
    # support sizes 2, 7, 1 and 3, plus the anchor, in order of first use
    assert [shape[-1] for shape, _ in calls] == [3, 8, 2, 4]
    assert [len(shape) for shape, _ in calls] == [3, 3, 3, 2]
    assert all(shape[0] == rows for shape, rows in calls[:3])
    for (res, _), one in zip(got, want):
        assert json.dumps(res.to_json_dict()) == json.dumps(one.to_json_dict())
