import math

import numpy as np
import pytest

from oracles import support_lp_value
from qmetric import lpcore, mk
from qmetric.algebra import Algebra, AlgState
from qmetric.errors import BoundViolation, InputError, UnsupportedSpec
from qmetric.funcspace import MatrixFunction, SeminormSpec, conv_spec, lipnorm
from qmetric.generate import (circle_net, random_alg_state, random_planar_space,
                              random_product_state)
from qmetric.metric import FiniteMetricSpace
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
    from qmetric.generate import random_sa_function
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
        flow_value, chans, support = mk._solve_support_flows(space, algebra, a, b, spec)
        dense_value = support_lp_value(space, algebra, a, b, spec)
        assert flow_value == pytest.approx(dense_value, rel=1e-12, abs=0.0)
        assert chans.shape == (len(support), sum(m * m for m in algebra.block_sizes))


def _recorded_flows(monkeypatch):
    """Route mk's flow solves through a recorder; forbid the dense simplex."""
    seen = []

    def record(cost, supply):
        sol = lpcore.min_cost_flow(cost, supply)
        seen.append((np.array(cost), np.array(supply), sol))
        return sol

    def no_tableau(*args, **kwargs):
        raise AssertionError("a dense tableau was built")

    monkeypatch.setattr(mk, "min_cost_flow", record)
    monkeypatch.setattr(mk, "solve", no_tableau)
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
