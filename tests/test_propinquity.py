import math

import numpy as np
import pytest

from oracles import loop_transport
from qmetric import metric
from qmetric.algebra import Algebra
from qmetric.errors import InputError
from qmetric.funcspace import MatrixFunction, conv_spec, lipnorm
from qmetric.generate import circle_net, random_product_state
from qmetric.metric import FiniteMetricSpace, epsilon_net
from qmetric.mk import mk_distance
from qmetric.propinquity import (Bridge, _match_elements, approx_table, build_bridge,
                                 match_element, propinquity_upper_bound)
from qmetric.states import tracial_functional

M2 = Algebra((2,))
EPS = 1e-3
CERT_KEYS = {"lipnorm_source", "lipnorm_matched", "source_shift",
             "q_at_source_shift", "w_defect", "w_defect_op_bound",
             "threshold", "ok"}


def _path(n, step=1.0):
    d = step * np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return FiniteMetricSpace(tuple("p%d" % i for i in range(n)), d.astype(float))


def _witness_on(space, rng):
    mu = random_product_state(space, M2, rng)
    nu = random_product_state(space, M2, rng)
    return mk_distance(space, M2, mu, nu, conv_spec()).witness


def test_bridge_admits_exactly_the_close_pairs():
    x = circle_net(8, "chord")
    bridge = build_bridge(x, x, x.dist, EPS, M2)
    offset = EPS / (8.0 * math.sqrt(2.0) * 2)
    assert bridge.delta_xy == 0.0
    assert bridge.threshold == pytest.approx(4.0 * offset, rel=1e-12)
    # the circle's shortest chord dwarfs the threshold, so only the
    # diagonal pairs qualify
    assert sorted(bridge.w_set) == [(i, i) for i in range(8)]
    assert bridge.joined_metric.size == 16


def test_bridge_rejects_bad_inputs():
    x = _path(3)
    with pytest.raises(InputError, match="positive"):
        build_bridge(x, x, x.dist, 0.0, M2)
    with pytest.raises(InputError, match="3x2"):
        build_bridge(x, _path(2), x.dist, EPS, M2)
    with pytest.raises(InputError, match="finite"):
        build_bridge(x, x, np.full((3, 3), np.nan), EPS, M2)


def test_identity_bridge_defect_is_the_cross_offset(rng):
    # cross distances get lifted by eps / (8 sqrt(2) m_A); matching a
    # unit-slope element with itself then costs exactly that lift, not zero
    x = circle_net(8, "chord")
    bridge = build_bridge(x, x, x.dist, EPS, M2)
    offset = EPS / (8.0 * math.sqrt(2.0) * 2)
    assert offset == pytest.approx(4.419417382415922e-05, abs=1e-18)
    mu = tracial_functional(M2, (1.0,), 0)
    nu = tracial_functional(M2, (1.0,), 4)
    steep = mk_distance(x, M2, mu, nu, conv_spec()).witness
    _, cert = match_element(bridge, steep)
    assert cert["w_defect"] == pytest.approx(offset, abs=1e-12)
    # witnesses that vary only algebraically can transport defect-free,
    # but never beyond the lift
    for _ in range(3):
        matched, cert = match_element(bridge, _witness_on(x, rng))
        assert cert["ok"] is True
        assert cert["w_defect"] <= offset + 1e-12
        assert lipnorm(matched, conv_spec()) <= 1.0 + 1e-7


def test_identity_bound_is_half_epsilon():
    x = circle_net(8, "chord")
    pub = propinquity_upper_bound(x, x, x.dist, EPS, M2, samples=2, seed=3)
    assert pub.bound == EPS / 2.0
    assert pub.delta_xy == 0.0
    assert len(pub.certificates) == 4
    assert {c["direction"] for c in pub.certificates} == {"forward", "backward"}


def test_certificate_shape_and_bound_formula(rng):
    x = _path(4)
    y = _path(2, step=3.0)
    # both Y points sit on X: y0 = p0, y1 = p3
    cross = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
    pub = propinquity_upper_bound(x, y, cross, EPS, M2, samples=2, seed=9)
    assert pub.delta_xy == 1.0  # p1 and p2 are 1 away from Y
    assert pub.bound == pytest.approx(
        math.sqrt(2.0) * 2 * pub.delta_xy + EPS / 2.0, rel=1e-12)
    for cert in pub.certificates:
        assert CERT_KEYS <= set(cert)
        assert cert["ok"] is True
        assert cert["lipnorm_matched"] <= 1.0 + 1e-7
        assert cert["q_at_source_shift"] <= 1.0 + 1e-7
        assert cert["w_defect"] <= cert["threshold"] + 1e-7
        assert cert["w_defect_op_bound"] == pytest.approx(
            math.sqrt(2.0) * 2 * cert["w_defect"], rel=1e-12)


def test_transport_equals_the_per_channel_loop(rng):
    """Channel-array transport matches the one-channel-at-a-time loop bit for bit."""
    m23 = Algebra((2, 3))
    x = circle_net(10, "chord")
    net = epsilon_net(x, 0.6)
    x_n = x.subspace(net)
    bridge = build_bridge(x_n, x, x.dist[np.ix_(net, range(x.size))], EPS, m23)
    for _ in range(3):
        mu = random_product_state(x_n, m23, rng)
        nu = random_product_state(x_n, m23, rng)
        a_fn = mk_distance(x_n, m23, mu, nu, conv_spec()).witness
        b_fn, _ = match_element(bridge, a_fn)
        for got, want in zip(b_fn.values, loop_transport(bridge, a_fn)):
            assert all(p.tobytes() == q.tobytes() for p, q in zip(got.blocks, want))


def test_batched_matching_equals_one_at_a_time(rng):
    """One batch certifies each element as match_element does alone, bit for
    bit, whether the element is made from channels or from values."""
    m23 = Algebra((2, 3))
    x = circle_net(10, "chord")
    net = epsilon_net(x, 0.6)
    x_n = x.subspace(net)
    bridge = build_bridge(x_n, x, x.dist[np.ix_(net, range(x.size))], EPS, m23)
    witnesses = []
    for _ in range(3):
        mu = random_product_state(x_n, m23, rng)
        nu = random_product_state(x_n, m23, rng)
        witnesses.append(mk_distance(x_n, m23, mu, nu, conv_spec()).witness)
    witnesses.insert(1, MatrixFunction(x_n, m23, witnesses[0].values))
    batch = _match_elements(bridge, witnesses)
    assert len(batch) == len(witnesses)
    for a_fn, (b_fn, cert) in zip(witnesses, batch):
        one_fn, one_cert = match_element(bridge, a_fn)
        assert repr(cert) == repr(one_cert)
        assert b_fn.channels.tobytes() == one_fn.channels.tobytes()
    assert _match_elements(bridge, []) == []


def test_bound_is_direction_independent():
    x = _path(4)
    y = _path(2, step=3.0)
    cross = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
    fwd = propinquity_upper_bound(x, y, cross, EPS, M2, samples=1, seed=0)
    bwd = propinquity_upper_bound(y, x, cross.T, EPS, M2, samples=1, seed=0)
    assert fwd.bound == bwd.bound
    assert fwd.delta_xy == bwd.delta_xy


def test_match_element_input_checks(rng):
    x = _path(3)
    y = _path(3)
    bridge = build_bridge(x, y, x.dist, EPS, M2)
    other = FiniteMetricSpace(("a", "b", "c"), x.dist)
    stray = _witness_on(other, rng)
    with pytest.raises(InputError, match="X side"):
        match_element(bridge, stray)


def test_bound_serialization_flags_the_delta_convention():
    x = circle_net(4, "chord")
    pub = propinquity_upper_bound(x, x, x.dist, EPS, M2, samples=1, seed=2)
    data = pub.to_json_dict()
    assert data["delta_is_embedding_hausdorff"] is True
    assert data["bound"] == pub.bound
    assert isinstance(data["certificates"], list)


def test_net_table_rows_and_formula():
    x = circle_net(16, "chord")
    diam = 2.0
    rows = approx_table(x, M2, [diam / 2, diam / 4], EPS, samples=1, seed=0)
    assert [set(("eps_n", "net_size", "hausdorff", "delta_xy", "bound"))
            <= set(r) for r in rows] == [True, True]
    for r in rows:
        assert r["hausdorff"] <= r["eps_n"] + 1e-12
        assert r["delta_xy"] <= r["hausdorff"] + 1e-12
        assert r["bound"] == pytest.approx(
            math.sqrt(2.0) * 2 * r["delta_xy"] + EPS / 2.0, rel=1e-12)
    assert rows[0]["net_size"] <= rows[1]["net_size"]


def test_net_schedule_validation():
    x = circle_net(4, "chord")
    with pytest.raises(InputError, match="nonempty"):
        approx_table(x, M2, [], EPS)
    with pytest.raises(InputError, match="positive"):
        approx_table(x, M2, [1.0, 0.0], EPS)
    with pytest.raises(InputError, match="decreasing"):
        approx_table(x, M2, [1.0, 1.0], EPS)


def test_bridge_is_a_plain_record():
    x = _path(2)
    bridge = build_bridge(x, x, x.dist, EPS, M2)
    assert isinstance(bridge, Bridge)
    assert bridge.epsilon == EPS
    assert bridge.x is x and bridge.y is x


def test_bridge_checks_the_joined_triangle_inequality_once(monkeypatch):
    x = circle_net(8, "chord")
    shapes = []
    real = metric._triangle_violation

    def counted(d, tol, split=None):
        shapes.append(d.shape)
        return real(d, tol, split)

    monkeypatch.setattr(metric, "_triangle_violation", counted)
    bridge = build_bridge(x, x, x.dist, EPS, M2)
    assert shapes == [(16, 16)]
    monkeypatch.undo()
    full = FiniteMetricSpace(bridge.joined_metric.labels, bridge.joined.full_matrix())
    assert np.array_equal(bridge.joined_metric.dist, full.dist)
    # a cross matrix that breaks the triangle inequality still fails there
    far = np.full((3, 3), 5.0)
    far[0, 0] = far[0, 2] = 0.0
    with pytest.raises(InputError, match="joined metric fails the triangle"):
        build_bridge(_path(3), _path(3), far, EPS, M2)
