import json
import math

import numpy as np
import pytest

from helpers import in_conv_unit_ball, random_sa_function
from oracles import (loop_realized_extension, loop_transport, one_at_a_time_bound,
                     one_at_a_time_table, stack_certificate)
from qmetric import funcspace, mcshane, metric, propinquity
from qmetric.algebra import AlgElement, Algebra
from qmetric.errors import BoundViolation, InputError
from qmetric.funcspace import MatrixFunction, conv_spec, lipnorm, to_channels
from qmetric.generate import circle_net, interval_net, random_planar_space, random_product_state
from qmetric.mcshane import extend_channels
from qmetric.metric import TAU_METRIC, FiniteMetricSpace, epsilon_net, scale
from qmetric.mk import mk_distance
from qmetric.propinquity import (Bridge, _bridge, _image_bounds, _match_elements, _transport,
                                 approx_table, build_bridge, match_element,
                                 propinquity_upper_bound)
from qmetric.states import tracial_functional

M2 = Algebra((2,))
EPS = 1e-3
CERT_KEYS = {"lipnorm_source", "lipnorm_matched", "source_shift",
             "q_at_source_shift", "w_defect", "w_defect_op_bound",
             "threshold", "ok"}


def _path(n, step=1.0):
    d = step * np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return FiniteMetricSpace(tuple("p%d" % i for i in range(n)), d.astype(float))


def _assert_matches_reference(got, want):
    """got's JSON is want's bit for bit, except that each forward
    lipnorm_matched, a certified bound, lies in [ref, ref (1 + 1e-12)],
    ref the reference's seminorm of the image, wherever ref is at least
    lipnorm_source.  Where ref is below it, the upper end is
    lipnorm_source (1 + 1e-12): the bound rests on the source's constants,
    and clipping at a channel's maximum can shorten the steepest pair."""
    got, want = json.loads(json.dumps(got)), json.loads(json.dumps(want))
    rows = [got] if isinstance(got, dict) else got
    certs = [c for row in rows for c in row["certificates"] if c["direction"] == "forward"]
    wants = [c for row in ([want] if isinstance(want, dict) else want)
             for c in row["certificates"] if c["direction"] == "forward"]
    assert len(certs) == len(wants)
    for cert, ref in zip(certs, wants):
        _assert_bounds_image(cert, ref["lipnorm_matched"])
        cert["lipnorm_matched"] = ref["lipnorm_matched"]
    assert json.dumps(got) == json.dumps(want)


def _assert_bounds_image(cert, seminorm):
    """A forward certificate's lipnorm_matched lies in [seminorm, seminorm
    (1 + 1e-12)], or, only where seminorm is below lipnorm_source, in
    [seminorm, lipnorm_source (1 + 1e-12)]."""
    if seminorm >= cert["lipnorm_source"]:
        assert seminorm <= cert["lipnorm_matched"] <= seminorm * (1.0 + 1e-12)
    else:
        assert seminorm <= cert["lipnorm_matched"] <= cert["lipnorm_source"] * (1.0 + 1e-12)


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
    for eps in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InputError, match="epsilon must be positive and finite"):
            build_bridge(x, x, x.dist, eps, M2)
        with pytest.raises(InputError, match="epsilon must be positive and finite"):
            approx_table(x, M2, [1.0], eps)
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


@pytest.mark.parametrize("algebra", [M2, Algebra((2, 3))], ids=["M2", "M23"])
def test_cross_block_transport_equals_the_joined_extension(algebra, rng):
    """Transport onto Y over the cross block gives, byte for byte, the Y
    rows of extend_channels over the whole joined metric: nets of one,
    several and all points, both directions of a bridge."""
    y = circle_net(12, "chord")
    sizes = []
    for eps_n in (10.0, 0.6, 1e-3):
        net = epsilon_net(y, eps_n)
        sizes.append(len(net))
        cross = y.dist[np.ix_(net, range(y.size))]
        forward = build_bridge(y.subspace(net), y, cross, EPS, algebra)
        backward = _bridge(forward.joined.mirrored(), cross.T, EPS, algebra)
        for bridge, k in ((forward, 1), (forward, 3), (backward, 2)):
            sources = [random_sa_function(bridge.x, algebra, rng) for _ in range(k)]
            _, b_chans, *_ = _transport(bridge, sources, [1.0] * k)
            nx = bridge.x.size
            ext = extend_channels(bridge.joined_metric, range(nx),
                                  np.hstack([to_channels(fn) for fn in sources]))
            assert b_chans.tobytes() == np.stack(np.split(ext[nx:], k, axis=1)).tobytes()
    assert sizes[0] == 1 and 1 < sizes[1] < 12 and sizes[2] == 12


@pytest.mark.parametrize("block", [mcshane._BLOCK, 32])
def test_transport_equals_the_point_loop(monkeypatch, rng, block):
    """Transport's tiled kernel, with each source channel's realized
    constant on X, gives the one-point-at-a-time loop's bytes over the
    cross block, both ways across net bridges."""
    monkeypatch.setattr(mcshane, "_BLOCK", block)
    m23, y = Algebra((2, 3)), circle_net(30, "chord")
    for eps_n in (10.0, 0.6, 0.2):
        net = epsilon_net(y, eps_n)
        cross = y.dist[np.ix_(net, range(y.size))]
        forward = build_bridge(y.subspace(net), y, cross, EPS, m23, net)
        backward = _bridge(forward.joined.mirrored(), cross.T, EPS, m23)
        for bridge in (forward, backward):
            sources = [random_sa_function(bridge.x, m23, rng) for _ in range(3)]
            _, b_chans, *_ = _transport(bridge, sources, [1.0] * 3)
            want = loop_realized_extension(bridge.joined.cross.T, bridge.x.dist,
                                           np.hstack([to_channels(fn) for fn in sources]))
            assert b_chans.tobytes() == np.stack(np.split(want, 3, axis=1)).tobytes()


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


@pytest.mark.parametrize("blocks", [(2,), (2, 3)])
def test_certificates_equal_the_stack_reference(blocks):
    """source_shift, q_at_source_shift and w_defect, read from the channel
    arrays, equal the reference read from the complex stacks bit for bit:
    batches of one to four exactly Hermitian sources, made from channels
    and from values, on a self-bridge and on a net-against-space bridge
    both ways."""
    algebra = Algebra(blocks)
    rng = np.random.default_rng(17)
    x = circle_net(10, "chord")
    net = epsilon_net(x, 1.0)
    x_n, cross = x.subspace(net), x.dist[np.ix_(net, range(x.size))]
    for bridge in (build_bridge(x, x, x.dist, EPS, algebra),
                   build_bridge(x_n, x, cross, EPS, algebra),
                   build_bridge(x, x_n, cross.T, EPS, algebra)):
        for k in range(1, 5):
            sources = []
            for i in range(k):
                mu = random_product_state(bridge.x, algebra, rng)
                nu = random_product_state(bridge.x, algebra, rng)
                witness = mk_distance(bridge.x, algebra, mu, nu, conv_spec()).witness
                sources.append((witness, MatrixFunction(bridge.x, algebra, witness.values),
                                in_conv_unit_ball(random_sa_function(bridge.x, algebra, rng)))[i % 3])
            for a_fn, (b_fn, cert) in zip(sources, _match_elements(bridge, sources)):
                assert a_fn.hermitian_defects == (0.0, 0.0)
                got = (cert["source_shift"], cert["q_at_source_shift"], cert["w_defect"])
                assert repr(got) == repr(stack_certificate(bridge, a_fn, b_fn))


def test_a_near_hermitian_source_moves_w_defect_by_at_most_its_defect(rng):
    """A source within the self-adjointness slack but not exactly Hermitian
    is transported from its upper triangle, and w_defect measures those
    channels: it differs from the stack reading by at most the source's
    Hermitian defect."""
    x = circle_net(8, "chord")
    bridge = build_bridge(x, x, x.dist, EPS, M2)
    witness = _witness_on(x, rng)
    bump = np.zeros((2, 2))
    bump[1, 0] = 1e-10
    near = MatrixFunction(x, M2, tuple(AlgElement(M2, (v.blocks[0] + bump,))
                                       for v in witness.values))
    assert 0.0 < near.hermitian_defects[0] <= 1e-9  # inside the slack TAU_SA
    (b_fn, cert), (b_one, _) = _match_elements(bridge, [near, witness])
    assert b_fn.channels.tobytes() == b_one.channels.tobytes()
    shift, q_at_shift, w_defect = stack_certificate(bridge, near, b_fn)
    assert (cert["source_shift"], cert["q_at_source_shift"]) == (shift, q_at_shift)
    assert abs(cert["w_defect"] - w_defect) <= near.hermitian_defects[0]


@pytest.mark.parametrize("samples", [1, 2, 3])
def test_bounds_equal_the_one_at_a_time_reference(samples):
    """A bound solves and certifies each direction's witnesses in one batch
    and reuses their certified lipnorms; its JSON is the reference's, a
    fresh mk_distance and match_element per witness, except that a
    forward lipnorm_matched is a certified bound at most 1e-12 above the
    reference's lipnorm, and every lipnorm_source is a fresh lipnorm of
    its witness."""
    m23 = Algebra((2, 3))
    x = circle_net(10, "chord")
    net = epsilon_net(x, 0.6)
    cross = x.dist[np.ix_(net, range(x.size))]
    spec = conv_spec()
    for seed in (0, 5, 11):
        pub = propinquity_upper_bound(x.subspace(net), x, cross, EPS, m23,
                                      samples=samples, seed=seed)
        want, witnesses = one_at_a_time_bound(x.subspace(net), x, cross, EPS, m23,
                                              samples, seed)
        _assert_matches_reference(pub.to_json_dict(), want)
        assert len(witnesses) == 2 * samples
        for cert, witness in zip(pub.certificates, witnesses):
            assert cert["lipnorm_source"] == lipnorm(witness, spec)
    for seed in (2, 9):
        rows = approx_table(x, M2, [1.0, 0.5, 0.25], EPS, samples=samples, seed=seed)
        want, witnesses = one_at_a_time_table(x, M2, [1.0, 0.5, 0.25], EPS, samples, seed)
        _assert_matches_reference(rows, want)
        certs = [c for row in rows for c in row["certificates"]]
        assert len(certs) == len(witnesses) == 6 * samples
        for cert, witness in zip(certs, witnesses):
            assert cert["lipnorm_source"] == lipnorm(witness, spec)


# a schedule whose last four nets are the whole 10-point chord circle
TABLE = [1.0, 0.5, 0.25, 0.05, 0.01]


@pytest.mark.parametrize("blocks", [(2,), (2, 3)])
@pytest.mark.parametrize("samples", [0, 1, 3, 40])
def test_tables_equal_the_one_at_a_time_reference(blocks, samples):
    """A table certifies its rows in groups of at most 32 functions per
    side and keeps one bridge pair across equal nets; its JSON is the
    one-row-at-a-time reference's, up to the forward bounds (as above),
    whether its rows form one group (0, 1 and 3 samples) or each row is
    its own (40)."""
    algebra = Algebra(blocks)
    x = circle_net(10, "chord")
    assert [len(epsilon_net(x, e)) for e in TABLE] == [4, 10, 10, 10, 10]
    for seed in (4391, 7723)[:1 if samples == 40 else 2]:
        rows = approx_table(x, algebra, TABLE, EPS, samples=samples, seed=seed)
        want, _ = one_at_a_time_table(x, algebra, TABLE, EPS, samples, seed)
        _assert_matches_reference(rows, want)


def test_each_witness_is_certified_once(monkeypatch):
    """Per direction, one batched seminorm certifies the witnesses, and
    one checks the backward images; the forward images take McShane's
    bound and run no seminorm.  Matching computes no source seminorm
    again.  A table certifies all the witnesses that live on the full
    space of a group of rows in one batch, and builds one bridge pair per
    distinct net."""
    x = circle_net(10, "chord")
    sizes, real = [], funcspace._lip_parts

    def lip_parts(fns, *args):
        sizes.append(len(fns))
        return real(fns, *args)

    monkeypatch.setattr(funcspace, "_lip_parts", lip_parts)
    pub = propinquity_upper_bound(x.subspace([0, 3, 6]), x, x.dist[[0, 3, 6]], EPS, M2,
                                  samples=3, seed=4)
    assert len(pub.certificates) == 6
    assert sizes == [3, 3, 3]

    built, real_build = [], propinquity.build_bridge

    def build_bridge_spy(x_n, *args):
        built.append(x_n.labels)
        return real_build(x_n, *args)

    monkeypatch.setattr(propinquity, "build_bridge", build_bridge_spy)
    nets = [tuple(x.labels[i] for i in epsilon_net(x, e)) for e in TABLE]
    # one group of 5 rows: the full space's batch holds 5 x 3 functions,
    # and each net's (forward witnesses, backward images) 3
    sizes.clear()
    approx_table(x, M2, TABLE, EPS, samples=3, seed=4)
    assert sizes == [15] + [3, 3] * 5
    assert built == [nets[0], nets[1]]
    # at 12 samples a group holds 2 rows (24 <= 32 < 36): rows 0-1, 2-3
    # and 4, and the bridge of the full net is kept across groups
    sizes.clear()
    built.clear()
    approx_table(x, M2, TABLE, EPS, samples=12, seed=4)
    assert sizes == ([24] + [12, 12] * 2) * 2 + [12, 12, 12]
    assert built == [nets[0], nets[1]]


@pytest.mark.parametrize("samples", [-1, -2, 1.5, 2.0, True, "3", None])
def test_samples_must_be_a_nonnegative_integer(samples):
    x = _path(3)
    with pytest.raises(InputError, match="samples must be a nonnegative integer"):
        propinquity_upper_bound(x, x, x.dist, EPS, M2, samples=samples)
    with pytest.raises(InputError, match="samples must be a nonnegative integer"):
        approx_table(x, M2, [1.0], EPS, samples=samples)


@pytest.mark.parametrize("failing_side", ["y", "net"])
def test_a_failed_image_certificate_raises(monkeypatch, failing_side):
    """An image seminorm above the ball fails its certificate, whether it
    is the forward images' bound on the full space or the backward images'
    batch on the net."""
    x = circle_net(10, "chord")
    if failing_side == "y":
        monkeypatch.setattr(propinquity, "_image_lipnorms",
                            lambda bridge, l_as, *args: [2.0] * len(l_as))
    else:
        real = propinquity._lipnorms
        monkeypatch.setattr(propinquity, "_lipnorms", lambda fns, spec: (
            real(fns, spec) if fns[0].space is x else [2.0] * len(fns)))
    with pytest.raises(BoundViolation, match="failed its certificate: lipnorm 2,"):
        approx_table(x, M2, TABLE, EPS, samples=2, seed=3)
    with pytest.raises(BoundViolation, match="failed its certificate: lipnorm 2,"):
        propinquity_upper_bound(x.subspace([0, 5]), x, x.dist[[0, 5]], EPS, M2,
                                samples=1, seed=3)


def test_samples_are_at_most_ten_thousand(monkeypatch):
    """Too many samples are refused before any state is drawn."""
    x = circle_net(6, "chord")

    def draw(*args):
        raise AssertionError("a state was drawn")

    monkeypatch.setattr(propinquity, "random_product_state", draw)
    for samples in (10_001, np.int64(10_001), 10 ** 20):
        with pytest.raises(InputError, match="samples must be at most 10000"):
            propinquity_upper_bound(x, x, x.dist, EPS, M2, samples=samples)
        with pytest.raises(InputError, match="samples must be at most 10000"):
            approx_table(x, M2, [1.0, 0.5], EPS, samples=samples)


def test_a_small_epsilon_is_refused_before_the_join():
    """A cross offset that leaves some cross distance at or below the
    metric tolerance is bad input that names epsilon, the offset and the
    tolerance, not a failed positivity check of the join."""
    x = circle_net(6, "chord")
    offset = 1e-8 / (8.0 * math.sqrt(2.0) * 2)
    message = (r"epsilon 1e-08 is too small: its cross offset epsilon / \(8 sqrt\(2\) m_A\) "
               r"= %.3g .* not above the metric tolerance 1e-09" % offset)
    with pytest.raises(InputError, match=message):
        build_bridge(x, x, x.dist, 1e-8, M2)
    with pytest.raises(InputError, match=message):
        approx_table(x, M2, [1.0], 1e-8)
    assert build_bridge(x, x, x.dist, 1e-7, M2).threshold > 0
    # positive cross distances need no offset to stay positive
    far = build_bridge(_path(3), x, np.full((3, 6), 2.0), 1e-12, M2)
    assert far.delta_xy == 2.0


@pytest.mark.parametrize("seed", [-1, -3, np.int64(-1), 1.0, 0.5, True, False, None, "2"])
def test_seed_must_be_a_nonnegative_integer(seed):
    x = _path(3)
    with pytest.raises(InputError, match="seed must be a nonnegative integer"):
        propinquity_upper_bound(x, x, x.dist, EPS, M2, samples=1, seed=seed)
    with pytest.raises(InputError, match="seed must be a nonnegative integer"):
        approx_table(x, M2, [1.0], EPS, samples=1, seed=seed)


def test_zero_samples_give_a_bound_without_certificates():
    x = _path(3)
    pub = propinquity_upper_bound(x, x, x.dist, EPS, M2, samples=0)
    assert pub.certificates == () and pub.bound == EPS / 2.0
    assert len(propinquity_upper_bound(x, x, x.dist, EPS, M2,
                                       samples=np.int64(1)).certificates) == 2
    # numpy integer seeds draw as the equal int does
    for seed in (np.int64(4), np.uint8(4)):
        assert json.dumps(approx_table(x, M2, [1.0, 0.5], EPS, samples=1, seed=seed)) == \
            json.dumps(approx_table(x, M2, [1.0, 0.5], EPS, samples=1, seed=4))


def test_supplied_lipnorms_replace_the_sources_batch(rng):
    """_match_elements takes the sources' certified lipnorms as given and
    still refuses one above the ball's slack."""
    x = circle_net(8, "chord")
    bridge = build_bridge(x, x, x.dist, EPS, M2)
    witnesses = [_witness_on(x, rng) for _ in range(2)]
    fresh = _match_elements(bridge, witnesses)
    given = _match_elements(bridge, witnesses, [0.25, 0.5])
    for (b_fn, cert), (b_one, one), l_a in zip(given, fresh, (0.25, 0.5)):
        assert cert["lipnorm_source"] == l_a
        assert {**cert, "lipnorm_source": None} == {**one, "lipnorm_source": None}
        assert b_fn.channels.tobytes() == b_one.channels.tobytes()
    with pytest.raises(InputError, match="exceeds the unit ball slack"):
        _match_elements(bridge, witnesses, [1.0, 1.0 + 2e-7])


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
        net = epsilon_net(x, r["eps_n"])
        assert repr(r["hausdorff"]) == repr(metric.hausdorff(x, net, range(x.size)))
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
    for schedule in ([math.inf, 0.5], [0.5, math.nan], [1.0, -math.inf]):
        with pytest.raises(InputError, match="net scales must be positive and finite"):
            approx_table(x, M2, schedule, EPS)
    with pytest.raises(InputError, match="decreasing"):
        approx_table(x, M2, [1.0, 1.0], EPS)


def test_bridge_is_a_plain_record():
    x = _path(2)
    bridge = build_bridge(x, x, x.dist, EPS, M2)
    assert isinstance(bridge, Bridge)
    assert bridge.epsilon == EPS
    assert bridge.x is x and bridge.y is x


def test_bridge_checks_the_joined_triangle_inequality_once(monkeypatch):
    x, path = circle_net(8, "chord"), _path(3)
    shapes = []
    real = metric._triangle_violation

    def counted(d, tol, split=None):
        shapes.append(d.shape)
        return real(d, tol, split)

    monkeypatch.setattr(metric, "_triangle_violation", counted)
    bridge = build_bridge(x, x, x.dist, EPS, M2)
    assert shapes == [(16, 16)]
    # a bound builds its backward bridge from the forward bridge's join
    propinquity_upper_bound(path, x, np.full((3, 8), 2.0), EPS, M2, samples=1)
    assert shapes == [(16, 16), (11, 11)]
    monkeypatch.undo()
    full = FiniteMetricSpace(bridge.joined_metric.labels, bridge.joined.full_matrix())
    assert np.array_equal(bridge.joined_metric.dist, full.dist)
    # a cross matrix that breaks the triangle inequality still fails there
    far = np.full((3, 3), 5.0)
    far[0, 0] = far[0, 2] = 0.0
    with pytest.raises(InputError, match="joined metric fails the triangle"):
        build_bridge(_path(3), _path(3), far, EPS, M2)


def test_approx_nets_join_without_a_scan(monkeypatch):
    """On the benchmark's approx input (a 96-point chord circle, M2, six
    halvings) every net joins its space by the lemma: no triangle scan
    runs, and the table is the one that scanning every join gives."""
    n = 96
    angles = 2.0 * math.pi * np.arange(n) / n
    pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    space = FiniteMetricSpace(tuple("c%d" % i for i in range(n)),
                              np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2))
    schedule = [float(space.dist.max()) / 2.0 ** (i + 1) for i in range(6)]
    scans = []
    real = metric._triangle_violation
    monkeypatch.setattr(metric, "_triangle_violation",
                        lambda *args: scans.append(args) or real(*args))
    table = approx_table(space, M2, schedule, EPS, samples=3, seed=5)
    assert scans == []
    monkeypatch.setattr(metric.JoinedSpace, "_net_join",
                        classmethod(lambda cls, x, y, net, cross, offset: cls(x, y, cross)))
    scanned = approx_table(space, M2, schedule, EPS, samples=3, seed=5)
    assert len(scans) == 5
    monkeypatch.undo()
    # a scanned join bounds its mixed slacks from the scan, not by the
    # lemma, so only the forward images' bounds may differ, each within
    # its window of the image's seminorm
    want, _ = one_at_a_time_table(space, M2, schedule, EPS, 3, 5)
    _assert_matches_reference(table, want)
    _assert_matches_reference(scanned, want)


def test_a_space_read_off_symmetric_joins_its_nets_without_a_scan(monkeypatch):
    """A chord circle whose every entry above the diagonal is raised by
    less than 1e-13 is stored symmetrized and scanned there, so its nets
    join it by the lemma, and its table is that of the stored matrix."""
    n = 32
    angles = 2.0 * math.pi * np.arange(n) / n
    pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    dist += np.triu(np.random.default_rng(3).uniform(0.0, 1e-13, size=(n, n)), 1)
    space = FiniteMetricSpace(tuple("c%d" % i for i in range(n)), dist)
    assert not np.array_equal(space.dist, dist)
    schedule = [float(space.dist.max()) / 2.0 ** (i + 1) for i in range(4)]
    scans = []
    real = metric._triangle_violation
    monkeypatch.setattr(metric, "_triangle_violation",
                        lambda *args: scans.append(args) or real(*args))
    table = approx_table(space, M2, schedule, EPS, samples=2, seed=1)
    assert scans == []
    monkeypatch.undo()
    stored = FiniteMetricSpace(space.labels, space.dist)
    again = approx_table(stored, M2, schedule, EPS, samples=2, seed=1)
    assert json.dumps(again) == json.dumps(table)


def test_mirrored_join_builds_the_backward_bridge():
    """The backward bridge of a bound, built from the forward bridge's
    join, equals a bridge built from scratch, field for field."""
    x, y = _path(4), circle_net(6, "chord")
    cross = 2.0 + 0.05 * np.add.outer(np.arange(4.0), np.arange(6.0))
    forward = build_bridge(x, y, cross, EPS, M2)
    got = _bridge(forward.joined.mirrored(), cross.T, EPS, M2)
    want = build_bridge(y, x, cross.T, EPS, M2)
    assert (got.x, got.y, got.algebra) == (want.x, want.y, want.algebra)
    assert got.joined.cross.tobytes() == want.joined.cross.tobytes()
    assert got.joined_metric.labels == want.joined_metric.labels
    assert got.joined_metric.dist.tobytes() == want.joined_metric.dist.tobytes()
    assert (got.epsilon, got.delta_xy, got.threshold, got.w_set) == (
        want.epsilon, want.delta_xy, want.threshold, want.w_set)


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
def test_forward_image_bounds_are_never_below_lipnorm(c):
    """McShane's bound on a transported image is at least what lipnorm
    computes for it, with no tolerance: planar, chord and arc circle and
    interval spaces scaled by c, bridged from nets of one to all points (by
    the lemma) and from a caller's cross (scanned), both ways, for
    witnesses and for functions scaled into the ball, over M1, M2 and
    M2+M3."""
    rng = np.random.default_rng(29)
    spec = conv_spec()
    spaces = [random_planar_space(9, rng), circle_net(10, "chord"), circle_net(9, "arc"),
              interval_net(8)]
    for space in (scale(s, c) for s in spaces):
        nets = {tuple(epsilon_net(space, e * space._diameter)) for e in (2.0, 0.6, 0.3, 1e-3)}
        assert min(map(len, nets)) == 1 and max(map(len, nets)) == space.size
        for algebra in (Algebra((1,)), M2, Algebra((2, 3))):
            bridges = []
            for net in sorted(nets, key=len):
                cross = space.dist[list(net)]
                bridges.append(build_bridge(space.subspace(net), space, cross, EPS, algebra,
                                            net))
            bridges.append(build_bridge(interval_net(3, 2.0 * c), space,
                                        np.full((3, space.size), 2.0 * space._diameter),
                                        EPS, algebra))
            bridges += [_bridge(b.joined.mirrored(), b.joined.cross.T, EPS, algebra)
                        for b in bridges[-2:]]
            for bridge in bridges:
                fn = random_sa_function(bridge.x, algebra, rng)
                sources = [mk_distance(bridge.x, algebra,
                                       random_product_state(bridge.x, algebra, rng),
                                       random_product_state(bridge.x, algebra, rng),
                                       spec).witness,
                           # one point under M1 is a constant, already in the ball
                           in_conv_unit_ball(fn) if lipnorm(fn, spec) else fn]
                l_as, b_chans, _, reach = _transport(bridge, sources)
                bounds = _image_bounds(bridge, l_as, *reach)
                for bound, b in zip(bounds, b_chans):
                    assert bound >= lipnorm(funcspace.from_channels(bridge.y, algebra, b), spec)


def _fallback_input():
    """A 5-point interval at step 1e-3 against a relabelled copy of itself,
    across its own distances with the one from its first point to its last
    raised by 0.9 TAU_METRIC: the join is accepted at a mixed slack near
    -TAU_METRIC, so McShane's bound exceeds 1 + TAU_LP by about 1e-6."""
    y = interval_net(5, 4e-3)
    x = FiniteMetricSpace(("a", "b", "c", "d", "e"), y.dist)
    cross = y.dist.copy()
    cross[0, 4] += 0.9 * TAU_METRIC
    return x, y, cross


def test_a_loose_bound_falls_back_to_lipnorm(monkeypatch):
    """Forward images whose bound exceeds 1 + TAU_LP are certified by
    lipnorm: the bound's JSON is the one-at-a-time reference's bit for
    bit, and without the fallback its certificates fail."""
    x, y, cross = _fallback_input()
    bridge = build_bridge(x, y, cross, EPS, M2)
    assert TAU_METRIC * 0.8 < bridge.joined._tau < TAU_METRIC
    on_y, real = [], propinquity._lipnorms

    def lipnorms(fns, spec):
        on_y.append(sum(fn.space is y for fn in fns))
        return real(fns, spec)

    monkeypatch.setattr(propinquity, "_lipnorms", lipnorms)
    pub = propinquity_upper_bound(x, y, cross, EPS, M2, samples=3, seed=8)
    # every forward image falls back; then the backward images' batch on x
    assert on_y == [3, 0]
    want, _ = one_at_a_time_bound(x, y, cross, EPS, M2, 3, 8)
    assert json.dumps(pub.to_json_dict()) == json.dumps(want)
    monkeypatch.setattr(propinquity, "_image_lipnorms", lambda bridge, l_as, b_chans, reach:
                        _image_bounds(bridge, l_as, *reach).tolist())
    with pytest.raises(BoundViolation, match="failed its certificate: lipnorm 1.000000"):
        propinquity_upper_bound(x, y, cross, EPS, M2, samples=3, seed=8)


def test_a_bound_far_above_its_source_falls_back_to_lipnorm(monkeypatch):
    """On a 10-point chord circle of diameter 2e-4 the candidates' rounding
    over the least distance, about 4e-12, lifts McShane's bound more than
    _BOUND_SLACK above its source's lipnorm: every forward image is
    certified by lipnorm, and the table is the one-at-a-time reference's
    bit for bit.  Without that fallback the bounds stand, more than 1e-12
    above the images' seminorms."""
    space = scale(circle_net(10, "chord"), 1e-4)
    schedule = [space._diameter / 2.0 ** (i + 1) for i in range(3)]
    want, _ = one_at_a_time_table(space, M2, schedule, 1e-7, 2, 3)
    on_space, real = [], propinquity._lipnorms

    def lipnorms(fns, spec):
        on_space.append(sum(fn.space is space for fn in fns))
        return real(fns, spec)

    monkeypatch.setattr(propinquity, "_lipnorms", lipnorms)
    rows = approx_table(space, M2, schedule, 1e-7, samples=2, seed=3)
    assert sum(on_space) == 6
    assert json.dumps(rows) == json.dumps(want)
    monkeypatch.setattr(propinquity, "_BOUND_SLACK", math.inf)
    on_space.clear()
    rows = approx_table(space, M2, schedule, 1e-7, samples=2, seed=3)
    assert sum(on_space) == 0
    excess = [c["lipnorm_matched"] / r["lipnorm_matched"] - 1.0
              for row, ref in zip(rows, want)
              for c, r in zip(row["certificates"], ref["certificates"])
              if c["direction"] == "forward"]
    assert min(excess) >= 0.0 and max(excess) > 1e-12


def test_approx_tables_on_chord_circles_never_fall_back(monkeypatch):
    """On chord circles of 10 and 96 points every forward image takes
    McShane's bound: no seminorm runs on the full space's images."""
    calls, real = [], propinquity._lipnorms

    def lipnorms(fns, spec):
        calls.append(fns[0].space)
        return real(fns, spec)

    monkeypatch.setattr(propinquity, "_lipnorms", lipnorms)
    for n in (10, 96):
        space = circle_net(n, "chord")
        schedule = [space._diameter / 2.0 ** (i + 1) for i in range(6)]
        calls.clear()
        rows = approx_table(space, M2, schedule, EPS, samples=3, seed=n)
        assert calls and all(s is not space for s in calls)
        assert all(c["ok"] for row in rows for c in row["certificates"])
