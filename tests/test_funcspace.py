import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    dist_to_scalars,
    in_conv_unit_ball,
    random_element,
    random_sa_element,
    random_sa_function,
)
from oracles import (
    brute_lip_part,
    brute_lipschitz,
    entrywise_real_max_to_scalars,
    jacobi_spectral_spread,
    loop_difference_defect,
)
from qmetric import algebra as alg
from qmetric import funcspace as fs
from qmetric.algebra import NORM_KINDS, TAU_SA, AlgElement, Algebra, _hermitian_defect, op_norm
from qmetric.errors import InputError
from qmetric.funcspace import (
    Q_KINDS,
    MatrixFunction,
    _lip_parts,
    _lipnorms,
    SeminormSpec,
    classical_embed,
    conv_spec,
    default_leibniz_constants,
    from_channels,
    jordan_product,
    lie_product,
    lip_part,
    lipnorm,
    q_term,
    quasi_leibniz_check,
    sup_norm,
    to_channels,
)
from qmetric.generate import circle_net, random_planar_space
from qmetric.metric import FiniteMetricSpace
from qmetric.propinquity import build_bridge, match_element
from qmetric.states import delta_embed, evaluate, tracial_functional
from qmetric.generate import random_alg_state

PATH3 = FiniteMetricSpace(
    ("a", "b", "c"), np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float))
M1 = Algebra((1,))
M2 = Algebra((2,))
M23 = Algebra((2, 3))

ALL_SPECS = [
    SeminormSpec("operator", "quotient_CX"),
    SeminormSpec("max", "quotient_CX"),
    SeminormSpec("operator", "quotient_C"),
    SeminormSpec("max", "quotient_C"),
    SeminormSpec("real_max", "quotient_C"),
    SeminormSpec("real_max", "conv"),
    SeminormSpec("real_max", "conv_K", K=2.0),
]


def _sa_fn(rng, space=PATH3, algebra=M23):
    return random_sa_function(space, algebra, rng)


def test_function_validation(rng):
    vals = tuple(M2.identity() for _ in range(2))
    with pytest.raises(InputError):
        MatrixFunction(PATH3, M2, vals)  # wrong point count
    with pytest.raises(InputError):
        MatrixFunction(PATH3, M2, tuple(M23.identity() for _ in range(3)))


def test_function_json_round_trip(rng):
    fn = _sa_fn(rng)
    back = MatrixFunction.from_json_dict(fn.to_json_dict())
    assert back.space.labels == fn.space.labels
    assert back.algebra == fn.algebra
    for x, y in zip(back.values, fn.values):
        assert all(np.array_equal(p, q) for p, q in zip(x.blocks, y.blocks))


@pytest.mark.parametrize("k", [np.inf, np.nan, 0.0, -1.0])
def test_conv_K_needs_a_positive_finite_K(k):
    with pytest.raises(InputError, match="K must be positive and finite"):
        SeminormSpec("real_max", "conv_K", K=k)


def test_spec_validation():
    with pytest.raises(InputError):
        SeminormSpec("operator", "conv_K")  # K missing
    with pytest.raises(InputError):
        SeminormSpec("operator", "conv", K=1.0)
    with pytest.raises(InputError):
        SeminormSpec("spectral", "conv")
    with pytest.raises(InputError):
        SeminormSpec("operator", "state")  # reference state missing
    assert conv_spec().lp_exact()
    assert not SeminormSpec("operator", "conv").lp_exact()
    assert not SeminormSpec("real_max", "quotient_CX").lp_exact()


def test_classical_embedding_reproduces_lipschitz(rng):
    """Scalar functions keep their Lipschitz constant under every block count."""
    for _ in range(15):
        space = random_planar_space(int(rng.integers(2, 8)), rng)
        vals = rng.normal(size=space.size)
        fn = classical_embed(space, vals, M23)
        ref = brute_lipschitz(space.dist, vals)
        spec = SeminormSpec("operator", "quotient_CX")
        assert lipnorm(fn, spec) == pytest.approx(ref, abs=1e-12)
        assert q_term(fn, spec) == 0.0
        assert sup_norm(fn, "operator") == pytest.approx(abs(vals).max(), abs=1e-12)


def test_lip_part_on_one_point_space(rng):
    point = FiniteMetricSpace(("o",), np.zeros((1, 1)))
    fn = random_sa_function(point, M2, rng)
    assert lip_part(fn, "operator") == 0.0


def test_lip_part_equals_the_pairwise_loop(rng):
    """The row-vectorized Lipschitz part is the pairwise definition, bit for bit."""
    spaces = [FiniteMetricSpace(("o",), np.zeros((1, 1))),
              FiniteMetricSpace(("a", "b"), np.array([[0.0, 0.7], [0.7, 0.0]])),
              random_planar_space(7, rng)]
    for space in spaces:
        for _ in range(3):
            fn = random_sa_function(space, M23, rng)
            for kind in NORM_KINDS:
                assert lip_part(fn, kind) == brute_lip_part(fn, kind)


def _channel_function(space, algebra, rng):
    width = sum(m * m for m in algebra.block_sizes)
    scales = 10.0 ** rng.uniform(-6, 6, size=(space.size, 1))
    return from_channels(space, algebra, scales * rng.normal(size=(space.size, width)))


def test_batched_lip_parts_equal_the_pairwise_loop(rng):
    """Each function of a batch, made from values, from channels or from
    values that are not exactly Hermitian, gets its own pairwise loop's
    Lipschitz part under every norm kind, bit for bit."""
    spaces = [FiniteMetricSpace(("o",), np.zeros((1, 1))),
              FiniteMetricSpace(("a", "b"), np.array([[0.0, 0.7], [0.7, 0.0]])),
              random_planar_space(7, rng)]
    makers = {"values": random_sa_function, "channels": _channel_function,
              "nearly": _nearly_hermitian_function}
    for space in spaces:
        for size in range(1, 6):
            for kinds in (["values"], ["channels"], ["nearly"], ["values", "channels"],
                          ["values", "channels", "nearly"]):
                fns = [makers[kinds[(p + size) % len(kinds)]](space, M23, rng)
                       for p in range(size)]
                for norm_kind in NORM_KINDS:
                    got = _lip_parts(fns, norm_kind)
                    assert got.shape == (size,)
                    assert [float(v) for v in got] == [brute_lip_part(fn, norm_kind)
                                                       for fn in fns]


def _nearly_hermitian_function(space, algebra, rng):
    """A function made from values: self-adjoint ones at 1e-12 to 1e-9 plus
    a defect of up to TAU_SA / 4 in each part of their lower triangles and
    imaginary diagonals, so that the values and their differences pass
    TAU_SA and the real max norm must read those slots."""
    values = []
    scale = 10.0 ** rng.uniform(-12, -9)
    for _ in range(space.size):
        blocks = []
        for b in random_sa_element(algebra, rng, scale).blocks:
            m = len(b)
            e = rng.uniform(-0.25, 0.25, size=(2, m, m)) * TAU_SA
            blocks.append(b + np.tril(e[0] + 1j * e[1], -1) + 1j * e[1] * np.eye(m))
        values.append(AlgElement(algebra, tuple(blocks)))
    return MatrixFunction(space, algebra, tuple(values))


def test_real_max_parts_of_nearly_hermitian_functions(rng):
    """With defects up to TAU_SA the lower triangle and the imaginary
    diagonal count: each function of a batch that mixes them with exactly
    Hermitian ones gets the pairwise loop's Lipschitz part and the entrywise
    q parts, bit for bit, and its difference defect is the pairwise one,
    whether the row pass or a first read of hermitian_defects finds it."""
    makers = (_nearly_hermitian_function, random_sa_function, _channel_function)
    for space in (PATH3, random_planar_space(9, rng)):
        fns = [makers[p % 3](space, M23, rng) for p in range(7)]
        got = _lip_parts(fns, "real_max")
        assert [float(v) for v in got] == [brute_lip_part(fn, "real_max") for fn in fns]
        for fn in fns[::3]:
            fresh = MatrixFunction(space, M23, fn.values)
            assert fresh.hermitian_defects == fn.hermitian_defects
            assert fn.hermitian_defects[1] == loop_difference_defect(fn) > 0.0
            for q_kind, pooled in (("conv", True), ("quotient_C", True), ("quotient_CX", False)):
                want = entrywise_real_max_to_scalars(fn.stacks, pooled).max()
                assert q_term(fn, SeminormSpec("real_max", q_kind)) == want


def test_one_row_pass_gives_the_norms_and_the_difference_defects(monkeypatch, rng):
    """A real_max seminorm of functions made from values that are not
    exactly Hermitian forms their differences once: the Lipschitz part and
    the difference defects come from one row pass, after which the defects
    are recorded."""
    passes = []
    real = fs._row_pass
    monkeypatch.setattr(fs, "_row_pass", lambda *args: passes.append(args) or real(*args))
    a, b = (random_sa_function(CIRCLE6, M23, rng) for _ in range(2))
    products = [jordan_product(a, b), lie_product(a, b),
                _nearly_hermitian_function(CIRCLE6, M23, rng)]
    assert all(fn.hermitian_defects[0] > 0.0 for fn in products)
    products = [MatrixFunction(CIRCLE6, M23, fn.values) for fn in products]
    passes.clear()
    for fn in products:
        lipnorm(fn, conv_spec())
    _lipnorms(products, conv_spec())
    assert len(passes) == len(products) + 1
    assert [fn.hermitian_defects[1] for fn in products] == [
        loop_difference_defect(fn) for fn in products]


def test_batch_with_a_non_self_adjoint_difference_is_rejected(rng):
    skew = AlgElement(M2, (np.array([[0.0, 0.4e-9], [-0.4e-9, 0.0]]),))
    base = random_sa_function(PATH3, M2, rng)
    bad = MatrixFunction(PATH3, M2, (base.values[0] + skew, base.values[1] - skew,
                                     base.values[2]))
    with pytest.raises(InputError) as alone:
        lip_part(bad, "real_max")
    good = _channel_function(PATH3, M2, rng)
    for batch in ((good, bad), (bad, good), (good, bad, good)):
        with pytest.raises(InputError) as err:
            _lip_parts(batch, "real_max")
        assert str(err.value) == str(alone.value)


def test_channel_stacks_are_exactly_hermitian(rng):
    """Stacks made from channels, their differences and their real shifts
    have a Hermitian defect of exactly 0, which real_max relies on."""
    for algebra in (M1, M2, M23, Algebra((4, 1, 3))):
        space = random_planar_space(6, rng)
        a, b = (_channel_function(space, algebra, rng) for _ in range(2))
        shift = algebra.scalar(float(rng.normal()) * 10.0 ** rng.uniform(-6, 6))
        for s, t, e in zip(a.stacks, b.stacks, shift.blocks):
            for stack in (s, s - t, s[2] - s[3:], s - e):
                assert (_hermitian_defect(stack) == 0.0).all()


def test_channels_must_be_finite():
    for bad in (np.nan, np.inf):
        chans = np.zeros((3, 4))
        chans[1, 2] = bad
        with pytest.raises(InputError, match="channels must be finite"):
            from_channels(PATH3, M2, chans)


def test_channels_round_trip_bit_for_bit(rng):
    for space in (PATH3, random_planar_space(5, rng)):
        fn = random_sa_function(space, M23, rng)
        chans = to_channels(fn)
        assert chans.shape == (space.size, 2 * 2 + 3 * 3)
        back = from_channels(space, M23, chans)
        assert to_channels(back) is back.channels
        for x, y in zip(back.values, fn.values):
            assert all(p.tobytes() == q.tobytes() for p, q in zip(x.blocks, y.blocks))
    with pytest.raises(InputError, match="channel array"):
        from_channels(PATH3, M23, np.zeros((3, 12)))


def test_real_max_rejects_a_non_self_adjoint_difference(rng):
    """Each value passes the self-adjointness slack, their difference does not."""
    skew = AlgElement(M2, (np.array([[0.0, 0.4e-9], [-0.4e-9, 0.0]]),))
    base = random_sa_function(PATH3, M2, rng)
    vals = (base.values[0] + skew, base.values[1] - skew, base.values[2])
    fn = MatrixFunction(PATH3, M2, vals)
    assert fn.is_self_adjoint()
    with pytest.raises(InputError):
        lip_part(fn, "real_max")


def test_conv_term_is_half_range_for_diagonal_functions():
    space = PATH3
    vals = np.array([-1.0, 0.5, 3.0])
    fn = classical_embed(space, vals, M2)
    spec = conv_spec()
    assert q_term(fn, spec) == pytest.approx(2.0)  # (3 - (-1)) / 2
    # a bridge certificate recentres its source at the midpoint; a quarter
    # of fn lies in the unit ball, as matching requires
    assert _conv_shift(classical_embed(space, vals / 4, M2)) == pytest.approx(0.25)


def _conv_shift(fn):
    """The source_shift of fn's certificate across its self-bridge."""
    _, cert = match_element(build_bridge(fn.space, fn.space, fn.space.dist, 1e-3,
                                         fn.algebra), fn)
    return cert["source_shift"]


def test_conv_shift_minimises_the_recentred_norm(rng):
    fn = in_conv_unit_ball(_sa_fn(rng))
    r = _conv_shift(fn)
    base = max(np.max(np.abs(np.diag(np.asarray(b)).real - r))
               for v in fn.values for b in v.blocks)
    for other in np.linspace(r - 1.0, r + 1.0, 41):
        trial = max(np.max(np.abs(np.diag(np.asarray(b)).real - other))
                    for v in fn.values for b in v.blocks)
        assert base <= trial + 1e-12


def test_conv_equals_one_scalar_quotient_under_real_max(rng):
    """Two names for one code path: equal bit for bit."""
    for space in (PATH3, random_planar_space(7, rng)):
        for _ in range(20):
            fn = _sa_fn(rng, space)
            assert q_term(fn, conv_spec()) == q_term(
                fn, SeminormSpec("real_max", "quotient_C"))


def test_operator_q_terms_against_jacobi(rng):
    """Both operator-norm quotients against the independent Jacobi spectra."""
    spaces = [FiniteMetricSpace(("o",), np.zeros((1, 1))),
              FiniteMetricSpace(("a", "b"), np.array([[0.0, 0.7], [0.7, 0.0]])),
              random_planar_space(7, rng)]
    one_scalar = SeminormSpec("operator", "quotient_C")
    pointwise = SeminormSpec("operator", "quotient_CX")
    for space in spaces:
        for algebra in (Algebra((1,)), M23):
            for _ in range(3):
                fn = random_sa_function(space, algebra, rng)
                assert q_term(fn, one_scalar) == pytest.approx(
                    jacobi_spectral_spread(fn.values), rel=1e-10, abs=0.0)
                assert q_term(fn, pointwise) == pytest.approx(
                    max(jacobi_spectral_spread([v]) for v in fn.values),
                    rel=1e-10, abs=0.0)


def test_conv_k_rescales_conv(rng):
    fn = _sa_fn(rng)
    base = q_term(fn, conv_spec())
    for k in (0.5, 1.0, 4.0):
        spec = SeminormSpec("real_max", "conv_K", K=k)
        assert q_term(fn, spec) == pytest.approx(2.0 * base / k, abs=1e-12)


def test_state_term_kills_scalars_and_ignores_shifts(rng):
    ref = tracial_functional(M23, np.array([0.5, 0.5]), 1)
    spec = SeminormSpec("real_max", "state", state=ref)
    ones = MatrixFunction(PATH3, M23, tuple(M23.identity() for _ in range(3)))
    assert q_term(ones, spec) == pytest.approx(0.0, abs=1e-12)
    fn = _sa_fn(rng)
    q = q_term(fn, spec)
    assert q >= 0.0
    shifted = MatrixFunction(PATH3, M23, tuple(
        v + M23.scalar(2.5) for v in fn.values))
    assert q_term(shifted, spec) == pytest.approx(q, abs=1e-10)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 16), c=st.floats(-4.0, 4.0))
@example(seed=0, c=1e-310)
def test_seminorm_homogeneity_and_subadditivity(seed, c):
    rng = np.random.default_rng(seed)
    f = _sa_fn(rng)
    g = _sa_fn(rng)
    total = MatrixFunction(PATH3, M23, tuple(
        x + y for x, y in zip(f.values, g.values)))
    scaled = MatrixFunction(PATH3, M23, tuple(v.scaled(c) for v in f.values))
    for spec in ALL_SPECS:
        lf, lg = lipnorm(f, spec), lipnorm(g, spec)
        assert lipnorm(total, spec) <= lf + lg + 1e-9
        assert lipnorm(scaled, spec) == pytest.approx(abs(c) * lf, abs=1e-9)


def test_seminorm_kernel_contains_real_scalars(rng):
    for spec in ALL_SPECS:
        half = MatrixFunction(PATH3, M23, tuple(M23.scalar(0.5) for _ in range(3)))
        assert lipnorm(half, spec) == pytest.approx(0.0, abs=1e-12)


def test_leibniz_constants_by_family():
    assert default_leibniz_constants(
        SeminormSpec("operator", "quotient_CX"), M23) == (1.0, 0.0)
    assert default_leibniz_constants(
        SeminormSpec("max", "quotient_CX"), M23) == (3.0, 0.0)
    c, d = default_leibniz_constants(conv_spec(), M23)
    assert c == pytest.approx(3.0 * np.sqrt(2.0)) and d == 0.0
    ref = tracial_functional(M23, np.array([0.5, 0.5]), 0)
    c, d = default_leibniz_constants(
        SeminormSpec("operator", "state", state=ref), M23)
    assert c == 2.0 and d == 0.0


def test_quasi_leibniz_holds_on_random_pairs(rng):
    """Products obey the stated two-sided bound for every spec family."""
    specs = [SeminormSpec("operator", "quotient_CX"), conv_spec(),
             SeminormSpec("real_max", "conv_K", K=1.5)]
    for _ in range(15):
        a = _sa_fn(rng)
        b = _sa_fn(rng)
        for spec in specs:
            rep = quasi_leibniz_check(a, b, spec)
            assert not rep.violated
            assert rep.lhs <= rep.rhs + 1e-9


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
@pytest.mark.parametrize("name", ["c_const", "d_const", "slack_tol"])
def test_quasi_leibniz_rejects_non_finite_or_negative_constants(rng, name, bad):
    """A NaN or infinite constant or slack would make the slack NaN or
    infinite, which no comparison reads as violated."""
    a, b = _sa_fn(rng), _sa_fn(rng)
    with pytest.raises(InputError, match=name + " must be finite and nonnegative"):
        quasi_leibniz_check(a, b, conv_spec(), **{name: bad})


def test_quasi_leibniz_report_fields(rng):
    a = _sa_fn(rng)
    b = _sa_fn(rng)
    rep = quasi_leibniz_check(a, b, conv_spec())
    assert rep.c_const == pytest.approx(3.0 * np.sqrt(2.0))
    assert rep.d_const == 0.0
    assert rep.slack == pytest.approx(rep.rhs - rep.lhs)


def test_quasi_leibniz_forms_each_difference_once(monkeypatch, rng):
    """Inputs made from values that are not exactly Hermitian take one row
    pass each, in their seminorms' Lipschitz parts, as the self-adjointness
    check reads their value defects alone; each product takes one.  The
    report is unchanged."""
    space = circle_net(8)
    skew = AlgElement(M23, (np.array([[0.0, 1e-13], [0.0, 0.0]]), np.zeros((3, 3))))
    pair = []
    for _ in range(2):
        vals = list(random_sa_function(space, M23, rng).values)
        vals[3] = vals[3] + skew
        pair.append(vals)
    passes = []
    real = fs._row_pass
    monkeypatch.setattr(fs, "_row_pass", lambda *args: passes.append(args) or real(*args))
    a, b = (MatrixFunction(space, M23, vals) for vals in pair)
    rep = quasi_leibniz_check(a, b, conv_spec())
    assert len(passes) == 4
    fresh = [MatrixFunction(space, M23, vals) for vals in pair]
    la, lb = (lipnorm(fn, conv_spec()) for fn in fresh)
    assert [la, lb] == [max(brute_lip_part(fn, "real_max"), q_term(fn, conv_spec()))
                        for fn in fresh]
    na, nb = (sup_norm(fn) for fn in fresh)
    assert rep.rhs == rep.c_const * (na * lb + nb * la) + rep.d_const * la * lb


def test_sup_norm_matches_operator_norm(rng):
    fn = _sa_fn(rng)
    assert sup_norm(fn, "operator") == pytest.approx(
        max(op_norm(v) for v in fn.values), abs=1e-12)


def test_sup_norm_rejects_unknown_norm_kind(rng):
    fn = _sa_fn(rng)
    with pytest.raises(InputError, match="unknown norm kind"):
        sup_norm(fn, "operatr")


def test_operator_lipnorm_rejects_non_finite_entries(rng):
    base = _sa_fn(rng, algebra=M2)
    nan = AlgElement(M2, (np.array([[np.nan, 0.0], [0.0, 1.0]]),))
    fn = MatrixFunction(PATH3, M2, (nan,) + base.values[1:])
    with pytest.raises(InputError, match="finite"):
        lipnorm(fn, SeminormSpec("operator", "quotient_C"))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_max_norm_paths_reject_non_finite_entries(rng, bad):
    base = _sa_fn(rng, algebra=M2)
    broken = AlgElement(M2, (np.array([[bad, 0.0], [0.0, 1.0]]),))
    fn = MatrixFunction(PATH3, M2, (broken,) + base.values[1:])
    with pytest.raises(InputError, match="finite"):
        lip_part(fn, "max")
    with pytest.raises(InputError, match="finite"):
        sup_norm(fn, "max")
    for spec in (SeminormSpec("max", "quotient_CX"), SeminormSpec("max", "quotient_C"),
                 SeminormSpec("max", "state", state=tracial_functional(M2, (1.0,), 1))):
        with pytest.raises(InputError, match="finite"):
            lipnorm(fn, spec)
        with pytest.raises(InputError, match="finite"):
            q_term(fn, spec)


def test_real_max_requires_self_adjoint(rng):
    from helpers import random_element
    vals = tuple(random_element(M2, rng) for _ in range(3))
    fn = MatrixFunction(PATH3, M2, vals)
    with pytest.raises(InputError):
        lipnorm(fn, conv_spec())


CIRCLE6 = circle_net(6)
_REAL_MAX_SPECS = {q: SeminormSpec("real_max", q, K=2.0 if q == "conv_K" else None,
                                   state=tracial_functional(M2, (1.0,), 2) if q == "state" else None)
                   for q in Q_KINDS}
# every entry point that reads a function under the real max norm
REAL_MAX_ENTRY_POINTS = {
    "sup_norm": lambda fn: sup_norm(fn, "real_max"),
    "lip_part": lambda fn: lip_part(fn, "real_max"),
    **{"q_term/" + q: (lambda fn, spec=spec: q_term(fn, spec))
       for q, spec in _REAL_MAX_SPECS.items()},
    "lipnorm": lambda fn: lipnorm(fn, conv_spec()),
    "match_element": lambda fn: match_element(
        build_bridge(fn.space, fn.space, fn.space.dist, 1e-3, fn.algebra), fn),
    "quasi_leibniz_check": lambda fn: quasi_leibniz_check(fn, fn, conv_spec()),
}
# the entry points that take no Lipschitz part read the value defect alone
VALUE_ONLY_ENTRY_POINTS = {"sup_norm", *("q_term/" + q for q in Q_KINDS)}


def _defect_calls(monkeypatch, run) -> int:
    """How many times run() reaches algebra._hermitian_defect."""
    calls = []
    real = alg._hermitian_defect

    def counted(stack):
        calls.append(stack.shape)
        return real(stack)

    with monkeypatch.context() as patch:
        patch.setattr(alg, "_hermitian_defect", counted)
        run()
    return len(calls)


def _product_defect_calls(monkeypatch, fn, entry) -> int:
    """The calls that quasi_leibniz_check's products, functions made from
    values, make for their own defects; 0 for every other entry point."""
    if entry != "quasi_leibniz_check":
        return 0
    return _defect_calls(monkeypatch, lambda: [product(fn, fn).hermitian_defects
                                               for product in (jordan_product, lie_product)])


@pytest.mark.parametrize("entry", sorted(REAL_MAX_ENTRY_POINTS))
def test_self_adjointness_is_decided_once_per_function(monkeypatch, rng, entry):
    run = REAL_MAX_ENTRY_POINTS[entry]
    bad = MatrixFunction(CIRCLE6, M2, tuple(random_element(M2, rng) for _ in range(6)))
    with pytest.raises(InputError, match="self-adjoint"):
        run(bad)

    # made from channels: Hermitian by construction, no defect is computed
    chans = from_channels(CIRCLE6, M2, 1e-3 * rng.normal(size=(6, 4)))
    products = _product_defect_calls(monkeypatch, chans, entry)
    assert _defect_calls(monkeypatch, lambda: run(chans)) == products

    # made from values, off Hermitian by less than the slack: the value
    # defect is computed on the first read, the difference defect on the
    # first Lipschitz part, and neither again
    skew = AlgElement(M2, (np.array([[0.0, 1e-12], [0.0, 0.0]]),))
    vals = [v.scaled(1e-3) for v in random_sa_function(CIRCLE6, M2, rng).values]
    vals[0] = vals[0] + skew
    own = _defect_calls(monkeypatch, lambda: MatrixFunction(CIRCLE6, M2, vals).hermitian_defects)
    assert own == 1 + (CIRCLE6.size - 1)  # the values, then one per row of differences
    fn = MatrixFunction(CIRCLE6, M2, vals)
    products = _product_defect_calls(monkeypatch, fn, entry)
    first = 1 if entry in VALUE_ONLY_ENTRY_POINTS else own
    assert _defect_calls(monkeypatch, lambda: run(fn)) == first + products
    every = REAL_MAX_ENTRY_POINTS.values()
    assert _defect_calls(monkeypatch, lambda: [other(fn) for other in every]) == (
        own - first + _product_defect_calls(monkeypatch, fn, "quasi_leibniz_check"))


def _count_elements(monkeypatch):
    """Record every AlgElement construction from here on."""
    made = []
    real = AlgElement.__post_init__

    def counted(self):
        made.append(self)
        real(self)

    monkeypatch.setattr(AlgElement, "__post_init__", counted)
    return made


def test_from_channels_builds_no_element_until_values_are_read(monkeypatch, rng):
    space = random_planar_space(6, rng)
    chans = to_channels(random_sa_function(space, M23, rng))
    state = tracial_functional(M23, (0.5, 0.5), 4)
    made = _count_elements(monkeypatch)
    fn = from_channels(space, M23, chans)
    assert fn.is_self_adjoint()
    lipnorm(fn, conv_spec())
    evaluate(state, fn)
    to_channels(fn)
    assert made == []
    values = fn.values
    assert len(made) == space.size
    assert fn.values is values


def test_lazy_values_equal_the_eager_build_bit_for_bit(rng):
    for algebra in (M1, M2, M23):
        space = random_planar_space(5, rng)
        lazy = from_channels(space, algebra, to_channels(random_sa_function(space, algebra, rng)))
        # the eager build: every value first, then the stacks from them
        eager = MatrixFunction(space, algebra, tuple(
            AlgElement(algebra, tuple(s[p] for s in lazy.stacks)) for p in range(space.size)))
        assert [s.tobytes() for s in lazy.stacks] == [s.tobytes() for s in eager.stacks]
        for x, y in zip(lazy.values, eager.values):
            assert [b.tobytes() for b in x.blocks] == [b.tobytes() for b in y.blocks]
        assert json.dumps(lazy.to_json_dict()) == json.dumps(eager.to_json_dict())


@pytest.mark.parametrize("n", [1, 2, 7])
@pytest.mark.parametrize("algebra", [M1, M23])
def test_pointwise_quotient_equals_the_per_value_loop(rng, n, algebra):
    space = random_planar_space(n, rng)
    for norm in NORM_KINDS:
        fns = [random_sa_function(space, algebra, rng)]
        if norm == "max":  # complex diagonals: enclosing circles, not spreads
            fns.append(MatrixFunction(space, algebra, tuple(
                random_element(algebra, rng) for _ in range(n))))
        for fn in fns:
            want = max(dist_to_scalars(v, norm) for v in fn.values)
            got = q_term(fn, SeminormSpec(norm, "quotient_CX"))
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
