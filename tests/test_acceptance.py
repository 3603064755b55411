"""Acceptance suite: one test per release criterion.

Each test asserts the criterion's stated tolerance, and its runtime budget
where one is promised.  Run with -v to get one pass/fail line per item.
"""

import math
import time

import numpy as np
import pytest

from oracles import (brute_lipschitz, gh_by_correspondences, lp_by_vertices, lp_from_pairs,
                     tableau_solve)
from qmetric.algebra import (Algebra, apply_state, matrix_unit,
                             matrix_unit_l1, max_norm, op_norm,
                             real_max_norm, tracial_state)
from qmetric.funcspace import (MatrixFunction, SeminormSpec, classical_embed,
                               conv_spec, lipnorm, quasi_leibniz_check)
from helpers import (random_algebra, random_element, random_pure_state, random_sa_element,
                     random_sa_function)
from qmetric.generate import (circle_net, interval_net, random_alg_state,
                              random_planar_space, random_product_state,
                              scaled_to_diameter)
from qmetric.metric import FiniteMetricSpace, diameter, gh_exact
from qmetric.mcshane import ExtensionProblem, extend
from qmetric.mk import embed_check, mk_distance
from qmetric.propinquity import approx_table
from qmetric.states import delta_embed, evaluate, mix, tracial_functional

ROOT2 = math.sqrt(2.0)


def test_a01_tracial_states_have_unit_pairing_mass():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    for _ in range(100):
        alg = random_algebra(rng, max_blocks=4, max_block=5)
        v = rng.dirichlet(np.ones(alg.n_blocks))
        k_mu = matrix_unit_l1(tracial_state(alg, v))
        assert k_mu == pytest.approx(1.0, abs=1e-12)
    assert time.monotonic() - start < 1.0


def test_a02_norm_sandwiches_never_break():
    rng = np.random.default_rng(102)
    violations = 0
    for _ in range(1000):
        alg = random_algebra(rng, max_blocks=3, max_block=5)
        el = random_element(alg, rng, scale_=float(rng.uniform(0.2, 2.0)))
        opn, maxn = op_norm(el), max_norm(el)
        violations += maxn > opn + 1e-12
        violations += opn > alg.max_block * maxn + 1e-12
    for _ in range(1000):
        alg = random_algebra(rng, max_blocks=3, max_block=5)
        el = random_sa_element(alg, rng, scale_=float(rng.uniform(0.2, 2.0)))
        opn, maxn, rmn = op_norm(el), max_norm(el), real_max_norm(el)
        violations += rmn > maxn + 1e-12
        violations += maxn > ROOT2 * rmn + 1e-12
        violations += rmn > opn + 1e-12
        violations += opn > ROOT2 * alg.max_block * rmn + 1e-12
    assert violations == 0


def test_a03_classical_functions_keep_their_lipschitz_constant():
    rng = np.random.default_rng(103)
    for _ in range(100):
        n = int(rng.integers(2, 11))
        space = random_planar_space(n, rng, box=2.0)
        vals = rng.normal(size=n)
        alg = random_algebra(rng, max_blocks=2, max_block=3)
        fn = classical_embed(space, vals, alg)
        brute = brute_lipschitz(space.dist, vals)
        l_cx = lipnorm(fn, SeminormSpec("operator", "quotient_CX"))
        assert l_cx == pytest.approx(brute, abs=1e-12)
        spec_k = SeminormSpec("real_max", "conv_K", K=diameter(space))
        assert lipnorm(fn, spec_k) == pytest.approx(brute, abs=1e-12)


def test_a04_product_rule_bounds_hold():
    rng = np.random.default_rng(104)
    specs = [SeminormSpec("operator", "quotient_CX"), conv_spec()]
    for spec in specs:
        for _ in range(100):
            n = int(rng.integers(2, 5))
            space = random_planar_space(n, rng, box=1.5)
            alg = random_algebra(rng, max_blocks=2, max_block=3)
            a = random_sa_function(space, alg, rng)
            b = random_sa_function(space, alg, rng)
            report = quasi_leibniz_check(a, b, spec, slack_tol=1e-9)
            assert not report.violated


def test_a05_tracial_point_embedding_is_isometric_below_the_cap():
    start = time.monotonic()
    for n in (8, 12):
        space = scaled_to_diameter(circle_net(n, "chord"), 1.0)
        for alg in (Algebra((2,)), Algebra((2, 3))):
            v = np.full(alg.n_blocks, 1.0 / alg.n_blocks)
            report = embed_check(space, alg, v, conv_spec())
            worst = max(abs(row["mk"] - row["dist"]) for row in report["pairs"])
            assert worst <= 1e-6
            assert report["violated"] is False
    assert time.monotonic() - start < 120.0


def test_a06_point_embeddings_of_a_state_stretch_at_most_root2_k():
    rng = np.random.default_rng(106)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        space = random_planar_space(n, rng, box=3.0)
        alg = random_algebra(rng, max_blocks=2, max_block=3)
        phi = random_alg_state(alg, rng)
        x, y = rng.choice(n, size=2, replace=False)
        res = mk_distance(space, alg, delta_embed(phi, int(x)),
                          delta_embed(phi, int(y)), conv_spec())
        k_mu = matrix_unit_l1(phi)
        assert res.value <= ROOT2 * k_mu * space.dist[x, y] + 1e-6


def test_a07_pure_state_distances_respect_the_cap():
    rng = np.random.default_rng(107)
    families = [
        (circle_net(8, "chord", radius=3.0), Algebra((2,))),
        (interval_net(5, length=8.0), Algebra((2, 3))),
        (random_planar_space(6, np.random.default_rng(7), box=10.0),
         Algebra((3,))),
    ]
    for space, alg in families:
        cap = 2.0 * ROOT2 * alg.max_block
        for _ in range(20):
            mu = random_pure_state(space, alg, rng)
            nu = random_pure_state(space, alg, rng)
            res = mk_distance(space, alg, mu, nu, conv_spec())
            assert res.value <= cap + 1e-6


def test_a08_extension_restricts_exactly_and_stays_in_range():
    rng = np.random.default_rng(108)
    start = time.monotonic()
    for _ in range(100):
        n = int(rng.integers(2, 9))
        space = random_planar_space(n, rng, box=3.0)
        k_sub = int(rng.integers(1, n + 1))
        subset = tuple(sorted(rng.choice(n, size=k_sub, replace=False).tolist()))
        vals = rng.normal(size=k_sub)
        slopes = [abs(vals[i] - vals[j]) / space.dist[subset[i], subset[j]]
                  for i in range(k_sub) for j in range(i)]
        lip = max(slopes, default=0.0) * (1 + 1e-12) + 1e-12
        out = extend(ExtensionProblem(space, subset, tuple(vals), lip))
        for i, p in enumerate(subset):
            assert out[p] == vals[i]
        realized = max((abs(out[i] - out[j]) / space.dist[i, j]
                        for i in range(n) for j in range(i)), default=0.0)
        assert realized <= lip + 1e-12
        assert out.min() == vals.min() and out.max() == vals.max()
    assert time.monotonic() - start < 1.0


def test_a09_space_distance_matches_exhaustive_enumeration():
    rng = np.random.default_rng(109)
    pool = [random_planar_space(int(rng.integers(1, 5)), rng, box=2.0)
            for _ in range(20)]
    point = FiniteMetricSpace(("o",), np.zeros((1, 1)))
    for i, a in enumerate(pool):
        for b in pool[i + 1:]:
            got = gh_exact(a, b)
            ref = gh_by_correspondences(a.dist, b.dist)
            assert got == pytest.approx(ref, abs=1e-12)
        assert gh_exact(point, a) == pytest.approx(diameter(a) / 2.0,
                                                   abs=1e-12)


def test_a10_net_refinement_drives_the_bound_under_a_tenth():
    space = circle_net(64, "chord")
    eps = 1e-3
    diam = diameter(space)
    schedule = [diam / 2.0 / 2.0 ** i for i in range(6)]
    rows = approx_table(space, Algebra((2,)), schedule, eps,
                        samples=3, seed=0)
    assert len(rows) == 6
    for row in rows:
        assert row["bound"] <= ROOT2 * 2 * row["hausdorff"] + eps / 2.0 + 1e-12
        certs = row["certificates"]
        assert {c["direction"] for c in certs} == {"forward", "backward"}
        assert all(c["ok"] for c in certs)
    assert rows[-1]["bound"] < 0.1


def test_a11_pairing_agrees_with_its_matrix_unit_expansion():
    rng = np.random.default_rng(111)
    alg = Algebra((2, 3))
    space = interval_net(3)
    start = time.monotonic()
    for _ in range(200):
        fn = MatrixFunction(space, alg, tuple(
            random_element(alg, rng) for _ in range(space.size)))
        state = mix([(0.4, delta_embed(random_alg_state(alg, rng),
                                       int(rng.integers(0, 3)))),
                     (0.6, delta_embed(random_alg_state(alg, rng),
                                       int(rng.integers(0, 3))))])
        left = evaluate(state, fn)
        right = 0.0 + 0.0j
        for w, x, phi in state.terms:
            el = fn.values[x]
            for k, m in enumerate(alg.block_sizes):
                for p in range(1, m + 1):
                    for q in range(1, m + 1):
                        coef = el.blocks[k][p - 1, q - 1]
                        right += w * coef * apply_state(
                            phi, matrix_unit(alg, k, p, q))
        assert abs(left - right) <= 1e-12
    assert time.monotonic() - start < 1.0


def test_a12_certified_distances_and_solver_revalidate():
    rng = np.random.default_rng(112)
    space = random_planar_space(4, rng, box=2.0)
    alg = Algebra((2,))
    ref = tracial_functional(alg, (1.0,), 0)
    specs = [conv_spec(),
             SeminormSpec("real_max", "conv_K", K=0.9),
             SeminormSpec("real_max", "quotient_C"),
             SeminormSpec("real_max", "state", state=ref)]
    for spec in specs:
        for _ in range(8):
            mu = random_product_state(space, alg, rng)
            nu = random_product_state(space, alg, rng)
            res = mk_distance(space, alg, mu, nu, spec)
            assert res.kind == "exact"
            assert lipnorm(res.witness, spec) <= 1.0 + 1e-7
            attained = abs((evaluate(mu, res.witness)
                            - evaluate(nu, res.witness)).real)
            assert attained == pytest.approx(res.value,
                                             abs=1e-7 * max(1.0, res.value))
    for _ in range(50):
        n = int(rng.integers(2, 4))
        pairs = [(rng.normal(size=n), float(abs(rng.normal())))
                 for _ in range(int(rng.integers(1, 5)))]
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            pairs += [(e.copy(), 3.0), (-e, 3.0)]
        obj = rng.normal(size=n)
        sol = tableau_solve(lp_from_pairs(obj, pairs))
        ref_val = lp_by_vertices(obj, [r for r, _ in pairs],
                                 [b for _, b in pairs])
        assert sol.optimum == pytest.approx(ref_val, abs=1e-7)
