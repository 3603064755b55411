"""Workload inputs, the user-level calls, and their correctness gates.

Every input is generated here from the workload seed with numpy; the
library receives only finished spaces, states and specs.  Each workload is
a fixed cycle of calls.  ``check`` runs after the timed section and returns
the number of certified results and a list of problems (empty when the
answer is correct).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import qmetric as q

NAMES = ("mk_exact", "mk_coupled", "embed", "approx")

TAU_REF = 1e-6      # relative agreement with the HiGHS reference
TAU_WITNESS = 1e-7  # the library's own certificate slack


@dataclass
class Call:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple[int, list[str]]]


@dataclass
class Workload:
    calls: list[Call] = field(default_factory=list)
    # Reference values, computed once per input and shared by its calls.
    cache: dict = field(default_factory=dict)


def chord_circle(n: int) -> q.FiniteMetricSpace:
    angles = 2.0 * math.pi * np.arange(n) / n
    pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    return q.FiniteMetricSpace(tuple("c%d" % i for i in range(n)), dist)


def planar(n: int, rng: np.random.Generator) -> q.FiniteMetricSpace:
    while True:
        pts = rng.uniform(0.0, 1.0, size=(n, 2))
        dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        if dist[~np.eye(n, dtype=bool)].min() > 1e-2:
            return q.FiniteMetricSpace(tuple("p%d" % i for i in range(n)), dist)


def unit_diameter(space: q.FiniteMetricSpace) -> q.FiniteMetricSpace:
    return q.FiniteMetricSpace(space.labels, space.dist / space.dist.max())


def alg_state(algebra: q.Algebra, rng: np.random.Generator) -> q.AlgState:
    weights = rng.dirichlet(np.ones(algebra.n_blocks))
    densities = []
    for m in algebra.block_sizes:
        g = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        rho = g @ g.conj().T
        densities.append(rho / np.trace(rho).real)
    return q.AlgState(tuple(float(w) for w in weights), tuple(densities))


def full_support_state(space, algebra, rng) -> q.FunctionalState:
    """Random weights on every point, a random density per point."""
    w = rng.dirichlet(np.ones(space.size))
    return q.FunctionalState(tuple((float(w[p]), p, alg_state(algebra, rng))
                                   for p in range(space.size)))


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= TAU_REF * max(abs(ref), 1e-12)


def _exact_gate(wl, space, algebra, mu, nu, spec, key, ref_args):
    """Exact result: re-verified witness and agreement with HiGHS."""
    def check(res):
        problems = []
        if res.kind != "exact" or res.witness is None:
            return 0, ["%s: expected an exact result with a witness" % key]
        if key not in wl.cache:
            import reference  # scipy loads only after the timed section
            wl.cache[key] = reference.real_max_distance(
                space.dist, algebra.block_sizes, mu, nu, *ref_args)
        ref = wl.cache[key]
        if not _close(res.value, ref):
            problems.append("%s: value %.12g vs reference %.12g"
                            % (key, res.value, ref))
        lip = q.lipnorm(res.witness, spec)
        if lip > 1.0 + TAU_WITNESS:
            problems.append("%s: witness lipnorm %.12g" % (key, lip))
        diff = q.evaluate(mu, res.witness) - q.evaluate(nu, res.witness)
        if not _close(abs(diff.real), res.value) or abs(diff.imag) > TAU_WITNESS:
            problems.append("%s: witness pairing %r vs value %.12g"
                            % (key, diff, res.value))
        return (0 if problems else 1), problems
    return check


def _interval_gate(wl, space, algebra, mu, nu, key):
    """Interval result: lower <= upper <= the real_max/conv reference."""
    def check(res):
        if res.kind != "interval":
            return 0, ["%s: expected an interval" % key]
        ref_key = (key[0], "conv")
        if ref_key not in wl.cache:
            import reference
            wl.cache[ref_key] = reference.real_max_distance(
                space.dist, algebra.block_sizes, mu, nu, "conv")
        ref = wl.cache[ref_key]
        ok = res.lower <= res.upper <= ref * (1.0 + TAU_REF)
        if not ok:
            return 0, ["%s: interval [%.12g, %.12g] vs reference %.12g"
                       % (key, res.lower, res.upper, ref)]
        return 1, []
    return check


def _mk_call(space, algebra, mu, nu, spec, refine=False):
    return lambda: q.mk_distance(space, algebra, mu, nu, spec, refine=refine)


def mk_exact(rng, pairs=15, points=16):
    """conv_K (K=1) and conv alternate; an odd pool gives each pair both."""
    space, algebra = chord_circle(points), q.Algebra((2, 3))
    specs = (("conv_K", q.SeminormSpec("real_max", "conv_K", K=1.0), 1.0),
             ("conv", q.SeminormSpec("real_max", "conv"), None))
    states = [(full_support_state(space, algebra, rng),
               full_support_state(space, algebra, rng)) for _ in range(pairs)]
    wl = Workload()
    for i in range(2 * pairs):
        mu, nu = states[i % pairs]
        kind, spec, k = specs[i % 2]
        key = (i % pairs, kind)
        wl.calls.append(Call(
            "real_max/" + kind, _mk_call(space, algebra, mu, nu, spec),
            _exact_gate(wl, space, algebra, mu, nu, spec, key, (kind, k))))
    return wl


def mk_coupled(rng, pairs=8, points=8):
    """Each pair, with its own reference state, under real_max/state,
    max/conv refined and operator/conv."""
    space, algebra = chord_circle(points), q.Algebra((2, 3))
    wl = Workload()
    for i in range(pairs):
        mu, nu, ref = (full_support_state(space, algebra, rng) for _ in range(3))
        state_spec = q.SeminormSpec("real_max", "state", state=ref)
        wl.calls.append(Call(
            "real_max/state", _mk_call(space, algebra, mu, nu, state_spec),
            _exact_gate(wl, space, algebra, mu, nu, state_spec, (i, "state"),
                        ("state", None, ref))))
        wl.calls.append(Call(
            "max/conv refine",
            _mk_call(space, algebra, mu, nu, q.SeminormSpec("max", "conv"),
                     refine=True),
            _interval_gate(wl, space, algebra, mu, nu, (i, "max"))))
        wl.calls.append(Call(
            "operator/conv",
            _mk_call(space, algebra, mu, nu, q.SeminormSpec("operator", "conv")),
            _interval_gate(wl, space, algebra, mu, nu, (i, "operator"))))
    return wl


def _embed_gate(space):
    n_pairs = space.size * (space.size - 1) // 2

    def check(report):
        problems = []
        if report["violated"]:
            problems.append("embed_check reports a violated constant")
        if len(report["pairs"]) != n_pairs:
            problems.append("expected %d pairs, got %d"
                            % (n_pairs, len(report["pairs"])))
        index = {lab: i for i, lab in enumerate(space.labels)}
        for row in report["pairs"]:
            d = space.dist[index[row["x"]], index[row["y"]]]
            if abs(row["mk"] - d) > TAU_REF:
                problems.append("pair %s-%s: mk %.12g vs d %.12g"
                                % (row["x"], row["y"], row["mk"], d))
        return (0 if problems else len(report["pairs"])), problems
    return check


def embed(rng, circle_points=24, planar_points=16):
    """Tracial (1/2, 1/2) point embeddings under real_max/conv."""
    algebra, spec = q.Algebra((2, 3)), q.conv_spec()
    wl = Workload()
    for space in (unit_diameter(chord_circle(circle_points)),
                  unit_diameter(planar(planar_points, rng))):
        wl.calls.append(Call(
            "embed_check/%d" % space.size,
            lambda space=space: q.embed_check(space, algebra, (0.5, 0.5), spec),
            _embed_gate(space)))
    return wl


def _approx_gate(algebra, epsilon, rows_expected, samples):
    def check(rows):
        problems = []
        if len(rows) != rows_expected:
            problems.append("expected %d rows, got %d" % (rows_expected, len(rows)))
        certified = 0
        for row in rows:
            certs = row["certificates"]
            if len(certs) != 2 * samples:
                problems.append("row %.6g: %d certificates" % (row["eps_n"], len(certs)))
            bad = sum(1 for c in certs if not c["ok"])
            if bad:
                problems.append("row %.6g: %d certificates not ok"
                                % (row["eps_n"], bad))
            limit = math.sqrt(2.0) * algebra.max_block * row["hausdorff"] + epsilon / 2.0
            if row["bound"] > limit * (1.0 + 1e-12):
                problems.append("row %.6g: bound %.12g above %.12g"
                                % (row["eps_n"], row["bound"], limit))
            certified += len(certs)
        return (0 if problems else certified), problems
    return check


def approx(rng, points=96, n_rows=6, epsilon=1e-3, samples=3, seeds=3):
    """approx_table on a circle; the seed picks the sampled witness states."""
    space, algebra = chord_circle(points), q.Algebra((2,))
    diam = float(space.dist.max())
    schedule = [diam / 2.0 ** (i + 1) for i in range(n_rows)]
    wl = Workload()
    for table_seed in rng.integers(0, 2 ** 31, size=seeds):
        wl.calls.append(Call(
            "approx_table",
            lambda s=int(table_seed): q.approx_table(
                space, algebra, schedule, epsilon, samples=samples, seed=s),
            _approx_gate(algebra, epsilon, n_rows, samples)))
    return wl


# Reduced sizes for the self-tests: same code paths, a second or less each.
TINY = {
    "mk_exact": dict(pairs=1, points=4),
    "mk_coupled": dict(pairs=1, points=3),
    "embed": dict(circle_points=5, planar_points=4),
    "approx": dict(points=12, n_rows=2, samples=1, seeds=1),
}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    rng = np.random.default_rng([seed, NAMES.index(name)])
    return globals()[name](rng, **(TINY[name] if tiny else {}))
