"""Self-tests of the benchmark.  From the repository root:

  PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import qmetric  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_passes_its_gate(name, trace):
    proc = run_bench("--workload", name, "--seed", "3", "--seconds", "0.3",
                     "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = spec["end_to_end"] if trace == "0" else spec["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    proc = run_bench("--workload", "embed", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("name", workloads.NAMES)
def test_second_seed_gives_other_inputs_that_pass(name):
    first = workloads.build(name, 1, tiny=True)
    second = workloads.build(name, 2, tiny=True)
    outputs = []
    for wl in (first, second):
        results = [call.run() for call in wl.calls]
        for call, res in zip(wl.calls, results):
            n_ok, problems = call.check(res)
            assert problems == [] and n_ok >= 1
        outputs.append(results)
    assert _fingerprint(outputs[0]) != _fingerprint(outputs[1])


def _fingerprint(results) -> str:
    def plain(r):
        if isinstance(r, qmetric.MkResult):
            return [r.value, r.lower, r.upper]
        return r
    return json.dumps([plain(r) for r in results], sort_keys=True, default=str)


def test_gate_rejects_a_wrong_value():
    wl = workloads.build("mk_exact", 1, tiny=True)
    call = wl.calls[0]
    res = call.run()
    wrong = qmetric.MkResult("exact", value=res.value * 1.01,
                             witness=res.witness)
    n_ok, problems = call.check(wrong)
    assert n_ok == 0 and problems


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 3.0, 5.0, 0, 0),      # overlaps a: the union is [1, 5]
        ("leaf", 2.0, 2.5, 1, 0),   # grandchild: counts against a only
        ("c", 7.0, 8.0, 0, 0),
    ]
    assert tracer.self_times(spans) == pytest.approx([5.0, 2.5, 2.0, 0.5, 1.0])


def test_layer_metrics_average_per_call_and_scale_by_factor():
    t = tracer.Tracer()
    t.spans = [("mk.mk_distance", 0.0, 2.0, -1, 0),
               ("lpcore.solve", 0.5, 1.5, 0, 0),
               ("mk.mk_distance", 3.0, 4.0, -1, 1)]
    t.lp_shapes = [(10, 3, 0), (20, 5, 2)]
    out = tracer.layer_metrics(t, 2, [1.0, 0.5])
    assert out["mk.mk_distance.calls"][0] == 1.0
    assert out["mk.mk_distance.self_s"][0] == pytest.approx((1.0 + 0.5) / 2)
    assert out["lpcore.solve.self_s"][0] == pytest.approx(0.5)
    assert out["lpcore.rows"][0] == 15.0
    assert out["lpcore.tableau_mb"][0] == pytest.approx(20 * 33 * 8 / 1e6)


def test_install_wraps_every_alias_and_uninstall_restores():
    import qmetric.mk as mk
    import qmetric.propinquity as prop
    originals = (mk.lipnorm, prop.lipnorm, qmetric.lipnorm, mk.solve)
    t = tracer.Tracer()
    t.install()
    try:
        assert mk.lipnorm is prop.lipnorm is qmetric.lipnorm
        assert mk.lipnorm.__wrapped__ is originals[0]
        t.begin_call()
        space = workloads.chord_circle(3)
        algebra = qmetric.Algebra((2,))
        rng = np.random.default_rng(0)
        mu = workloads.full_support_state(space, algebra, rng)
        nu = workloads.full_support_state(space, algebra, rng)
        qmetric.mk_distance(space, algebra, mu, nu, qmetric.conv_spec())
    finally:
        t.uninstall()
    assert (mk.lipnorm, prop.lipnorm, qmetric.lipnorm, mk.solve) == originals
    names = [s[0] for s in t.spans]
    assert names[0] == "mk.mk_distance"
    assert {"lpcore.solve", "funcspace.lipnorm", "states.evaluate"} <= set(names)
    assert all(s[4] == 0 for s in t.spans)
    assert t.support_points == 3 and t.lp_shapes
