import json

import numpy as np
import pytest

from helpers import CoincidentPoints
from qmetric import cli
from qmetric.algebra import Algebra, AlgState, matrix_unit, vector_state
from qmetric.errors import BoundViolation
from qmetric.funcspace import MatrixFunction, classical_embed
from qmetric.generate import circle_net
from qmetric.metric import FiniteMetricSpace, scale
from qmetric.states import FunctionalState, tracial_functional

M2 = Algebra((2,))


def _path(n, step=1.0):
    d = step * np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return FiniteMetricSpace(tuple("p%d" % i for i in range(n)), d.astype(float))


@pytest.fixture
def files(tmp_path):
    """Standard inputs, written through the same serializers the CLI reads."""
    space = _path(4)
    paths = {
        "algebra": tmp_path / "alg.json",
        "space": tmp_path / "space.json",
        "mu": tmp_path / "mu.json",
        "nu": tmp_path / "nu.json",
        "element": tmp_path / "elem.json",
        "function": tmp_path / "fn.json",
        "dir": tmp_path,
    }
    paths["algebra"].write_text(json.dumps(M2.to_json_dict()))
    paths["space"].write_text(json.dumps(space.to_json_dict()))
    paths["mu"].write_text(json.dumps(
        tracial_functional(M2, (1.0,), 0).to_json_dict(space.labels)))
    paths["nu"].write_text(json.dumps(
        tracial_functional(M2, (1.0,), 3).to_json_dict(space.labels)))
    paths["element"].write_text(json.dumps(
        matrix_unit(M2, 0, 1, 2).to_json_dict()))
    fn = classical_embed(space, [0.0, 1.0, 2.0, 3.0], M2)
    paths["function"].write_text(json.dumps(fn.to_json_dict()))
    return paths


def _run(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _report(out):
    return json.loads(out)["report"]


def test_norms_report_and_envelope(files, capsys):
    rc, out, _ = _run(capsys, ["norms", str(files["element"]),
                               "--algebra", str(files["algebra"])])
    assert rc == 0
    data = json.loads(out)
    assert set(data) == {"version", "config_hash", "command", "report"}
    assert data["command"] == "norms"
    report = data["report"]
    # a matrix unit is not self adjoint; all its norms are 1
    assert report["self_adjoint"] is False
    assert report["operator"] == pytest.approx(1.0, abs=1e-12)
    assert report["max"] == pytest.approx(1.0, abs=1e-12)
    assert report["real_max"] is None
    assert report["violated"] is False


def test_lipnorm_breakdown_of_a_classical_ramp(files, capsys):
    rc, out, _ = _run(capsys, ["lipnorm", str(files["function"])])
    assert rc == 0
    report = _report(out)
    assert report["lip_part"] == pytest.approx(1.0, abs=1e-12)
    assert report["q_term"] == pytest.approx(1.5, abs=1e-12)  # spread 3 over 2
    assert report["lipnorm"] == pytest.approx(1.5, abs=1e-12)


def test_mk_value_is_capped_by_the_radius_budget(files, capsys):
    rc, out, _ = _run(capsys, ["mk", str(files["mu"]), str(files["nu"]),
                               "--space", str(files["space"]),
                               "--algebra", str(files["algebra"]),
                               "--spec-q", "convk", "--K", "1.0"])
    assert rc == 0
    result = _report(out)["result"]
    assert result["kind"] == "exact"
    assert result["value"] == pytest.approx(1.0, abs=1e-9)
    assert "witness" in result


def test_mk_extends_witnesses_with_large_channel_gaps(files, capsys):
    """One-point states on a circle scaled by 1e8: the witness's channel
    gaps reach 1e8 and extend off the support without an input error."""
    space = files["dir"] / "big_circle.json"
    space.write_text(json.dumps(scale(circle_net(5, "chord"), 1e8).to_json_dict()))
    labels = circle_net(5, "chord").labels
    mu, nu = files["dir"] / "mu_big.json", files["dir"] / "nu_big.json"
    mu.write_text(json.dumps(tracial_functional(M2, (1.0,), 0).to_json_dict(labels)))
    nu.write_text(json.dumps(FunctionalState(((1.0, 2, vector_state(M2, 0, [1, 0])),))
                             .to_json_dict(labels)))
    rc, out, _ = _run(capsys, ["mk", str(mu), str(nu), "--space", str(space),
                               "--algebra", str(files["algebra"]),
                               "--spec-q", "convk", "--K", "1e8"])
    assert rc == 0
    result = _report(out)["result"]
    assert result["kind"] == "exact"
    assert result["value"] == pytest.approx(1e8, rel=1e-12)


def test_repeat_runs_are_byte_identical(files, capsys):
    argv = ["mk", str(files["mu"]), str(files["nu"]),
            "--space", str(files["space"]),
            "--algebra", str(files["algebra"])]
    rc1, out1, _ = _run(capsys, argv)
    rc2, out2, _ = _run(capsys, argv)
    assert (rc1, rc2) == (0, 0)
    assert out1 == out2


def test_config_hash_reads_input_contents_not_paths(capsys, tmp_path):
    """The same space and algebra in two directories give one hash; a
    space overwritten with other contents gives another.  The state files
    of mk and a bridge's cross file count the same way."""
    def write(name, obj):
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(obj))
        return str(path)

    def hash_of(argv):
        rc, out, _ = _run(capsys, argv)
        assert rc == 0
        return json.loads(out)["config_hash"]

    circle = circle_net(6).to_json_dict()
    hashes = [hash_of(["approx", "--space", write(d + "/s.json", circle),
                       "--algebra", write(d + "/a.json", M2.to_json_dict()), "--rows", "2"])
              for d in ("one", "two")]
    assert hashes[0] == hashes[1]
    write("one/s.json", circle_net(7).to_json_dict())
    argv = ["approx", "--space", str(tmp_path / "one/s.json"),
            "--algebra", str(tmp_path / "one/a.json"), "--rows", "2"]
    assert hash_of(argv) != hashes[0]
    # the output path still does not count
    assert _run(capsys, argv + ["--out", str(tmp_path / "r.json")])[0] == 0
    assert json.loads((tmp_path / "r.json").read_text())["config_hash"] == hash_of(argv)
    space = _path(4)
    states = [tracial_functional(M2, (1.0,), p).to_json_dict(space.labels) for p in (0, 3, 1)]
    mk = [["mk", write(d + "/mu.json", states[0]), write(d + "/nu.json", states[i]),
           "--space", write(d + "/p.json", space.to_json_dict()),
           "--algebra", write(d + "/a.json", M2.to_json_dict())]
          for d, i in (("three", 1), ("four", 1), ("five", 2))]
    assert hash_of(mk[0]) == hash_of(mk[1]) != hash_of(mk[2])
    bridge = [["bridge", "--space-x", write(d + "/p.json", space.to_json_dict()),
               "--space-y", write(d + "/p.json", space.to_json_dict()),
               "--cross", write(d + "/c.json", (space.dist + lift).tolist()),
               "--algebra", write(d + "/a.json", M2.to_json_dict()), "--samples", "1"]
              for d, lift in (("six", 0.0), ("seven", 0.0), ("eight", 0.5))]
    assert hash_of(bridge[0]) == hash_of(bridge[1]) != hash_of(bridge[2])


def test_dump_lp_is_an_output_argument(files, capsys, tmp_path):
    """The same mk run dumped to two paths gets the hash of the run with no
    dump, as --out does; the dumps themselves are equal."""
    argv = ["mk", str(files["mu"]), str(files["nu"]), "--space", str(files["space"]),
            "--algebra", str(files["algebra"])]
    hashes = []
    for extra in ([], ["--dump-lp", str(tmp_path / "a.csv")],
                  ["--dump-lp", str(tmp_path / "b.csv")]):
        rc, out, _ = _run(capsys, argv + extra)
        assert rc == 0
        hashes.append(json.loads(out)["config_hash"])
    assert hashes[0] == hashes[1] == hashes[2]
    assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()


def test_dump_lp_of_equal_states_says_no_channel_carries_a_pairing(files, capsys, tmp_path):
    rc, out, _ = _run(capsys, ["mk", str(files["mu"]), str(files["mu"]),
                               "--space", str(files["space"]), "--algebra", str(files["algebra"]),
                               "--dump-lp", str(tmp_path / "d.csv")])
    assert rc == 0 and _report(out)["result"]["value"] == 0.0
    assert (tmp_path / "d.csv").read_text() == "# no channel carries a pairing\n"


@pytest.mark.parametrize("extra, message", [
    (["--K", "1"], "--K only applies to --spec-q convk"),
    (["--ref-state", "mu"], "--ref-state only applies to --spec-q state"),
    (["--spec-q", "state"], "--ref-state is required with --spec-q state"),
    (["--weights", "a,b"], "--weights must be comma-separated numbers: 'a,b'"),
], ids=["K-without-convk", "ref-state-without-state", "state-without-ref-state", "weights-a-b"])
def test_embed_check_flags_out_of_place_are_exit_two(files, capsys, extra, message):
    extra = [str(files[tok]) if tok in files else tok for tok in extra]
    rc, out, err = _run(capsys, ["embed-check", "--space", str(files["space"]),
                                 "--algebra", str(files["algebra"])] + extra)
    assert (rc, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("extra, message", [
    (["--schedule", "x"], "--schedule must be comma-separated numbers: 'x'"),
    (["--schedule", "0.5", "--rows", "2"], "give either --schedule or --rows, not both"),
    (["--space", "point", "--rows", "2"], "space has zero diameter; give --schedule"),
], ids=["schedule-x", "schedule-and-rows", "rows-on-one-point"])
def test_approx_schedules_out_of_place_are_exit_two(files, capsys, extra, message):
    point = files["dir"] / "point.json"
    point.write_text(json.dumps(_path(1).to_json_dict()))
    extra = [str(point) if tok == "point" else tok for tok in extra]
    rc, out, err = _run(capsys, ["approx", "--space", str(files["space"]),
                                 "--algebra", str(files["algebra"])] + extra)
    assert (rc, out) == (2, "")
    assert message in err


def test_a_term_names_its_point_by_the_label_string(capsys, tmp_path):
    """A term's "x" must be the label itself: the number 1.5 used to read as
    the point labelled "1.5"."""
    space = tmp_path / "space.json"
    space.write_text(json.dumps(FiniteMetricSpace(("a", "1.5", "c"), _path(3).dist).to_json_dict()))
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps(M2.to_json_dict()))
    rest = ["--space", str(space), "--algebra", str(alg)]
    phi = tracial_functional(M2, (1.0,), 0).terms[0][2].to_json_dict()
    for x, rc_want in (("1.5", 0), (1.5, 2)):
        mu = tmp_path / "mu.json"
        mu.write_text(json.dumps({"terms": [{"w": 1.0, "x": x, "phi": phi}]}))
        rc, out, err = _run(capsys, ["mk", str(mu), str(mu)] + rest)
        assert rc == rc_want
    assert out == "" and 'state term JSON object needs a "x" str' in err


def test_bridge_scans_a_caller_cross(capsys, tmp_path):
    """A caller's cross matrix is scanned: the space's own distances with
    d(X0, Y0) raised to 10 break the triangle through X1."""
    space = tmp_path / "s.json"
    space.write_text(json.dumps(circle_net(6).to_json_dict()))
    algebra = tmp_path / "a.json"
    algebra.write_text(json.dumps(M2.to_json_dict()))
    bad = circle_net(6).dist.tolist()
    bad[0][0] = 10.0
    cross = tmp_path / "bad.json"
    cross.write_text(json.dumps(bad))
    rc, _, err = _run(capsys, ["bridge", "--space-x", str(space), "--space-y", str(space),
                               "--cross", str(cross), "--algebra", str(algebra)])
    assert rc == 2
    assert "joined metric fails the triangle inequality on (X0, X1, Y0)" in err


def test_embed_check_uses_uniform_default_weights(files, capsys):
    rc, out, _ = _run(capsys, ["embed-check",
                               "--space", str(files["space"]),
                               "--algebra", str(files["algebra"])])
    assert rc == 0
    report = _report(out)
    assert report["violated"] is False
    assert report["lower_constant"] == pytest.approx(1.0 / 3.0)


def test_gh_small_spaces_get_the_exact_value(files, capsys, tmp_path):
    two = tmp_path / "two.json"
    two.write_text(json.dumps(_path(2, step=2.0).to_json_dict()))
    rc, out, _ = _run(capsys, ["gh", str(files["space"]), str(two)])
    assert rc == 0
    report = _report(out)
    assert report["kind"] == "exact"
    assert report["value"] == pytest.approx(0.5, abs=1e-12)


def test_gh_large_spaces_need_a_cross_matrix(files, capsys, tmp_path):
    big = tmp_path / "big.json"
    labels = tuple("b%d" % i for i in range(6))
    d = np.abs(np.subtract.outer(np.arange(6), np.arange(6))).astype(float)
    big.write_text(json.dumps(FiniteMetricSpace(labels, d).to_json_dict()))
    rc, _, err = _run(capsys, ["gh", str(big), str(files["space"])])
    assert rc == 2
    assert "exact-search cap" in err
    cross = tmp_path / "cross.json"
    cross.write_text(json.dumps(d[:, :4].tolist()))
    rc, out, _ = _run(capsys, ["gh", str(big), str(files["space"]),
                               "--cross", str(cross)])
    assert rc == 0
    assert _report(out)["kind"] == "upper_bound"


def test_gen_output_feeds_straight_back_in(files, capsys, tmp_path):
    gen = tmp_path / "gen.json"
    rc, _, _ = _run(capsys, ["gen", "circle", "--n", "4",
                             "--out", str(gen)])
    assert rc == 0
    data = json.loads(gen.read_text())
    assert data["command"] == "gen"
    assert "labels" in data and "dist" in data  # space keys at top level
    rc, out, _ = _run(capsys, ["gh", str(gen), str(gen)])
    assert rc == 0
    assert _report(out)["value"] == pytest.approx(0.0, abs=1e-12)


def test_approx_csv_has_the_pinned_columns(files, capsys, tmp_path):
    out_file = tmp_path / "table.csv"
    rc, _, _ = _run(capsys, ["approx",
                             "--space", str(files["space"]),
                             "--algebra", str(files["algebra"]),
                             "--rows", "2", "--samples", "1",
                             "--format", "csv", "--out", str(out_file)])
    assert rc == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("# version=")
    assert lines[1].startswith("# config_hash=")
    assert lines[2] == "eps_n,net_size,hausdorff,delta_xy,bound"
    assert len(lines) == 5


def test_negative_samples_are_exit_two(files, capsys, tmp_path):
    cross = tmp_path / "cross.json"
    cross.write_text(json.dumps(_path(4).dist.tolist()))
    space, algebra = str(files["space"]), str(files["algebra"])
    for argv in (["approx", "--space", space, "--algebra", algebra, "--rows", "2"],
                 ["bridge", "--space-x", space, "--space-y", space,
                  "--cross", str(cross), "--algebra", algebra]):
        rc, out, err = _run(capsys, argv + ["--samples", "-1"])
        assert (rc, out) == (2, "")
        assert "samples must be a nonnegative integer" in err
        rc, out, _ = _run(capsys, argv + ["--samples", "0"])
        assert rc == 0
        report = _report(out)
        assert all(row["certificates"] == [] for row in report.get("rows", [report]))


def test_bad_seed_and_epsilon_are_exit_two(files, capsys, tmp_path):
    """A negative seed or a NaN or infinite epsilon used to end in a numpy
    or a cross-distance traceback."""
    cross = tmp_path / "cross.json"
    cross.write_text(json.dumps(_path(4).dist.tolist()))
    space, algebra = str(files["space"]), str(files["algebra"])
    for argv in (["approx", "--space", space, "--algebra", algebra, "--rows", "2"],
                 ["bridge", "--space-x", space, "--space-y", space,
                  "--cross", str(cross), "--algebra", algebra]):
        rc, out, err = _run(capsys, argv + ["--seed", "-1"])
        assert (rc, out) == (2, "")
        assert "seed must be a nonnegative integer" in err
        for eps in ("nan", "inf", "0"):
            rc, out, err = _run(capsys, argv + ["--eps", eps])
            assert (rc, out) == (2, "")
            assert "epsilon must be positive and finite" in err
    rc, out, err = _run(capsys, ["gen", "planar", "--n", "4", "--seed", "-3"])
    assert (rc, out) == (2, "")
    assert "--seed must be a nonnegative integer" in err
    rc, _, _ = _run(capsys, ["gen", "planar", "--n", "4", "--seed", "0"])
    assert rc == 0


def test_planar_points_that_cannot_be_placed_are_exit_two(capsys, monkeypatch):
    """gen planar used to exit 1, the code of a failed bound, with a
    traceback when it could not place its points."""
    monkeypatch.setattr(cli.np.random, "default_rng", lambda seed: CoincidentPoints())
    rc, out, err = _run(capsys, ["gen", "planar", "--n", "4"])
    assert (rc, out) == (2, "")
    assert "could not place 4 points more than 0.001" in err


def test_bad_box_samples_and_small_epsilon_are_exit_two(files, capsys, tmp_path):
    """A bad planar box and an epsilon whose cross offset is below the
    metric tolerance used to end in a traceback or blame a distance; too
    many samples drew states until the process was killed."""
    for box in ("-1", "0", "nan", "inf"):
        rc, out, err = _run(capsys, ["gen", "planar", "--n", "3", "--box", box])
        assert (rc, out) == (2, "")
        assert "box must be positive and finite" in err
    space, algebra = str(files["space"]), str(files["algebra"])
    cross = tmp_path / "cross.json"
    cross.write_text(json.dumps(_path(4).dist.tolist()))
    for argv in (["approx", "--space", space, "--algebra", algebra, "--rows", "2"],
                 ["bridge", "--space-x", space, "--space-y", space,
                  "--cross", str(cross), "--algebra", algebra]):
        for samples in ("10001", "100000000000000000000"):
            rc, out, err = _run(capsys, argv + ["--samples", samples])
            assert (rc, out) == (2, "")
            assert "samples must be at most 10000" in err
        rc, out, err = _run(capsys, argv + ["--eps", "1e-8"])
        assert (rc, out) == (2, "")
        assert "epsilon 1e-08 is too small" in err and "tolerance" in err
        rc, _, _ = _run(capsys, argv + ["--eps", "1e-7", "--samples", "1"])
        assert rc == 0


def test_bad_net_scales_and_too_many_rows_are_exit_two(files, capsys, monkeypatch):
    """An infinite net scale used to give a table with Infinity in it, a
    NaN one blamed epsilon_net, and --rows 1030 overflowed 2.0 ** i into
    a traceback with exit 1.  The row limit is checked before any scale
    of the schedule is built."""
    rest = ["approx", "--space", str(files["space"]), "--algebra", str(files["algebra"])]
    for schedule in ("inf,0.5", "0.5,nan"):
        rc, out, err = _run(capsys, rest + ["--schedule", schedule])
        assert (rc, out) == (2, "")
        assert "net scales must be positive and finite" in err
    # the path's half diameter 1.5 halves to a normal float 1022 times
    calls = []
    real = cli.math.ldexp

    def ldexp(x, i):
        calls.append(i)
        assert len(calls) < 10_000, "the schedule was built before the check"
        return real(x, i)

    monkeypatch.setattr(cli.math, "ldexp", ldexp)
    for rows in ("1024", "1030", "100000000"):
        calls.clear()
        rc, out, err = _run(capsys, rest + ["--rows", rows])
        assert (rc, out) == (2, "")
        assert "--rows must be at most 1023 here" in err
        assert len(calls) == 1024
    monkeypatch.undo()
    rc, out, _ = _run(capsys, rest + ["--rows", "3", "--samples", "1"])
    assert rc == 0
    assert [row["eps_n"] for row in _report(out)["rows"]] == [1.5, 0.75, 0.375]


def test_nan_weights_are_exit_two(files, capsys):
    """A NaN weight used to pass state validation: mk then died with a
    KeyError traceback, and embed-check blamed a supply row."""
    rest = ["--space", str(files["space"]), "--algebra", str(files["algebra"])]
    mu = files["dir"] / "mu_nan.json"
    data = tracial_functional(M2, (1.0,), 0).to_json_dict(_path(4).labels)
    extra = tracial_functional(M2, (1.0,), 2).to_json_dict(_path(4).labels)["terms"][0]
    data["terms"].append(dict(extra, w=float("nan")))
    mu.write_text(json.dumps(data))
    rc, out, err = _run(capsys, ["mk", str(mu), str(files["nu"])] + rest)
    assert (rc, out) == (2, "")
    assert "term weights must be finite" in err
    two = files["dir"] / "alg2.json"
    two.write_text(json.dumps(Algebra((2, 2)).to_json_dict()))
    rc, out, err = _run(capsys, ["embed-check", "--space", str(files["space"]),
                                 "--algebra", str(two), "--weights", "nan,1"])
    assert (rc, out) == (2, "")
    assert "block weights must be finite" in err


def test_generic_csv_carries_version_and_hash(files, capsys):
    rc, out, _ = _run(capsys, ["norms", str(files["element"]),
                               "--algebra", str(files["algebra"]),
                               "--format", "csv"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    keys = [line.split(",", 1)[0] for line in lines[1:]]
    assert "version" in keys and "config_hash" in keys
    assert "report.operator" in keys


def test_malformed_json_is_located(files, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"labels": [,]}')
    rc, _, err = _run(capsys, ["gh", str(bad), str(files["space"])])
    assert rc == 2
    assert "invalid JSON at line 1 column" in err


def test_missing_file_is_exit_two(files, capsys):
    rc, _, err = _run(capsys, ["gh", str(files["dir"] / "nope.json"),
                               str(files["space"])])
    assert rc == 2
    assert "input error" in err


def test_convk_without_K_is_exit_two(files, capsys):
    rc, _, err = _run(capsys, ["mk", str(files["mu"]), str(files["nu"]),
                               "--space", str(files["space"]),
                               "--algebra", str(files["algebra"]),
                               "--spec-q", "convk"])
    assert rc == 2
    assert "--K is required" in err


@pytest.mark.parametrize("k", ["inf", "nan", "0", "-1"])
def test_convk_with_a_K_that_is_not_positive_and_finite_is_exit_two(files, capsys, k):
    rc, _, err = _run(capsys, ["lipnorm", str(files["function"]),
                               "--spec-q", "convk", "--K", k])
    assert rc == 2
    assert "K must be positive and finite" in err


def test_pointwise_quotient_distance_is_exit_two(files, capsys):
    rc, _, err = _run(capsys, ["mk", str(files["mu"]), str(files["nu"]),
                               "--space", str(files["space"]),
                               "--algebra", str(files["algebra"]),
                               "--spec-q", "cx"])
    assert rc == 2
    assert "input error" in err


def test_wrong_weight_count_is_exit_two(files, capsys):
    rc, _, err = _run(capsys, ["embed-check",
                               "--space", str(files["space"]),
                               "--algebra", str(files["algebra"]),
                               "--weights", "0.5,0.5"])
    assert rc == 2
    assert "algebra has 1 blocks" in err


def test_ref_state_label_mismatch_is_exit_two(files, capsys, tmp_path):
    ref = tmp_path / "ref.json"
    ref.write_text(json.dumps(
        {"terms": [{"w": 1.0, "x": "q9",
                    "phi": tracial_functional(M2, (1.0,), 0)
                    .terms[0][2].to_json_dict()}]}))
    rc, _, err = _run(capsys, ["mk", str(files["mu"]), str(files["nu"]),
                               "--space", str(files["space"]),
                               "--algebra", str(files["algebra"]),
                               "--spec-q", "state",
                               "--ref-state", str(ref)])
    assert rc == 2
    assert "not a label" in err


def test_embed_check_reference_state_of_wrong_blocks_is_exit_two(files, capsys, tmp_path):
    """Checked up front: a one-point space has no pair to reach it."""
    point = tmp_path / "point.json"
    point.write_text(json.dumps(_path(1).to_json_dict()))
    ref = tmp_path / "ref.json"
    ref.write_text(json.dumps(
        tracial_functional(Algebra((2, 3)), (0.5, 0.5), 0).to_json_dict(("p0",))))
    rc, out, err = _run(capsys, ["embed-check", "--space", str(point),
                                 "--algebra", str(files["algebra"]),
                                 "--spec-q", "state", "--ref-state", str(ref)])
    assert (rc, out) == (2, "")
    assert "state block sizes" in err


def test_norms_of_a_non_finite_element_is_exit_two(files, capsys):
    bad = files["dir"] / "nan.json"
    # one 2x2 block, rows of [re, im] pairs, with a NaN in the corner
    bad.write_text(json.dumps([[[[float("nan"), 0.0], [0.0, 0.0]],
                                [[0.0, 0.0], [1.0, 0.0]]]]))
    rc, _, err = _run(capsys, ["norms", str(bad), "--algebra", str(files["algebra"])])
    assert rc == 2
    assert "finite" in err


def test_max_lipnorm_of_a_non_finite_function_is_exit_two(files, capsys):
    space = _path(3)
    values = [e.to_json_dict() for e in classical_embed(space, [0.0, 1.0, 2.0], M2).values]
    # one 2x2 block, rows of [re, im] pairs, with a NaN in the corner
    values[0] = [[[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]
    bad = files["dir"] / "nan_fn.json"
    bad.write_text(json.dumps({"space": space.to_json_dict(),
                               "algebra": M2.to_json_dict(), "values": values}))
    rc, _, err = _run(capsys, ["lipnorm", str(bad), "--spec-norm", "max"])
    assert rc == 2
    assert "finite" in err


def test_invalid_env_tolerance_is_exit_two(files, capsys, monkeypatch):
    monkeypatch.setenv("QMETRIC_TOL", "tight")
    rc, _, err = _run(capsys, ["norms", str(files["element"]),
                               "--algebra", str(files["algebra"])])
    assert rc == 2
    assert "QMETRIC_TOL" in err


def test_env_tolerance_is_honored(files, capsys, monkeypatch):
    monkeypatch.setenv("QMETRIC_TOL", "1e-6")
    rc, _, _ = _run(capsys, ["norms", str(files["element"]),
                             "--algebra", str(files["algebra"])])
    assert rc == 0


def test_env_tolerance_is_the_library_self_adjointness_slack(files, capsys, monkeypatch):
    """lipnorm hands QMETRIC_TOL to the library: a Hermitian defect of 5e-7
    fails the default slack and passes under 1e-6."""
    space = _path(4)
    fn = classical_embed(space, [0.0, 1.0, 2.0, 3.0], M2).to_json_dict()
    fn["values"][1][0][1][0] = [0.0, 5e-7]  # entry (1, 0); (0, 1) stays 0
    bad = files["dir"] / "defect_fn.json"
    bad.write_text(json.dumps(fn))
    rc, _, err = _run(capsys, ["lipnorm", str(bad)])
    assert rc == 2
    assert "self-adjoint" in err
    monkeypatch.setenv("QMETRIC_TOL", "1e-6")
    rc, out, _ = _run(capsys, ["lipnorm", str(bad)])
    assert rc == 0
    assert _report(out)["self_adjoint"] is True


def test_bound_violation_is_exit_one(files, capsys, monkeypatch):
    def explode(args):
        raise BoundViolation("synthetic failure for the exit path")
    monkeypatch.setattr(cli, "cmd_norms", explode)
    rc, _, err = _run(capsys, ["norms", str(files["element"]),
                               "--algebra", str(files["algebra"])])
    assert rc == 1
    assert "bound violation" in err


def test_violated_report_is_exit_one(files, capsys, monkeypatch):
    monkeypatch.setattr(cli, "cmd_norms", lambda args: {"violated": True})
    rc, out, _ = _run(capsys, ["norms", str(files["element"]),
                               "--algebra", str(files["algebra"])])
    assert rc == 1
    assert json.loads(out)["report"]["violated"] is True


def test_unknown_flag_is_exit_two(files, capsys):
    rc, _, _ = _run(capsys, ["norms", str(files["element"]),
                             "--algebra", str(files["algebra"]),
                             "--frobnicate"])
    assert rc == 2


def test_help_is_exit_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("norm", ["op", "max"])
def test_interval_dump_holds_the_relaxation_flows(files, capsys, tmp_path, norm):
    """Under op or max the file holds the realmax relaxation's flows, whose
    dual value sum(supply * potential) is the interval's upper end."""
    dump = tmp_path / ("%s.csv" % norm)
    mu = files["dir"] / "mu_mixed.json"
    rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    phi = AlgState((1.0,), (rho,))
    mu.write_text(json.dumps(FunctionalState(((0.6, 0, phi), (0.4, 2, phi)))
                             .to_json_dict(_path(4).labels)))
    rc, out, _ = _run(capsys, ["mk", str(mu), str(files["nu"]),
                               "--space", str(files["space"]),
                               "--algebra", str(files["algebra"]),
                               "--spec-norm", norm, "--dump-lp", str(dump)])
    assert rc == 0
    result = _report(out)["result"]
    assert result["kind"] == "interval"
    lines = dump.read_text().splitlines()
    heads = [i for i, ln in enumerate(lines) if ln.startswith("# channel ")]
    assert [lines[i] for i in heads] == ["# channel %d" % ch for ch in range(4)]
    dual = 0.0
    for i, end in zip(heads, heads[1:] + [len(lines)]):
        assert lines[i + 1].startswith("node,supply,potential,")
        rows = [ln.split(",") for ln in lines[i + 2:end]]
        # the support (points 0, 2 and 3), then the anchor
        assert [r[0] for r in rows] == ["p0", "p2", "p3", "anchor"]
        dual += sum(float(r[1]) * float(r[2]) for r in rows)
    assert dual == pytest.approx(result["upper"], rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("spec_q", ["conv", "state"])
def test_refined_max_interval_nests_and_repeats(files, capsys, spec_q):
    """mk --spec-norm max --refine exits 0, lands inside the unrefined
    interval, and prints the same bytes on a second run."""
    mu, ref = files["dir"] / "mu_mixed.json", files["dir"] / "ref.json"
    rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    sigma = np.array([[0.4, -0.3j], [0.3j, 0.6]])
    mu.write_text(json.dumps(FunctionalState(
        ((0.6, 0, AlgState((1.0,), (rho,))), (0.4, 2, AlgState((1.0,), (sigma,)))))
        .to_json_dict(_path(4).labels)))
    ref.write_text(json.dumps(FunctionalState(((1.0, 1, AlgState((1.0,), (sigma,))),))
                              .to_json_dict(_path(4).labels)))
    argv = ["mk", str(mu), str(files["nu"]), "--space", str(files["space"]),
            "--algebra", str(files["algebra"]), "--spec-norm", "max", "--spec-q", spec_q]
    if spec_q == "state":
        argv += ["--ref-state", str(ref)]
    rc, out, _ = _run(capsys, argv)
    assert rc == 0
    plain = _report(out)["result"]
    runs = [_run(capsys, argv + ["--refine"]) for _ in range(2)]
    assert [rc for rc, _, _ in runs] == [0, 0]
    assert runs[0][1] == runs[1][1]
    fine = _report(runs[0][1])["result"]
    assert fine["kind"] == plain["kind"] == "interval"
    assert plain["lower"] <= fine["lower"] <= fine["upper"] <= plain["upper"]
    assert fine["upper"] - fine["lower"] < plain["upper"] - plain["lower"]


def test_mk_takes_a_weight_just_below_zero(files, capsys):
    """A term weight inside the state slack below 0 used to crash mk with
    a KeyError traceback; it now counts as weight 0."""
    mu = files["dir"] / "mu_slack.json"
    data = tracial_functional(M2, (1.0,), 0).to_json_dict(_path(4).labels)
    extra = tracial_functional(M2, (1.0,), 2).to_json_dict(_path(4).labels)["terms"][0]
    data["terms"].append(dict(extra, w=-1e-12))
    mu.write_text(json.dumps(data))
    rest = ["--space", str(files["space"]), "--algebra", str(files["algebra"])]
    rc, out, err = _run(capsys, ["mk", str(mu), str(files["nu"])] + rest)
    assert (rc, err) == (0, "")
    rc, clean, _ = _run(capsys, ["mk", str(files["mu"]), str(files["nu"])] + rest)
    assert rc == 0
    assert _report(out)["result"] == _report(clean)["result"]


_PHI = AlgState((1.0,), (np.eye(2) / 2,)).to_json_dict()


@pytest.mark.parametrize("which, payload, message", [
    ("space", {"labels": ["a", "b"], "dist": [[0, 1], [1]]},
     "distance matrix must be a rectangular array of real numbers"),
    ("space", {"labels": ["a", "b"], "dist": [[0, "x"], [1, 0]]},
     "distance matrix must be a rectangular array of real numbers"),
    ("space", {"labels": 5, "dist": [[0]]}, 'metric space JSON object needs a "labels" list'),
    ("algebra", {"blocks": 2}, 'algebra JSON object needs a "blocks" list'),
    ("algebra", {"blocks": [float("nan")]}, "block size must be an integer >= 1, got nan"),
    ("algebra", {"blocks": [2.0]}, "block size must be an integer >= 1, got 2.0"),
    ("mu", {"terms": 5}, 'functional state JSON object needs a "terms" list'),
    ("mu", {"terms": [{"w": "a", "x": "p0", "phi": _PHI}]},
     "term weights must be finite, got 'a'"),
    ("mu", {"terms": [{"w": 1.0, "x": "p0", "phi": {"weights": 5, "densities": []}}]},
     'state JSON object needs a "weights" list'),
    ("mu", {"terms": [{"w": 1.0, "x": "p0",
                       "phi": {"weights": ["a"], "densities": _PHI["densities"]}}]},
     "block weights must be finite, got 'a'"),
    ("cross", [[1.0] * 4] * 6 + [[1.0]],
     "cross matrix must be a rectangular array of real numbers"),
    ("function", {"space": _path(2).to_json_dict(), "algebra": M2.to_json_dict(), "values": 5},
     'matrix function JSON object needs a "values" list'),
    ("space", {"labels": ["a", "b"], "dist": [[0, True], [True, 0]]},
     "distance matrix must be a rectangular array of real numbers, got a bool among them"),
    ("mu", {"terms": [{"w": 1.0, "x": "p0",
                       "phi": {"weights": [1.0], "densities": [[[[True, False]]]]}}]},
     "matrix JSON must be a rectangular array of real numbers, got bool entries"),
    ("mu", {"terms": [{"w": 1.0, "x": "p0"}]}, 'state term JSON object needs a "phi" key'),
    ("element", [[[[1.0, 0.0], [False, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]],
     "matrix JSON must be a rectangular array of real numbers, got a bool among them"),
    ("space", {"labels": [True, None, 1.5], "dist": _path(3).dist.tolist()},
     "point labels must be strings, got True"),
], ids=["ragged-dist", "text-dist", "labels-5", "blocks-2", "blocks-nan", "blocks-2.0",
        "terms-5", "w-a", "phi-weights-5", "phi-weights-a", "ragged-cross", "values-5",
        "bool-dist", "bool-density", "term-without-phi", "bool-element", "label-not-a-string"])
def test_malformed_json_is_exit_two(files, capsys, which, payload, message):
    """Each used to escape as a bare ValueError or TypeError, exit 1, but
    the bools, which were read as 0 and 1, the labels that are not
    strings, which were read through str(), and the term without "phi",
    which exited 2 under another message."""
    bad = files["dir"] / "bad.json"
    bad.write_text(json.dumps(payload))
    space, algebra = str(files["space"]), str(files["algebra"])
    seven = files["dir"] / "seven.json"
    seven.write_text(json.dumps(_path(7).to_json_dict()))
    argv = {
        "space": ["embed-check", "--space", str(bad), "--algebra", algebra],
        "algebra": ["embed-check", "--space", space, "--algebra", str(bad)],
        "mu": ["mk", str(bad), str(files["nu"]), "--space", space, "--algebra", algebra],
        "cross": ["gh", str(seven), space, "--cross", str(bad)],
        "function": ["lipnorm", str(bad)],
        "element": ["norms", str(bad), "--algebra", algebra],
    }[which]
    rc, out, err = _run(capsys, argv)
    assert (rc, out) == (2, "")
    assert message in err


def test_norms_of_a_self_adjoint_element_check_the_real_max_sandwich(files, capsys):
    sa = files["dir"] / "sa.json"
    sa.write_text(json.dumps((matrix_unit(M2, 0, 1, 2) + matrix_unit(M2, 0, 2, 1)).to_json_dict()))
    rc, out, _ = _run(capsys, ["norms", str(sa), "--algebra", str(files["algebra"])])
    assert rc == 0
    report = _report(out)
    assert report["self_adjoint"] is True
    assert report["real_max"] == pytest.approx(1.0, abs=1e-12)
    assert set(report["sandwich"]) == {
        "max_le_operator", "operator_le_maxblock_times_max", "real_max_le_max",
        "max_le_root2_real_max", "operator_le_root2_maxblock_real_max"}
    assert all(report["sandwich"].values())
    assert report["violated"] is False


def test_csv_flattens_a_list_in_the_report(files, capsys):
    rc, out, _ = _run(capsys, ["embed-check", "--space", str(files["space"]),
                               "--algebra", str(files["algebra"]), "--format", "csv"])
    assert rc == 0
    rows = dict(line.split(",", 1) for line in out.splitlines()[1:])
    # the six pairs of the 4-point path, the last one (p2, p3)
    assert (rows["report.pairs.5.x"], rows["report.pairs.5.y"]) == ("p2", "p3")
    assert rows["report.pairs.5.mk"] == "1"
    assert "report.pairs.6.x" not in rows
    assert rows["report.violated"] == "false"


def test_gen_interval_rescaled_to_a_diameter(capsys):
    rc, out, _ = _run(capsys, ["gen", "interval", "--n", "3", "--length", "2",
                               "--diameter", "5"])
    assert rc == 0
    data = json.loads(out)
    assert data["labels"] == ["t0", "t1", "t2"]
    assert data["dist"][0] == [0.0, 2.5, 5.0]


def test_cross_given_as_an_object_and_its_errors(files, capsys, tmp_path):
    big = tmp_path / "big.json"
    d = np.abs(np.subtract.outer(np.arange(6), np.arange(6))).astype(float)
    big.write_text(json.dumps(_path(6).to_json_dict()))
    argv = ["gh", str(big), str(files["space"]), "--cross", str(tmp_path / "cross.json")]
    (tmp_path / "cross.json").write_text(json.dumps(d[:, :4].tolist()))
    rc, out, _ = _run(capsys, argv)
    assert rc == 0
    value = _report(out)["value"]
    (tmp_path / "cross.json").write_text(json.dumps({"cross": d[:, :4].tolist()}))
    rc, out, _ = _run(capsys, argv)
    assert rc == 0
    assert _report(out)["value"] == value
    (tmp_path / "cross.json").write_text(json.dumps({"matrix": d[:, :4].tolist()}))
    rc, out, err = _run(capsys, argv)
    assert (rc, out) == (2, "")
    assert "cross-distance JSON object needs a \"cross\" key" in err
    (tmp_path / "cross.json").write_text(json.dumps({"cross": d[:, :3].tolist()}))
    rc, out, err = _run(capsys, argv)
    assert (rc, out) == (2, "")
    assert "cross matrix must be 6x4, got (6, 3)" in err
