import json

import numpy as np
import pytest

from qmetric import cli
from qmetric.algebra import Algebra, matrix_unit
from qmetric.errors import BoundViolation
from qmetric.funcspace import MatrixFunction, classical_embed
from qmetric.metric import FiniteMetricSpace
from qmetric.states import tracial_functional

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


def test_repeat_runs_are_byte_identical(files, capsys):
    argv = ["mk", str(files["mu"]), str(files["nu"]),
            "--space", str(files["space"]),
            "--algebra", str(files["algebra"])]
    rc1, out1, _ = _run(capsys, argv)
    rc2, out2, _ = _run(capsys, argv)
    assert (rc1, rc2) == (0, 0)
    assert out1 == out2


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
