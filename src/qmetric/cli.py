"""Command line front end.

One subcommand per top-level operation.  Reports are deterministic: same
arguments and seed give byte-identical output, every report carries the
package version and a hash of the invocation config, and nothing in a
report depends on the clock.

Exit codes: 0 success, 1 a certified bound failed to hold, 2 bad input.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .algebra import (
    Algebra,
    AlgElement,
    TAU_SA,
    max_norm,
    op_norm,
    real_max_norm,
    tracial_state,
)
from .errors import BoundViolation, InputError, UnsupportedSpec, _integer, _real
from .funcspace import MatrixFunction, SeminormSpec, lip_part, lipnorm, q_term, sup_norm
from .generate import circle_net, interval_net, random_planar_space, scaled_to_diameter
from .metric import GH_EXACT_CAP, FiniteMetricSpace, diameter, gh_exact, gh_upper
from .mk import embed_check, mk_distance
from .propinquity import approx_table, propinquity_upper_bound
from .states import FunctionalState

_NORM_FLAGS = {"op": "operator", "max": "max", "realmax": "real_max"}
_Q_FLAGS = {"cx": "quotient_CX", "c": "quotient_C", "state": "state",
            "conv": "conv", "convk": "conv_K"}

_APPROX_COLUMNS = ("eps_n", "net_size", "hausdorff", "delta_xy", "bound")

# arguments that name input files: the config hash reads their contents
_INPUT_FILES = frozenset(("space", "algebra", "cross", "space_x", "space_y", "ref_state",
                          "element", "function", "mu", "nu", "space_a", "space_b"))


def _cli_tol(default: float = TAU_SA) -> float:
    """Comparison slack for checks made at the CLI layer.

    QMETRIC_TOL overrides the default when set.
    """
    raw = os.environ.get("QMETRIC_TOL")
    if raw is None:
        return default
    try:
        val = float(raw)
    except ValueError:
        raise InputError("QMETRIC_TOL is not a number: %r" % raw)
    return _real(val, "QMETRIC_TOL", positive=True)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError("%s: invalid JSON at line %d column %d: %s"
                         % (path, exc.lineno, exc.colno, exc.msg))
    except OSError as exc:
        raise InputError("%s: %s" % (path, exc.strerror or exc))


def _load_space(path: str) -> FiniteMetricSpace:
    return FiniteMetricSpace.from_json_dict(_load_json(path))


def _load_algebra(path: str) -> Algebra:
    return Algebra.from_json_dict(_load_json(path))


def _load_cross(path: str):
    """A file's cross matrix, bare or under a "cross" key; unchecked."""
    data = _load_json(path)
    if isinstance(data, dict):
        if "cross" not in data:
            raise InputError("%s: cross-distance JSON object needs a "
                             "\"cross\" key" % path)
        data = data["cross"]
    return data


def _spec_from_args(args, labels) -> SeminormSpec:
    norm_kind = _NORM_FLAGS[args.spec_norm]
    q_kind = _Q_FLAGS[args.spec_q]
    k = None
    state = None
    if q_kind == "conv_K":
        if args.K is None:
            raise InputError("--K is required with --spec-q convk")
        k = args.K
    elif args.K is not None:
        raise InputError("--K only applies to --spec-q convk")
    if q_kind == "state":
        if args.ref_state is None:
            raise InputError("--ref-state is required with --spec-q state")
        state = FunctionalState.from_json_dict(_load_json(args.ref_state),
                                               labels)
    elif args.ref_state is not None:
        raise InputError("--ref-state only applies to --spec-q state")
    return SeminormSpec(norm_kind, q_kind, K=k, state=state)


def _parse_weights(raw: str, n_blocks: int) -> np.ndarray:
    try:
        vals = [float(tok) for tok in raw.split(",")]
    except ValueError:
        raise InputError("--weights must be comma-separated numbers: %r" % raw)
    if len(vals) != n_blocks:
        raise InputError("--weights has %d entries, algebra has %d blocks"
                         % (len(vals), n_blocks))
    return np.array(vals)


# ---------------------------------------------------------------- commands

def cmd_norms(args) -> dict:
    algebra = _load_algebra(args.algebra)
    element = AlgElement.from_json_dict(algebra, _load_json(args.element))
    tol = _cli_tol()
    sa = element.is_self_adjoint(tol)
    opn = op_norm(element)
    maxn = max_norm(element)
    m_a = algebra.max_block
    checks = {
        "max_le_operator": maxn <= opn + tol,
        "operator_le_maxblock_times_max": opn <= m_a * maxn + tol,
    }
    payload = {
        "self_adjoint": sa,
        "operator": opn,
        "max": maxn,
        "real_max": None,
    }
    if sa:
        rmn = real_max_norm(element, tol)
        payload["real_max"] = rmn
        checks["real_max_le_max"] = rmn <= maxn + tol
        checks["max_le_root2_real_max"] = maxn <= math.sqrt(2.0) * rmn + tol
        checks["operator_le_root2_maxblock_real_max"] = (
            opn <= math.sqrt(2.0) * m_a * rmn + tol)
    payload["sandwich"] = checks
    payload["violated"] = not all(checks.values())
    return payload


def cmd_lipnorm(args) -> dict:
    fn = MatrixFunction.from_json_dict(_load_json(args.function))
    spec = _spec_from_args(args, fn.space.labels)
    tol = _cli_tol()
    return {
        "spec": spec.describe(),
        "self_adjoint": fn.is_self_adjoint(tol),
        "sup_norm": sup_norm(fn, spec.norm_kind, tol),
        "lip_part": lip_part(fn, spec.norm_kind, tol),
        "q_term": q_term(fn, spec, tol),
        "lipnorm": lipnorm(fn, spec, tol),
    }


def cmd_mk(args) -> dict:
    space = _load_space(args.space)
    algebra = _load_algebra(args.algebra)
    mu = FunctionalState.from_json_dict(_load_json(args.mu), space.labels)
    nu = FunctionalState.from_json_dict(_load_json(args.nu), space.labels)
    spec = _spec_from_args(args, space.labels)
    result = mk_distance(space, algebra, mu, nu, spec,
                         refine=args.refine, dump_csv=args.dump_lp)
    return {"spec": spec.describe(), "result": result.to_json_dict()}


def cmd_embed_check(args) -> dict:
    space = _load_space(args.space)
    algebra = _load_algebra(args.algebra)
    if args.weights is None:
        v = np.full(algebra.n_blocks, 1.0 / algebra.n_blocks)
    else:
        v = _parse_weights(args.weights, algebra.n_blocks)
    tracial_state(algebra, v)  # shape and positivity validation up front
    spec = _spec_from_args(args, space.labels)
    return embed_check(space, algebra, v, spec)


def cmd_gh(args) -> dict:
    a = _load_space(args.space_a)
    b = _load_space(args.space_b)
    if a.size <= GH_EXACT_CAP and b.size <= GH_EXACT_CAP:
        return {"kind": "exact", "value": gh_exact(a, b), "cap": GH_EXACT_CAP}
    if args.cross is None:
        raise InputError("spaces exceed the exact-search cap of %d points; "
                         "provide --cross for an upper bound" % GH_EXACT_CAP)
    cross = _load_cross(args.cross)
    return {"kind": "upper_bound", "value": gh_upper(a, b, cross),
            "cap": GH_EXACT_CAP}


def cmd_bridge(args) -> dict:
    x = _load_space(args.space_x)
    y = _load_space(args.space_y)
    algebra = _load_algebra(args.algebra)
    cross = _load_cross(args.cross)
    bound = propinquity_upper_bound(x, y, cross, args.eps, algebra,
                                    samples=args.samples, seed=args.seed)
    return bound.to_json_dict()


def cmd_approx(args) -> dict:
    space = _load_space(args.space)
    algebra = _load_algebra(args.algebra)
    if args.schedule is not None and args.rows is not None:
        raise InputError("give either --schedule or --rows, not both")
    if args.schedule is not None:
        try:
            schedule = [float(tok) for tok in args.schedule.split(",")]
        except ValueError:
            raise InputError("--schedule must be comma-separated numbers: %r"
                             % args.schedule)
    else:
        rows = _integer(6 if args.rows is None else args.rows, "--rows", 1)
        start = diameter(space) / 2.0
        if start <= 0.0:
            raise InputError("space has zero diameter; give --schedule")
        # ldexp halves without forming 2.0 ** i, which overflows at i = 1024;
        # halving is exact down to the smallest normal float, then it rounds
        normal = next(i for i in itertools.count()
                      if math.ldexp(start, -i) < sys.float_info.min)
        if rows > normal:
            raise InputError("--rows must be at most %d here: further halvings of %.12g "
                             "fall below the smallest normal float" % (normal, start))
        schedule = [math.ldexp(start, -i) for i in range(rows)]
    table = approx_table(space, algebra, schedule, args.eps,
                         samples=args.samples, seed=args.seed)
    return {"rows": table}


def cmd_gen(args) -> dict:
    _integer(args.seed, "--seed")
    if args.kind == "circle":
        space = circle_net(args.n, metric=args.metric, radius=args.radius)
    elif args.kind == "interval":
        space = interval_net(args.n, length=args.length)
    else:
        rng = np.random.default_rng(args.seed)
        space = random_planar_space(args.n, rng, box=args.box)
    if args.diameter is not None:
        space = scaled_to_diameter(space, args.diameter)
    return space.to_json_dict()


# ------------------------------------------------------------------ output

def _pyify(obj):
    if isinstance(obj, dict):
        return {key: _pyify(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyify(val) for val in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, float):
        return float(obj)
    return obj


def _config_hash(args) -> str:
    """Hash of every argument but the output ones (--out, --format and
    --dump-lp), with each input file counted by the SHA-256 of its bytes,
    not by its path."""
    skip = {"out", "format", "func", "dump_lp"}
    cfg = {key: val for key, val in vars(args).items() if key not in skip}
    for key in _INPUT_FILES & cfg.keys():
        if cfg[key] is not None:
            with open(cfg[key], "rb") as fh:
                cfg[key] = "sha256:" + hashlib.sha256(fh.read()).hexdigest()
    blob = json.dumps(cfg, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _csv_scalar(val) -> str:
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, float):
        return "%.12g" % val
    if val is None:
        return ""
    return str(val)


def _flatten(prefix: str, obj, rows: list) -> None:
    if isinstance(obj, dict):
        for key, val in obj.items():
            _flatten("%s.%s" % (prefix, key) if prefix else str(key), val, rows)
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            _flatten("%s.%d" % (prefix, i), val, rows)
    else:
        rows.append((prefix, _csv_scalar(obj)))


def _csv_text(envelope: dict) -> str:
    buf = io.StringIO()
    command = envelope["command"]
    if command == "approx":
        # Fixed column set; certificates live in the JSON format only.
        buf.write("# version=%s\n" % envelope["version"])
        buf.write("# config_hash=%s\n" % envelope["config_hash"])
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_APPROX_COLUMNS)
        for row in envelope["report"]["rows"]:
            writer.writerow([_csv_scalar(row[col]) for col in _APPROX_COLUMNS])
    else:
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("key", "value"))
        rows = [("version", envelope["version"]),
                ("config_hash", envelope["config_hash"]),
                ("command", command)]
        for key, val in envelope.items():
            if key not in ("version", "config_hash", "command"):
                _flatten(key, val, rows)
        writer.writerows(rows)
    return buf.getvalue()


def _emit(args, envelope: dict) -> None:
    if args.format == "csv":
        text = _csv_text(envelope)
    else:
        text = json.dumps(envelope, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------------- parsing

def _build_parser() -> argparse.ArgumentParser:
    out_p = argparse.ArgumentParser(add_help=False)
    out_p.add_argument("--out", metavar="<path>",
                       help="write the report here instead of stdout")
    out_p.add_argument("--format", choices=("json", "csv"), default="json")

    spec_p = argparse.ArgumentParser(add_help=False)
    spec_p.add_argument("--spec-norm", choices=sorted(_NORM_FLAGS),
                        default="realmax", help="norm kind on elements")
    spec_p.add_argument("--spec-q", choices=("cx", "c", "state", "conv",
                                             "convk"),
                        default="conv", help="recentring term of the seminorm")
    spec_p.add_argument("--K", type=float, metavar="<real>",
                        help="scale constant, convk only")
    spec_p.add_argument("--ref-state", metavar="<path>",
                        help="function-space state JSON, state q only")

    run_p = argparse.ArgumentParser(add_help=False)
    run_p.add_argument("--seed", type=int, default=0, metavar="<int>")
    run_p.add_argument("--samples", type=int, default=3, metavar="<int>")

    parser = argparse.ArgumentParser(
        prog="qmetric",
        description="Dual metrics on states of matrix-valued function spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norms", parents=[out_p],
                       help="norms of one element, with sandwich checks")
    p.add_argument("element", help="element JSON")
    p.add_argument("--algebra", required=True, help="algebra JSON")
    p.set_defaults(func=cmd_norms)

    p = sub.add_parser("lipnorm", parents=[out_p, spec_p],
                       help="seminorm breakdown of one function")
    p.add_argument("function", help="matrix function JSON")
    p.set_defaults(func=cmd_lipnorm)

    p = sub.add_parser("mk", parents=[out_p, spec_p],
                       help="dual distance between two states")
    p.add_argument("mu", help="state JSON")
    p.add_argument("nu", help="state JSON")
    p.add_argument("--space", required=True, help="metric space JSON")
    p.add_argument("--algebra", required=True, help="algebra JSON")
    p.add_argument("--refine", action="store_true",
                   help="tighten the interval under the max norm")
    p.add_argument("--dump-lp", metavar="<path>",
                   help="write the exact solve as CSV: per-channel supplies, potentials "
                        "and flows, after a multiplier line for --spec-q state; under "
                        "--spec-norm op or max, those of the realmax relaxation giving "
                        "the upper end (also with --refine, not its polygon LPs)")
    p.set_defaults(func=cmd_mk)

    p = sub.add_parser("embed-check", parents=[out_p, spec_p],
                       help="compare dual distance to the base metric "
                            "on point evaluations")
    p.add_argument("--space", required=True, help="metric space JSON")
    p.add_argument("--algebra", required=True, help="algebra JSON")
    p.add_argument("--weights", metavar="<csv>",
                   help="block weights of the tracial state, default uniform")
    p.set_defaults(func=cmd_embed_check)

    p = sub.add_parser("gh", parents=[out_p],
                       help="distance between two metric spaces")
    p.add_argument("space_a", help="metric space JSON")
    p.add_argument("space_b", help="metric space JSON")
    p.add_argument("--cross", metavar="<path>",
                   help="cross-distance matrix JSON, for the upper bound")
    p.set_defaults(func=cmd_gh)

    p = sub.add_parser("bridge", parents=[out_p, run_p],
                       help="certified closeness bound across a bridge")
    p.add_argument("--space-x", required=True, help="metric space JSON")
    p.add_argument("--space-y", required=True, help="metric space JSON")
    p.add_argument("--cross", required=True,
                   help="cross-distance matrix JSON")
    p.add_argument("--algebra", required=True, help="algebra JSON")
    p.add_argument("--eps", type=float, default=1e-3, metavar="<real>")
    p.set_defaults(func=cmd_bridge)

    p = sub.add_parser("approx", parents=[out_p, run_p],
                       help="net approximation table for one space")
    p.add_argument("--space", required=True, help="metric space JSON")
    p.add_argument("--algebra", required=True, help="algebra JSON")
    p.add_argument("--eps", type=float, default=1e-3, metavar="<real>")
    p.add_argument("--schedule", metavar="<csv>",
                   help="net radii, strictly decreasing")
    p.add_argument("--rows", type=int, metavar="<int>",
                   help="halving schedule length, from half the diameter")
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("gen", parents=[out_p],
                       help="write a sample metric space")
    p.add_argument("kind", choices=("circle", "interval", "planar"))
    p.add_argument("--n", type=int, required=True, metavar="<int>")
    p.add_argument("--metric", choices=("chord", "arc"), default="chord",
                   help="circle only")
    p.add_argument("--radius", type=float, default=1.0, help="circle only")
    p.add_argument("--length", type=float, default=1.0, help="interval only")
    p.add_argument("--box", type=float, default=1.0, help="planar only")
    p.add_argument("--seed", type=int, default=0, metavar="<int>")
    p.add_argument("--diameter", type=float, metavar="<real>",
                   help="rescale the result to this diameter")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None or code == 0:
            return 0
        return code if isinstance(code, int) else 2
    try:
        payload = _pyify(args.func(args))
        envelope = {
            "version": __version__,
            "config_hash": _config_hash(args),
            "command": args.command,
        }
        if args.command == "gen":
            # Generated spaces stay directly loadable as space JSON.
            envelope.update(payload)
        else:
            envelope["report"] = payload
        _emit(args, envelope)
        return 1 if payload.get("violated") else 0
    except BoundViolation as exc:
        print("bound violation: %s" % exc, file=sys.stderr)
        return 1
    except (InputError, UnsupportedSpec) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
