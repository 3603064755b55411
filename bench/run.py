"""The qmetric benchmark: one workload, one seed, one line of JSON metrics.

Usage, from the root of a checkout:

  python3 bench/run.py --workload {mk_exact,mk_coupled,embed,approx} \\
      --seed N --seconds S --trace {0,1}

Each run is one client calling the library in a closed loop, one call at a
time, from a fresh worker process (worker.py) with BLAS threads pinned to
1.  With --trace 0 it reports the end-to-end metrics:

  setup_s          process start through ``import qmetric`` and input
                   building, up to the first timed call; the median of
                   SETUP_PROBES extra worker starts and the timed worker's,
                   in reference seconds at the timed calls' host speed
  certified_per_s  certified results per reference second of calls
  call_p50_s       median reference seconds of one user-level call, per
                   call kind, averaged over the workload's kinds
  peak_rss_mb      peak resident memory of the timed worker

With --trace 1 a worker with tracer.py's spans runs for --seconds, an
untraced worker replays the same calls, and the per-layer metrics come
out, plus trace.overhead_s (traced minus untraced, reference seconds).

Every answer is checked after the timed section.  ``failed`` counts calls
that raised or failed the check; failed / attempted is the failure ratio.
The environment and the full report go to bench/out/, the summary and the
environment to stdout, and the JSON result is the last line.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("mk_exact", "mk_coupled", "embed", "approx")
SETUP_PROBES = 8
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Workers still running this long after start are killed, so that a run
# ends within 180 s.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def worker(root: str, args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh process and return its JSON report."""
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("PYTHONSTARTUP", None)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args,
           "--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError("worker %s passed the run's deadline" % (args,))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError("worker %s exited with %d" % (args, proc.returncode))
    report = json.loads(out.strip().splitlines()[-1])
    expected = os.path.join(root, "src", "qmetric", "__init__.py")
    if os.path.realpath(report["qmetric_file"]) != os.path.realpath(expected):
        raise BenchError("worker imported qmetric from %s, not the checkout"
                         % report["qmetric_file"])
    return report


def git_commit(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def tail_percentile(samples: list[float]):
    """The highest of p50/p90/p99/p99.9 with at least ten samples above it."""
    ordered = sorted(samples)
    best = None
    for p in (50.0, 90.0, 99.0, 99.9):
        if len(ordered) * (1.0 - p / 100.0) >= 10.0:
            best = (p, ordered[int(p / 100.0 * len(ordered))])
    return best


def call_p50(times: list[float], kinds: list[str]) -> float:
    """Median call time of each call kind, averaged over the kinds.

    Whole rounds give every kind the same count.  With two kinds of
    different cost, the plain median would be the midpoint of the slowest
    fast call and the fastest slow call, the two noisiest samples.
    """
    by_kind: dict[str, list[float]] = {}
    for t, kind in zip(times, kinds):
        by_kind.setdefault(kind, []).append(t)
    return statistics.fmean(statistics.median(v) for v in by_kind.values())


def end_to_end(root, base, seconds, deadline) -> tuple[dict, dict]:
    setups = [worker(root, base + ["--mode", "setup"], deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    rep = worker(root, base + ["--mode", "time", "--seconds", str(seconds)],
                 deadline)
    setups.append(rep["setup_s"])
    rep["setup_samples_s"] = setups
    rep["call_tail"] = tail_percentile(rep["call_s"])
    # Set-up is too short to correct on its own; scale it by the host-speed
    # factor of the timed calls that follow it, weighted by call time.
    host_factor = rep["total_s"] / rep["total_wall_s"]
    metrics = {
        "setup_s": (statistics.median(setups) * host_factor, "s"),
        "certified_per_s": (rep["certified_per_s"], "1/s"),
        "call_p50_s": (call_p50(rep["call_s"], rep["call_kind"]), "s"),
        "peak_rss_mb": (rep["peak_rss_mb"], "MB"),
    }
    return metrics, rep


def per_layer(root, base, seconds, deadline, spans_path) -> tuple[dict, dict]:
    traced = worker(root, base + ["--mode", "trace", "--seconds", str(seconds),
                                  "--spans", spans_path], deadline)
    replay = worker(root, base + ["--mode", "replay",
                                  "--calls", str(traced["attempted"])],
                    deadline)
    metrics = {name: tuple(v) for name, v in traced["layers"].items()}
    metrics["trace.overhead_s"] = (traced["total_s"] - replay["total_s"], "s")
    rep = dict(traced)
    rep["replay"] = {k: replay[k] for k in ("attempted", "failed", "total_s",
                                            "total_wall_s")}
    rep["attempted"] += replay["attempted"]
    rep["failed"] += replay["failed"]
    rep["problems"] += replay["problems"]
    # The traced worker is traced by design; the timings that must be
    # untraced are the replay's.
    rep["untraced"] = replay["untraced"]
    return metrics, rep


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="reduced input sizes, for the self-tests")
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    # Turn SIGTERM into SystemExit, so that worker() still stops its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qmetric", "__init__.py")):
        print("bench: no src/qmetric under %s; run from the root of a "
              "checkout" % root, file=sys.stderr)
        return 2

    base = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        base.append("--tiny")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, "%s-seed%d-trace%d"
                        % (args.workload, args.seed, args.trace))
    try:
        if args.trace:
            metrics, rep = per_layer(root, base, args.seconds, deadline,
                                     stem + ".spans.jsonl")
        else:
            metrics, rep = end_to_end(root, base, args.seconds, deadline)
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 1

    env = dict(rep.pop("environment"), git_commit=git_commit(root))
    attempted, failed = rep["attempted"], rep["failed"]
    # The gate must have run on at least one call, and the untraced timings
    # must come from a process that never installed the wrappers.
    correct = attempted >= 1 and failed == 0 and rep["untraced"]
    with open(stem + ".json", "w") as fh:
        json.dump({"args": vars(args), "environment": env, "metrics": metrics,
                   "report": rep}, fh, indent=1)

    print("# environment %s" % json.dumps(env, sort_keys=True))
    print("# %s seed %d: %d calls of %s, %d failed (failed_ratio %.3g), "
          "untraced timings verified: %s"
          % (args.workload, args.seed, attempted, ", ".join(rep["kinds"]),
             failed, failed / max(attempted, 1), rep["untraced"]))
    for problem in rep["problems"]:
        print("# FAILED %s" % problem)
    if args.trace == 0:
        print("# call samples %d, raw wall p50 %.4g s, tail %s, "
              "raw certified/s %.4g"
              % (len(rep["call_s"]), statistics.median(rep["call_wall_s"]),
                 "p%g = %.4g s" % rep["call_tail"] if rep["call_tail"]
                 else "none (fewer than 20 samples)",
                 rep["certified_per_wall_s"]))
    for name, (value, unit) in sorted(metrics.items()):
        print("# %-40s %14.6g %s" % (name, value, unit))
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
