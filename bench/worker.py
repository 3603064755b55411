"""One benchmark process: build a workload, run its calls, check the answers.

run.py starts this script with BLAS threads pinned to 1 in the process's
own environment and ``src/`` of the checkout first on PYTHONPATH.  Modes:

  setup   import qmetric and build the inputs, then exit
  time    call the workload in a closed loop for --seconds, untraced
  trace   the same with tracer.py's spans installed
  replay  untraced, exactly --calls calls (the traced run's count)

The last line of stdout is a JSON report for run.py.

Host speed on a shared machine drifts by tens of percent within seconds,
and CPU time drifts with it.  A SIGALRM timer therefore runs a fixed ~1 ms
kernel every SAMPLE_EVERY_S throughout the timed loop, in the calling
thread between bytecodes (no extra thread).  Each call's time is its wall
time minus the kernel runs inside it, scaled to reference seconds by
KERNEL_S over the mean kernel time around the call.  Raw wall times are
reported alongside.  Set-up is not sampled: kernel runs during or after
start-up tracked it worse than no correction at all, so run.py scales it by
the timed calls' mean factor instead.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import signal
import statistics
import sys
import time

import numpy as np

KERNEL_S = 0.001         # nominal kernel() duration on the reference host
SAMPLE_EVERY_S = 0.05
LOOKBACK_S = 0.25        # a short call is also judged by the samples before it

_K_MATS = tuple(np.random.default_rng(i).normal(size=(3, 3)) + 1j
                for i in range(8))
_K_STREAM = np.random.default_rng(8).normal(size=1 << 16)


def kernel() -> float:
    """Time a fixed mix of interpreter work, small numpy calls on 3x3
    complex blocks and one streaming update: the library's kinds of work."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(10):
        for a in _K_MATS:
            d = a - _K_MATS[0]
            acc += float(np.abs(d.real).max()) + float(np.abs(d.imag).max())
    np.subtract(_K_STREAM, 1e-12, out=_K_STREAM)
    end = time.perf_counter()
    if acc != acc:  # keeps the work observable
        raise ArithmeticError("kernel produced NaN")
    return end - start


class HostClock:
    """Samples the kernel on a timer while active; converts call times."""

    def __init__(self, on_sample=None):
        self.times: list[float] = []
        self.durations: list[float] = []
        self.on_sample = on_sample

    def _sample(self, *_):
        start = time.perf_counter()
        duration = kernel()
        self.times.append(start)
        self.durations.append(duration)
        if self.on_sample is not None:
            self.on_sample(duration)

    def __enter__(self):
        for _ in range(5):
            self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def call_time(self, start: float, end: float) -> tuple[float, float]:
        """(wall time net of kernel runs, factor to reference seconds)."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        net = (end - start) - sum(self.durations[lo:hi])
        window = self.durations[bisect.bisect_left(self.times,
                                                   start - LOOKBACK_S):hi]
        window = window or self.durations[-5:]
        return net, KERNEL_S / statistics.fmean(window)


def untraced() -> bool:
    """True when this process never loaded the tracer, so no wrapper exists."""
    return "tracer" not in sys.modules


def environment() -> dict:
    root = os.getcwd()
    src = os.path.join(root, "src", "qmetric")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                lines += sum(1 for _ in fh)
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "src_qmetric_lines": lines,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "time", "trace", "replay"),
                    required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--calls", type=int, default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    import qmetric
    import workloads

    wl = workloads.build(args.workload, args.seed, tiny=args.tiny)
    report = {"setup_s": time.monotonic() - args.spawned_at,
              "qmetric_file": qmetric.__file__}
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    tracer = None
    if args.mode == "trace":
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer.install()

    # The loop runs whole rounds of the call kinds, so that a mixed
    # workload's median does not depend on where the clock ran out, and
    # starts a round only if one more round like the last ends in time.
    round_len = len({c.kind for c in wl.calls})
    outcomes = []  # (call, result or None, error or None, net wall, factor)
    clock = HostClock(tracer.pause if tracer is not None else None)
    with clock:
        loop_start = round_start = time.perf_counter()
        last_round_s = 0.0
        i = 0
        while True:
            if args.mode == "replay":
                if i >= args.calls:
                    break
            elif i % round_len == 0 and i > 0:
                now = time.perf_counter()
                last_round_s, round_start = now - round_start, now
                if now - loop_start + last_round_s > args.seconds:
                    break
            call = wl.calls[i % len(wl.calls)]
            if tracer is not None:
                tracer.begin_call()
            error = result = None
            start = time.perf_counter()
            try:
                result = call.run()
            except Exception as exc:  # every failure is counted, never dropped
                error = "%s: %s" % (type(exc).__name__, exc)
            end = time.perf_counter()
            outcomes.append((call, result, error, *clock.call_time(start, end)))
            i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()

    # Correctness gate, outside the timed section.
    failed = certified = 0
    problems = []
    for call, result, error, _, _ in outcomes:
        if error is not None:
            failed += 1
            problems.append("%s raised %s" % (call.kind, error))
            continue
        try:
            n_ok, found = call.check(result)
        except Exception as exc:
            n_ok, found = 0, ["%s gate raised %s: %s"
                              % (call.kind, type(exc).__name__, exc)]
        if found:
            failed += 1
            problems.extend(found)
        certified += n_ok

    walls = [w for _, _, _, w, _ in outcomes]
    norm = [w * f for _, _, _, w, f in outcomes]
    report.update({
        "attempted": len(outcomes),
        "failed": failed,
        "problems": problems[:20],
        "certified": certified,
        "kinds": sorted({c.kind for c, _, _, _, _ in outcomes}),
        "call_kind": [c.kind for c, _, _, _, _ in outcomes],
        "call_s": norm,
        "call_wall_s": walls,
        "certified_per_s": certified / sum(norm) if norm else 0.0,
        "certified_per_wall_s": certified / sum(walls) if walls else 0.0,
        "total_s": sum(norm),
        "total_wall_s": sum(walls),
        "peak_rss_mb": peak_rss_mb,
        "untraced": untraced(),
        "environment": environment(),
    })
    if tracer is not None:
        factors = [f for _, _, _, _, f in outcomes]
        report["layers"] = tracer_mod.layer_metrics(tracer, len(outcomes),
                                                    factors)
        if args.spans:
            tracer_mod.write_spans(tracer, args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
