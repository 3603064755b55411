"""Span tracing of qmetric's public functions, installed from outside.

Only the traced worker imports this module.  It replaces every module
attribute of the loaded ``qmetric`` package that refers to a traced
function, so callers that imported the name (``from .mk import
mk_distance``) and callers that look it up on a module both reach the
wrapper.  Spans are kept in memory as tuples and written out at the end.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, function) pairs that get a span per call.  The first layer name
# of each pair is the metric prefix, e.g. ``lpcore.solve.self_s``.
SPANNED = (
    ("lpcore", "solve"),
    ("mk", "mk_distance"),
    ("mk", "embed_check"),
    ("funcspace", "lipnorm"),
    ("mcshane", "extend"),
    ("states", "evaluate"),
    ("propinquity", "approx_table"),
    ("propinquity", "propinquity_upper_bound"),
    ("propinquity", "build_bridge"),
    ("propinquity", "match_element"),
    ("metric", "epsilon_net"),
    ("metric", "hausdorff"),
)

# Called thousands of times per user-level call (once per point pair inside
# lip_part); a span each would dominate the traced run, so only count them.
COUNTED = (("algebra", "real_max_norm"),)


class Tracer:
    """Records (name, start, end, parent, call_id) spans and LP/support counters."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.lp_shapes: list[tuple[int, int, int]] = []
        self.support_points = 0
        self.call_id = -1
        # Time the benchmark's own timer kernel spent inside each span.
        self.paused: dict[int, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def begin_call(self) -> None:
        """Start a new user-level call; its spans share the new id."""
        self.call_id += 1

    def pause(self, duration: float) -> None:
        """Charge time the benchmark itself spent to the innermost open span,
        so that it is left out of that span's self time."""
        if self._stack:
            self.paused[self._stack[-1]] += duration

    def _spanned(self, name, fn, before=None):
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.call_id)
        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _record_lp(self, lp, *args, **kwargs):
        m, n = lp.rows.shape
        self.lp_shapes.append((m, n, int((lp.bounds < 0).sum())))

    def _record_support(self, space, algebra, mu, nu, spec, **kwargs):
        support = set(mu.support()) | set(nu.support())
        if spec.q_kind == "state":
            support |= set(spec.state.support())
        self.support_points += len(support)

    def install(self) -> None:
        """Wrap every traced function wherever a qmetric module refers to it."""
        hooks = {"lpcore.solve": self._record_lp,
                 "mk.mk_distance": self._record_support}
        modules = [m for name, m in sys.modules.items()
                   if name == "qmetric" or name.startswith("qmetric.")]
        targets = [(mod, fn, True) for mod, fn in SPANNED]
        targets += [(mod, fn, False) for mod, fn in COUNTED]
        for mod_name, fn_name, spanned in targets:
            original = getattr(sys.modules["qmetric." + mod_name], fn_name)
            name = "%s.%s" % (mod_name, fn_name)
            if spanned:
                wrapper = self._spanned(name, original, hooks.get(name))
            else:
                wrapper = self._counted(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children of one span are merged as intervals before subtracting, so
    overlapping children are not counted twice.
    """
    children = defaultdict(list)
    for index, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children[index]):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def layer_metrics(tracer: Tracer, n_calls: int, factors) -> dict:
    """Per-layer metrics, each averaged over the user-level calls made.

    ``F.calls`` and ``F.self_s`` are per user-level call, self times scaled
    by their call's host-speed factor like the end-to-end times; the LP
    shape counters are per LP solved, with ``lpcore.tableau_mb`` the
    largest dense tableau, computed from the LP shape rather than measured.
    """
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for index, (span, own) in enumerate(zip(tracer.spans,
                                            self_times(tracer.spans))):
        calls[span[0]] += 1
        self_s[span[0]] += (own - tracer.paused.get(index, 0.0)) * factors[span[4]]
    per = float(max(n_calls, 1))
    out = {}
    for mod_name, fn_name in SPANNED:
        name = "%s.%s" % (mod_name, fn_name)
        out[name + ".calls"] = (calls[name] / per, "1/call")
        out[name + ".self_s"] = (self_s[name] / per, "s/call")
    for mod_name, fn_name in COUNTED:
        name = "%s.%s" % (mod_name, fn_name)
        out[name + ".calls"] = (tracer.counts[name] / per, "1/call")
    shapes = tracer.lp_shapes
    n_lp = float(max(len(shapes), 1))
    out["lpcore.rows"] = (sum(m for m, _, _ in shapes) / n_lp, "rows/LP")
    out["lpcore.vars"] = (sum(n for _, n, _ in shapes) / n_lp, "vars/LP")
    # solve() allocates an m x (2n + m + artificials + 1) float64 tableau.
    out["lpcore.tableau_mb"] = (max((m * (2 * n + m + a + 1) * 8 / 1e6
                                     for m, n, a in shapes), default=0.0),
                                "MB_computed")
    out["mk.support_points"] = (tracer.support_points / per, "1/call")
    return out


def write_spans(tracer: Tracer, path: str) -> None:
    """One JSON object per span: name, start, end, parent index, call id."""
    with open(path, "w") as fh:
        for name, start, end, parent, call_id in tracer.spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "call": call_id}) + "\n")
