"""In-memory spans and counters around calls into extamen's public functions.

The tracer never edits the package: ``instrument`` rebinds module attributes
(and ``PLMap.compose``) in every loaded ``extamen`` module to timing
wrappers, from the benchmark process, after set-up.  A span holds its name,
start, end, parent span and the id of the operation it belongs to.  Hot
leaf calls (``act_letter``, ``classify``, ``apply_letter``, ``compose``,
set-function evaluations) are only counted and timed, with no span record,
so that a traced run stays within a small factor of an untraced one.

Per layer key the tracer keeps: calls, busy time (outermost call only, so
recursion is not counted twice), self time (busy minus time in traced
children) and a work count taken from the call's arguments or result.
"""

from __future__ import annotations

import itertools
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.work = defaultdict(int)
        self.memo_hits = 0
        self.spans = []  # (id, parent id, op id, name, start, end)
        self.op = None
        self._ids = itertools.count(1)
        self._op_span = None
        self._stack = []  # frames: [child seconds, nearest recorded span id]
        self._depth = defaultdict(int)

    def wrap(self, key, fn, *, leaf=True, span=None, work=None, before=None):
        """Timing wrapper for fn, accounted under the layer key.

        ``span`` names a recorded span; without it the call is counted and
        timed only.  ``leaf`` promises fn calls nothing traced, which skips
        the frame bookkeeping.
        """
        clock = time.perf_counter
        stack, depth = self._stack, self._depth
        calls, busy, self_s = self.calls, self.busy, self.self_s

        if leaf and span is None and work is None and before is None:

            def traced_leaf(*args, **kwargs):
                start = clock()
                result = fn(*args, **kwargs)
                dur = clock() - start
                calls[key] += 1
                busy[key] += dur
                self_s[key] += dur
                if stack:
                    stack[-1][0] += dur
                return result

            return traced_leaf

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            parent = stack[-1][1] if stack else self._op_span
            sid = next(self._ids) if span is not None else parent
            frame = [0.0, sid]
            stack.append(frame)
            depth[key] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[key] -= 1
                dur = end - start
                calls[key] += 1
                if not depth[key]:
                    busy[key] += dur
                self_s[key] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if span is not None:
                    self.spans.append((sid, parent, self.op, span, start, end))
            if work is not None:
                self.work[key] += work(args, kwargs, result)
            return result

        return traced

    def begin_op(self, op_id: int, kind: str) -> None:
        self.op = op_id
        self._op_span = next(self._ids)
        self._op_kind = kind
        self._op_start = time.perf_counter()

    def end_op(self) -> None:
        self.spans.append((self._op_span, None, self.op, f"op:{self._op_kind}",
                           self._op_start, time.perf_counter()))
        self.op = self._op_span = None


def _rebind(original, wrapper) -> None:
    for name, module in list(sys.modules.items()):
        if name == "extamen" or name.startswith("extamen."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def instrument(tracer: Tracer) -> None:
    """Wrap the public calls each per-layer metric is measured on."""
    from extamen import approx, dyadic, freegroup, graph, harmonic, lamplighter, walks

    memo = graph._ADDR_MEMO

    def count_hit(args):
        tracer.memo_hits += args[0] in memo

    def patch(module, attr, key, **kw):
        original = getattr(module, attr)
        _rebind(original, tracer.wrap(key, original, **kw))

    dyadic.PLMap.compose = tracer.wrap("dyadic.compose", dyadic.PLMap.compose)
    patch(graph, "act_letter", "graph.act_letter")
    patch(graph, "classify", "graph.classify", leaf=False, before=count_hit)
    patch(graph, "ball", "graph.ball", span="graph.ball",
          work=lambda a, k, r: len(r.vertices))
    patch(harmonic, "is_superharmonic_on", "harmonic.margin", span="harmonic.is_superharmonic_on",
          work=lambda a, k, r: len(r.entries))
    patch(lamplighter, "apply_letter", "lamplighter.apply_letter", leaf=False)
    patch(lamplighter, "orbit_enumerate", "lamplighter.orbit", span="lamplighter.orbit_enumerate",
          work=lambda a, k, r: len(r))
    patch(approx, "strong_verify", "approx.verify", span="approx.strong_verify")
    for attr in ("construct_En_countable", "construct_En_single"):
        patch(approx, attr, "approx.construct", span=f"approx.{attr}")
    patch(approx, "golden_witness", "approx.witness", span="approx.golden_witness")
    patch(walks, "potential_decay_experiment", "walks.decay",
          span="walks.potential_decay_experiment",
          work=lambda a, k, r: r.walk.trials * r.walk.steps)
    patch(walks, "lumped_return_series", "walks.lumped", span="walks.lumped_return_series",
          work=lambda a, k, r: len(r))
    patch(walks, "return_prob", "walks.return", span="walks.return_prob")
    # green_partial off the root runs the same full-distribution kernel as pn_exact
    patch(walks, "pn_exact", "walks.pn", span="walks.pn_exact",
          work=lambda a, k, r: _arg(a, k, 2, "n"))
    patch(walks, "green_partial", "walks.pn", span="walks.green_partial",
          work=lambda a, k, r: _arg(a, k, 3, "N"))
    patch(walks, "green_mc", "walks.mc", span="walks.green_mc",
          work=lambda a, k, r: r.trials * r.steps)
    patch(freegroup, "witness_word", "freegroup.witness", span="freegroup.witness_word")


def summary(tracer: Tracer) -> dict:
    """Per layer key: calls, busy, self and work, plus classify memo hits."""
    keys = set(tracer.calls) | set(tracer.work)
    layers = {
        key: {
            "calls": tracer.calls[key],
            "busy_s": tracer.busy[key],
            "self_s": tracer.self_s[key],
            "work": tracer.work[key],
        }
        for key in sorted(keys)
    }
    return {"layers": layers, "memo_hits": tracer.memo_hits}
