"""Span recorder that wraps tdnh's functions from outside the package.

:meth:`Recorder.install` replaces every public function of the traced
modules (their ``__all__`` names, plus a few named pipeline stages of the
CLI) with a timing wrapper.  Because tdnh modules import each other's
functions by name, the wrapper is installed under every module attribute
that refers to the original, so calls made through any module's globals
are seen.  :meth:`Recorder.restore` puts every original back and checks
that it did.

Each wrapped call updates exact per-name statistics (calls, inclusive and
self seconds, where self time is the call's duration minus the time
covered by its wrapped child calls) and per caller/callee edge.  Spans
(name, start, end, parent span, invocation id) are kept in memory for
the first ``SPAN_CAP`` calls of each name in each invocation and written
out by :meth:`Recorder.write_spans`; per-point calls beyond the cap only
update the statistics, which keeps memory bounded on 8000-point grids.

Times are read from the clock the recorder is given, which in a pass is
the speed sampler's process CPU clock: it stands still while the speed
probe runs, so probe time does not land in the span it interrupts.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import types

TRACED_MODULES = (
    "tdnh.config",
    "tdnh.expr",
    "tdnh.linalg",
    "tdnh.model",
    "tdnh.operators",
    "tdnh.evolution",
    "tdnh.cli",
)

# CLI stages the per-layer metrics need; private, so named here.  A name
# that a later version drops is missing from the statistics, which the
# benchmark reports as an error.
EXTRA_NAMES = {"tdnh.cli": ("_run_mapped", "_run_static", "_run_regimes", "_write_csv")}

SPAN_CAP = 32


def _trajectory_steps(result) -> int:
    """Steps in a propagator's returned trajectory: its points minus one."""
    values = getattr(result, "values", result)   # MetricFlow or state array
    return max(0, len(values) - 1)


# Counters read from what a call returns: span name -> (counter name, count).
RESULT_COUNTERS = {
    "evolution.tdse_integrate": ("evolution.rk4_steps", _trajectory_steps),
    "operators.metric_ode_solve": ("evolution.rk4_steps", _trajectory_steps),
}


class Recorder:
    def __init__(self, clock):
        self.clock = clock
        self.stats: dict[str, list] = {}   # name -> [calls, inclusive_s, self_s]
        self.edges: dict[tuple[str, str], list] = {}  # (parent, name) -> [calls, inclusive_s]
        self.counters: dict[str, int] = {}
        self.spans: list[list] = []        # [name, start, end, parent_id, invocation]
        self.invocation: str | None = None
        self._per_invocation: dict[str, int] = {}
        self._stack: list[list] = []       # [name, child_s, nearest recorded span id]
        self._installed: list[tuple[types.ModuleType, str, object]] = []

    def begin_invocation(self, invocation_id: str) -> None:
        self.invocation = invocation_id
        self._per_invocation = {}

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = self.clock
        counted = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = None
            seen = self._per_invocation.get(name, 0)
            self._per_invocation[name] = seen + 1
            # frame[2] is the nearest recorded span: this call's, or its caller's
            parent_id = stack[-1][2] if stack else None
            frame = [name, 0.0, parent_id]
            start = clock()
            if seen < SPAN_CAP:
                span_id = len(self.spans)
                self.spans.append([name, start, None, parent_id, self.invocation])
                frame[2] = span_id
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                parent = stack[-1][0] if stack else None
                if stack:
                    stack[-1][1] += duration
                edge = self.edges.setdefault((parent, name), [0, 0.0])
                edge[0] += 1
                edge[1] += duration
                if span_id is not None:
                    self.spans[span_id][2] = end
                if counted is not None and result is not None:
                    counter, count = counted
                    self.counters[counter] = self.counters.get(counter, 0) + count(result)

        return wrapper

    def install(self) -> None:
        """Wrap the traced functions under every tdnh module attribute bound to them."""
        originals: dict[int, tuple[str, object]] = {}
        for module_name in TRACED_MODULES:
            module = importlib.import_module(module_name)
            short = module_name.split(".", 1)[1]
            names = list(getattr(module, "__all__", ())) + list(EXTRA_NAMES.get(module_name, ()))
            for attr in names:
                fn = getattr(module, attr, None)
                if isinstance(fn, types.FunctionType) and fn.__module__ == module_name:
                    originals[id(fn)] = (f"{short}.{attr}", fn)
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in originals.items()}
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "tdnh" or module_name.startswith("tdnh.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and originals[id(value)][1] is value:
                    self._installed.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def restore(self) -> bool:
        """Put every original back; True when each attribute is the original again."""
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        ok = all(getattr(module, attr) is original for module, attr, original in self._installed)
        self._installed = []
        return ok

    @property
    def wrapped_count(self) -> int:
        return len(self._installed)

    def summary(self) -> dict:
        return {
            "stats": {name: {"calls": s[0], "inclusive_s": s[1], "self_s": s[2]}
                      for name, s in sorted(self.stats.items())},
            "edges": [{"parent": p, "name": n, "calls": e[0], "inclusive_s": e[1]}
                      for (p, n), e in sorted(self.edges.items(),
                                              key=lambda kv: (kv[0][0] or "", kv[0][1]))],
            "counters": dict(sorted(self.counters.items())),
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "start_s", "end_s", "parent", "invocation"],
                "span_cap_per_name_per_invocation": SPAN_CAP,
                "spans": self.spans,
            }, fh)
