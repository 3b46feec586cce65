"""Spans and counters recorded around calls into macloops' public functions.

The wrappers are installed on the module attributes the program looks its
callees up through (``macloops.sim.resolve_contention`` and so on), so the
program itself is not edited.  Each wrapped call records its duration and
the part of it spent in wrapped calls nested inside; self time is the
difference.  Spans stay in memory and are written out when the run ends.
Calls made very many times per item (the quadrature kernels, the traffic
sources) are aggregated without keeping a span each.
"""

from __future__ import annotations

import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []          # (span id, name, start, end, parent span id)
        self._stack = []         # [span id, time spent in traced children]
        self._next_id = 0
        self._undo = []

    # -- recording ---------------------------------------------------------
    def wrap(self, name: str, fn, on_return=None, keep_spans: bool = True):
        """A callable that runs `fn` inside a span called `name`.

        `on_return(result, args, kwargs)` may update counters; it runs after
        the span closes and its time is charged to no span.
        """
        stack = self._stack
        calls, self_s, spans = self.calls, self.self_s, self.spans

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            frame = [sid, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                calls[name] += 1
                self_s[name] += dur - frame[1]
                if keep_spans:
                    spans.append((sid, name, t0, t1, parent))
            if on_return is not None:
                t2 = _clock()
                on_return(result, args, kwargs)
                if stack:
                    stack[-1][1] += _clock() - t2
            return result

        return traced

    def counter(self, name: str, fn):
        """A callable that only counts its calls (for integrands)."""
        counts = self.counts

        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    # -- installation --------------------------------------------------------
    def patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------------
    def write_spans(self, path) -> None:
        """One CSV row per kept span; times are perf_counter seconds and a
        parent of -1 marks a top-level span."""
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent\n")
            fh.writelines(f"{sid},{name},{t0!r},{t1!r},{parent}\n"
                          for sid, name, t0, t1, parent in self.spans)
