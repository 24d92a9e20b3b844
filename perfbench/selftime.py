"""Stack-based self-time accounting for the traced run.

Wrapping a function with :meth:`SelfTimer.wrap` pushes its layer on a
stack for the duration of the call.  Time is charged in *segments*: the
clock reading at every enter or exit closes the segment that began at
the previous reading and charges it to the layer then on top of the
stack.  The segments therefore tile the root call's interval, so

* every instant belongs to exactly one layer (self times are disjoint),
* a caller's self time excludes every wrapped callee (for example
  ``HroBound.process_scalar`` minus the window close it triggers), and
* the self times of all layers sum to the root call's duration.

Passing ``intervals=[]`` records each segment as ``(layer, start, end)``,
which the tests use to check the tiling on a nested fake call.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict


class SelfTimer:
    """Self time and call counts per layer, from one call stack."""

    def __init__(self, clock=time.perf_counter, intervals: list | None = None):
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.intervals = intervals
        self._stack: list[str] = []
        self._mark = 0.0

    @property
    def depth(self) -> int:
        return len(self._stack)

    def _charge(self, now: float) -> None:
        layer = self._stack[-1]
        self.self_s[layer] += now - self._mark
        if self.intervals is not None:
            self.intervals.append((layer, self._mark, now))
        self._mark = now

    def enter(self, layer: str) -> None:
        now = self.clock()
        if self._stack:
            self._charge(now)
        else:
            self._mark = now
        self._stack.append(layer)
        self.calls[layer] += 1

    def exit(self) -> None:
        self._charge(self.clock())
        self._stack.pop()

    def wrap(self, layer: str, fn, root: bool = False):
        """``fn`` with its calls charged to ``layer``.  Only a ``root``
        layer starts a stack; other layers called outside one run
        untimed."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not (root or self._stack):
                return fn(*args, **kwargs)
            self.enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return timed

    def total(self) -> float:
        return sum(self.self_s.values())
