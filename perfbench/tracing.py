"""In-memory spans around the benchmark's calls into graphassoc.

Every call a workload makes into the package goes through ``call(name, fn,
*args)``.  With tracing off (``NullTracer``) that is a plain call, so the
timed runs and the traced runs execute the same code.  With tracing on
(``Tracer``) each call becomes a span named ``<module>.<function>`` whose
parent is the span of the item it ran in; counts read off returned values
are added with ``count``.  Calls the package makes internally are not seen,
so nested work is attributed to the outermost call.
"""

from __future__ import annotations

import time
from collections import Counter


class NullTracer:
    """Tracing off: calls go straight through and counts are dropped."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, n=1):
        pass

    def begin_item(self, item_id):
        pass

    def end_item(self):
        pass


class Tracer(NullTracer):
    """Tracing on: keeps every span and count in memory until the run ends.

    A span is ``[name, start_ns, end_ns, parent_index, item_id]``; item spans
    are named ``item`` and have no parent.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._parent = None
        self._item = "setup"

    def call(self, name, fn, *args, **kwargs):
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append([name, start, time.perf_counter_ns(), self._parent, self._item])

    def count(self, name, n=1):
        self.counts[name] += n

    def begin_item(self, item_id):
        self._parent = len(self.spans)
        self._item = item_id
        self.spans.append(["item", time.perf_counter_ns(), None, None, item_id])

    def end_item(self):
        self.spans[self._parent][2] = time.perf_counter_ns()
        self._parent = None
        self._item = "setup"

    def calls(self):
        """(name, seconds) for every call span, item spans excluded."""
        return [(s[0], (s[2] - s[1]) / 1e9) for s in self.spans if s[0] != "item"]

    def item_seconds(self):
        """Seconds inside item spans, all items together."""
        return sum(s[2] - s[1] for s in self.spans if s[0] == "item") / 1e9
