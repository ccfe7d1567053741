"""In-memory spans around calls into the program's layers.

A span has a name, a start, an end and a parent (the span open when it
began).  Spans are appended to flat lists while the traced code runs and
are only summarized or written out afterwards.  The program itself is not
modified: `patched` swaps a function or method for a recording wrapper
under the exact name through which its caller reaches it, and puts the
original back on exit.
"""

import contextlib
import csv
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self._open = []

    def __len__(self) -> int:
        return len(self.names)

    def _begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._begin(name)
        try:
            yield idx
        finally:
            self._end(idx)

    def wrap(self, name: str, fn):
        """fn, recording a span per call.  A call made directly inside a
        span of the same name (a wrapped function reaching another wrapped
        entry of its own layer) is not recorded again, so layer totals
        count each interval once."""
        begin, end, names, open_ = self._begin, self._end, self.names, self._open

        def traced(*args, **kwargs):
            if open_ and names[open_[-1]] == name:
                return fn(*args, **kwargs)
            idx = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(idx)

        return traced

    def summary(self, lo: int = 0, hi: int = None):
        """Per span name over spans [lo, hi): calls, total seconds, self
        seconds (duration minus the time covered by direct children), and
        the number of direct children per child name."""
        hi = len(self.names) if hi is None else hi
        calls = defaultdict(int)
        total = defaultdict(float)
        child_time = defaultdict(float)
        children = defaultdict(lambda: defaultdict(int))
        for i in range(lo, hi):
            name = self.names[i]
            dur = self.ends[i] - self.starts[i]
            calls[name] += 1
            total[name] += dur
            parent = self.parents[i]
            if parent >= lo:
                child_time[parent] += dur
                children[self.names[parent]][name] += 1
        self_time = defaultdict(float)
        for i in range(lo, hi):
            self_time[self.names[i]] += (
                self.ends[i] - self.starts[i] - child_time.get(i, 0.0)
            )
        return {
            name: {
                "calls": calls[name],
                "total_s": total[name],
                "self_s": self_time[name],
                "children": dict(children[name]),
            }
            for name in calls
        }

    def write(self, path) -> None:
        """One row per span: index, name, parent index, start and end in
        seconds relative to the first span."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "name", "parent", "start_s", "end_s"])
            for i, name in enumerate(self.names):
                out.writerow(
                    [i, name, self.parents[i],
                     repr(self.starts[i] - origin), repr(self.ends[i] - origin)]
                )


@contextlib.contextmanager
def patched(tracer: Tracer, targets):
    """Replace each (owner, attribute, span name) target by a recording
    wrapper for the duration of the block.

    Owners may be modules, classes or instances.  An attribute that the
    owner did not hold itself (a method reached through the class) is
    deleted again on exit rather than overwritten, so instances go back to
    plain method lookup.
    """
    saved = []
    try:
        for owner, attr, name in targets:
            own = vars(owner)
            saved.append((owner, attr, attr in own, own.get(attr)))
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))
        yield
    finally:
        for owner, attr, held, old in reversed(saved):
            if held:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
