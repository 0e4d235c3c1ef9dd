"""In-memory span recorder that wraps library functions from outside.

The benchmark never edits the library.  It replaces a function by a wrapper
at the place the caller looks it up: a module attribute (``la.rref``), a class
attribute (``BallotSpace.act_index``) or the name an importing module bound
(``scoring.classify_pair``).  Python resolves all three at call time, so the
wrapper sees every call made through that binding.

Two kinds of wrapper exist.  A *span* wrapper records one span per call
(name, start, end, parent span, op id) and is meant for coarse calls.  A
*counter* wrapper keeps only call count, total and self time, for leaf calls
made tens of thousands of times per op.  Both push a frame on one stack, so
self time (duration minus the time of the child frames) is exact for either.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.op = "setup"
        # span records: [id, name, start, end, parent id or -1, op id]
        self.spans: list[list] = []
        # frames: [name, start, child seconds, own span id or -1,
        #          id of the nearest recorded span, own or enclosing]
        self._stack: list[list] = []
        # name -> [calls, total seconds, self seconds]
        self.stats: dict[str, list] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _enter(self, name: str, record: bool) -> list:
        parent = self._stack[-1][4] if self._stack else -1
        sid = -1
        if record:
            sid = len(self.spans)
            self.spans.append([sid, name, 0.0, 0.0, parent, self.op])
        frame = [name, self.clock(), 0.0, sid, sid if record else parent]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = self.clock()
        self._stack.pop()
        duration = end - frame[1]
        if self._stack:
            self._stack[-1][2] += duration
        st = self.stats.get(frame[0])
        if st is None:
            st = self.stats[frame[0]] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += duration
        st[2] += duration - frame[2]
        if frame[3] >= 0:
            rec = self.spans[frame[3]]
            rec[2], rec[3] = frame[1], end

    @contextmanager
    def span(self, name: str):
        frame = self._enter(name, True)
        try:
            yield
        finally:
            self._exit(frame)

    def wrap(self, fn, name: str, record: bool = True):
        enter, leave = self._enter, self._exit

        def wrapper(*args, **kwargs):
            frame = enter(name, record)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def patch(self, owner, attr: str, name: str, record: bool = True) -> None:
        """Replace owner.attr by a recording wrapper, restorable by restore()."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, record))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- summaries -----------------------------------------------------------

    def self_by_module(self) -> dict[str, float]:
        """Self seconds per module: the part of each name before the first dot."""
        out: dict[str, float] = {}
        for name, (_, _, self_s) in self.stats.items():
            module = name.split(".", 1)[0]
            out[module] = out.get(module, 0.0) + self_s
        return out

    def dump(self, path: str, extra: dict | None = None) -> None:
        """Write spans and per-name statistics as one JSON document."""
        doc = {
            "span_fields": ["id", "name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "stats": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                      for k, v in sorted(self.stats.items())},
        }
        if extra:
            doc.update(extra)
        with open(path, "w") as fh:
            json.dump(doc, fh)
