"""In-memory spans recorded around the benchmark's calls into regimeplan.

A span has a name, start and end (seconds since the tracer was created), the
id of the span that was open when it started, the id of the operation it
belongs to, the pass it ran in, and the CPU seconds the process and its
children used while it was open.  With tracing off, `span` hands back one
shared no-op context manager, so untraced runs pay a single `with` per call.
"""

import contextlib
import os
import time

_NULL = contextlib.nullcontext()


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans = []
        self.op = None       # id of the operation now running
        self.pass_no = None  # index of the pass now running
        self._stack = []
        self._t0 = time.perf_counter()

    def span(self, name: str):
        return self._span(name) if self.enabled else _NULL

    @contextlib.contextmanager
    def _span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "op": self.op,
            "pass": self.pass_no,
            "start": time.perf_counter() - self._t0,
            "end": None,
            "cpu": -_cpu(),
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["cpu"] += _cpu()
            rec["end"] = time.perf_counter() - self._t0
            self._stack.pop()


def duration(span) -> float:
    return span["end"] - span["start"]


def self_times(spans) -> dict:
    """Span id -> its duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for lo, hi in sorted(children.get(s["id"], ())):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = duration(s) - covered
    return out


def nesting_errors(spans) -> list:
    """Spans that are unfinished or stick out of their parent's interval."""
    by_id = {s["id"]: s for s in spans}
    bad = []
    for s in spans:
        if s["end"] is None or s["end"] < s["start"]:
            bad.append(f"span {s['id']} {s['name']} not closed")
            continue
        parent = by_id.get(s["parent"])
        if parent is not None and not (parent["start"] <= s["start"]
                                       and s["end"] <= parent["end"]):
            bad.append(f"span {s['id']} {s['name']} outside parent "
                       f"{parent['id']} {parent['name']}")
    return bad
