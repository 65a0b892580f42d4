"""In-memory span tracer and function rebinding for the fieldaug benchmark.

The tracer wraps public functions from outside the program. A wrapper is
installed at every place a caller looks the function up: each fieldaug
module global, dispatch-table value or class attribute that holds the
original object. ``Patches.restore`` puts every original back.

Spans are kept in memory as ``(id, parent_id, name, t0_ns, t1_ns)`` tuples
and written out once, by ``write_jsonl``, when the run ends.

Standard library only, so the benchmark runner can import it without
numpy.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter


class Tracer:
    """Records one span per wrapped call, nested by the call stack."""

    def __init__(self):
        self.spans: list = []
        self.bytes: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, size=None):
        """Return a wrapper around ``fn`` that records a span called
        ``name``. ``size(args, result)``, when given, adds a byte count."""
        spans, stack, clock, nbytes = self.spans, self._stack, time.perf_counter_ns, self.bytes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (sid, parent, name, t0, t1)
            if size is not None:
                nbytes[name] += size(args, result)
            return result

        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w") as out:
            for sid, parent, name, t0, t1 in self.spans:
                out.write(json.dumps(
                    {"id": sid, "parent": parent, "name": name, "t0_ns": t0, "t1_ns": t1}
                ) + "\n")


class Marks:
    """Timestamps taken as wrapped functions return. The marks cut a timed
    call into segments; a deterministic call on the same inputs is cut at
    the same points every time it runs, so segment k of one call is the
    same work as segment k of another."""

    def __init__(self):
        self.times: list[int] = []

    def wrap(self, fn):
        times, clock = self.times, time.perf_counter_ns

        @functools.wraps(fn)
        def marked(*args, **kwargs):
            result = fn(*args, **kwargs)
            times.append(clock())
            return result

        return marked

    def segments(self, t0: int, t1: int) -> list[int]:
        """Durations in ns between ``t0``, the marks taken since and
        ``t1``; they add up to ``t1 - t0``. Clears the marks."""
        points = [t0, *self.times, t1]
        self.times.clear()
        return [b - a for a, b in zip(points, points[1:])]


def _covered(intervals) -> int:
    """Length of the union of half-open [t0, t1) intervals."""
    total, end = 0, None
    for t0, t1 in sorted(intervals):
        if end is None or t0 >= end:
            total += t1 - t0
            end = t1
        elif t1 > end:
            total += t1 - end
            end = t1
    return total


def summarize(spans) -> dict:
    """Per span name: calls, total ns and self ns. Self time is a span's
    duration minus the part of its interval that its child spans cover."""
    children: dict[int, list] = {}
    for sid, parent, _, t0, t1 in spans:
        children.setdefault(parent, []).append((t0, t1))
    out: dict[str, dict] = {}
    for sid, _, name, t0, t1 in spans:
        inside = [(max(a, t0), min(b, t1)) for a, b in children.get(sid, ()) if b > t0 and a < t1]
        row = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
        row["calls"] += 1
        row["total_ns"] += t1 - t0
        row["self_ns"] += (t1 - t0) - _covered(inside)
    return out


def coverage(spans, root_name: str) -> float:
    """Share of the root spans' wall time covered by their direct
    children, that is by the top-level spans inside the timed call."""
    roots = {sid: (t0, t1) for sid, _, name, t0, t1 in spans if name == root_name}
    wall = sum(t1 - t0 for t0, t1 in roots.values())
    covered = 0
    for sid, (r0, r1) in roots.items():
        covered += _covered(
            (max(t0, r0), min(t1, r1)) for _, parent, _, t0, t1 in spans if parent == sid
        )
    return covered / wall if wall else 0.0


class Patches:
    """Replaces every binding of a function object inside the given
    modules, dicts and classes, and restores the originals."""

    def __init__(self):
        self._undo: list = []

    def replace(self, original, replacement, namespaces) -> None:
        """Rebind ``original`` to ``replacement`` wherever a namespace
        holds it."""
        for ns in namespaces:
            table = ns if isinstance(ns, dict) else vars(ns)
            for key, value in list(table.items()):
                if value is original:
                    if isinstance(ns, dict):
                        ns[key] = replacement
                    else:
                        setattr(ns, key, replacement)
                    self._undo.append((ns, key, original))

    def restore(self) -> None:
        while self._undo:
            ns, key, original = self._undo.pop()
            if isinstance(ns, dict):
                ns[key] = original
            else:
                setattr(ns, key, original)


def package_namespaces(package: str = "fieldaug") -> list:
    """Every loaded module of the package, plus the dicts and classes
    defined at their top level, where callers may look functions up."""
    out = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == package or name.startswith(package + ".")):
            continue
        out.append(module)
        for value in vars(module).values():
            if isinstance(value, dict) and any(callable(v) for v in value.values()):
                out.append(value)
            elif isinstance(value, type) and value.__module__ == name:
                out.append(value)
    return out


def snapshot(namespaces) -> dict:
    """Identity of every binding, for checking that a restore is complete."""
    out = {}
    for ns in namespaces:
        table = ns if isinstance(ns, dict) else vars(ns)
        for key, value in table.items():
            out[(id(ns), key)] = id(value)
    return out
