"""Span tracer that wraps polycontact's public entry points from outside.

A target is ``"<module>.<function>"`` or ``"<module>.<Class>.<method>"``.
Installing a target replaces the function on *every* ``polycontact.*``
module attribute that is bound to it (``plane.feasible_point`` is also
``cuts.feasible_point``), so calls through any import path are seen.  A
target that no longer exists is skipped and listed in ``absent``; later
refactors may delete or fold these functions without breaking the
benchmark.

Spans are aggregated online, keyed by (query id, parent span name, span
name): calls, total duration, self time (duration minus the duration of
child spans) and the sum of an optional per-call note, such as "returned
None".  Durations are CPU time of the thread, like every time the
benchmark reports.  Every traced call runs under a benchmark-level root span (a query or
a set-up step), whose self time is the untraced remainder, so that per query
the self times plus the remainder sum to the query's traced wall time.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Optional

ROOT = "(root)"


class Tracer:
    def __init__(self) -> None:
        # (qid, parent name, name) -> [calls, duration_s, self_s, note_sum]
        self.edges: dict[tuple, list] = {}
        # (qid, name) -> list of (args, kwargs, result) for kept calls
        self.kept: dict[tuple, list] = {}
        self.absent: list[str] = []
        # frames: [child_duration_s, name]; the base frame is the parent of
        # root spans
        self._stack: list[list] = [[0.0, ROOT]]
        self._qid: object = None
        self._installed: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self, targets: dict[str, tuple[Optional[Callable], bool]]) -> None:
        """``targets`` maps a dotted name to (note function, keep calls)."""
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if name == "polycontact" or name.startswith("polycontact.")}
        self.absent = []
        for dotted, (note, keep) in targets.items():
            original = _resolve(modules, dotted)
            if original is None:
                self.absent.append(dotted)
                continue
            wrapper = self._wrap(dotted, original, note, keep)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._installed.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
                    elif isinstance(value, type):
                        for meth, fn in list(vars(value).items()):
                            if fn is original:
                                self._installed.append((value, meth, original))
                                setattr(value, meth, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, name: str, fn: Callable, note: Optional[Callable], keep: bool):
        clock = time.thread_time
        stack = self._stack
        edges = self.edges
        kept = self.kept

        def wrapper(*args, **kwargs):
            frame = [0.0, name]
            stack.append(frame)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = clock() - t0
                stack.pop()
                parent = stack[-1]
                parent[0] += duration
                key = (self._qid, parent[1], name)
                entry = edges.get(key)
                if entry is None:
                    entry = edges[key] = [0, 0.0, 0.0, 0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[0]
                if note is not None:
                    entry[3] += note(args, result)
                if keep:
                    kept.setdefault((self._qid, name), []).append((args, kwargs, result))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    # -- benchmark-level root spans --------------------------------------

    def run(self, qid: object, name: str, fn: Callable, *args):
        """Call ``fn(*args)`` as the root span ``name`` of query ``qid``.
        Its parent is ``(root)`` and its self time is the untraced remainder."""
        self._qid = qid
        try:
            return self._wrap(name, fn, None, False)(*args)
        finally:
            self._qid = None

    def take(self) -> tuple[dict, dict]:
        """Return and clear the aggregates (the wrappers keep writing into
        the same dict objects, so they are emptied in place)."""
        edges, kept = dict(self.edges), dict(self.kept)
        self.edges.clear()
        self.kept.clear()
        return edges, kept


def totals(edges: dict) -> dict[str, list]:
    """name -> [calls, duration_s, self_s, note_sum] over all queries."""
    out: dict[str, list] = {}
    for (_, _, name), (calls, dur, self_s, note) in edges.items():
        acc = out.setdefault(name, [0, 0.0, 0.0, 0])
        acc[0] += calls
        acc[1] += dur
        acc[2] += self_s
        acc[3] += note
    return out


def query_balance(edges: dict) -> float:
    """Largest |sum of self times in a query - its root span's duration|."""
    roots: dict[object, float] = {}
    selfs: dict[object, float] = {}
    for (qid, parent, _), (_, dur, self_s, _) in edges.items():
        selfs[qid] = selfs.get(qid, 0.0) + self_s
        if parent == ROOT:
            roots[qid] = roots.get(qid, 0.0) + dur
    return max((abs(selfs[q] - roots.get(q, 0.0)) for q in selfs), default=0.0)


def counts(edges: dict) -> dict[str, tuple]:
    """Every exact count of a trace: calls and note sums per edge."""
    return {f"{qid}|{parent}|{name}": (calls, note)
            for (qid, parent, name), (calls, _, _, note) in edges.items()}


def _resolve(modules: dict, dotted: str):
    parts = dotted.split(".")
    mod = modules.get("polycontact." + parts[0])
    if mod is None:
        return None
    obj = mod
    for part in parts[1:]:
        obj = vars(obj).get(part) if isinstance(obj, type) else getattr(obj, part, None)
        if obj is None:
            return None
    return obj if callable(obj) else None
