"""Spans around calls into meandim's layers, recorded from outside the program.

The traced pass swaps each function named in ``spec.TRACED`` for a
pass-through wrapper that records a span (id, name, start, end, parent, op)
and restores the originals afterwards; the timed and memory passes run the
program untouched.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# Span records kept per function name.  Totals and self times cover every
# call; the cap only bounds the span list for functions called per cell.
SPAN_CAP = 2000


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, op)
        self.totals = {}  # name -> [layer, calls, total_s, self_s]
        self.errors = defaultdict(int)  # layer -> exceptions raised there
        self.op = None
        self._kept = defaultdict(int)
        self._stack = []  # [span id, seconds covered by children]
        self._next_id = 0
        self._counted = []  # exceptions already charged to a layer

    def begin_op(self, op: str) -> None:
        self.op = op
        self._counted.clear()

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        """Run fn inside a span; self time is its span minus its children."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            # charge the innermost wrapped call only, not every caller it unwinds
            if not any(exc is seen for seen in self._counted):
                self._counted.append(exc)
                self.errors[layer] += 1
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            total = self.totals.setdefault(name, [layer, 0, 0.0, 0.0])
            total[1] += 1
            total[2] += duration
            total[3] += duration - frame[1]
            if self._kept[name] < SPAN_CAP:
                self._kept[name] += 1
                self.spans.append((span_id, name, start, end, parent, self.op))

    def self_seconds(self) -> dict:
        by_layer = defaultdict(float)
        for layer, _, _, self_s in self.totals.values():
            by_layer[layer] += self_s
        return dict(by_layer)


def install(tracer: Tracer, targets: dict):
    """Wrap the named functions of each ``meandim.<layer>`` module.

    Module-level functions are replaced in every meandim module that bound
    them by name; methods are replaced on their class.  Returns the patch
    list for ``restore`` and the names that no longer exist.
    """
    modules = [m for n, m in sys.modules.items() if n == "meandim" or n.startswith("meandim.")]
    patched, missing = [], []
    for layer, names in targets.items():
        module = sys.modules[f"meandim.{layer}"]
        for qualname in names:
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                missing.append(f"{layer}.{qualname}")
                continue
            wrapper = _wrap(tracer, f"{layer}.{qualname}", layer, original)
            owners = [owner] if owner_name else [m for m in modules if vars(m).get(attr) is original]
            for target in owners:
                setattr(target, attr, wrapper)
                patched.append((target, attr, original))
    return patched, missing


def restore(patched) -> None:
    for owner, attr, original in reversed(patched):
        setattr(owner, attr, original)


def _wrap(tracer: Tracer, name: str, layer: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, layer, fn, *args, **kwargs)

    return traced
