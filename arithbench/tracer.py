"""Outside-in tracer for the arithsurf layers.

The package binds its functions with ``from .x import y``, so one function can
sit under several module names (``rref`` in ``qlinalg`` and ``centext``).  The
tracer replaces the function at every ``arithsurf`` module attribute that holds
it, records one span per call in memory, and puts the originals back on exit.
"""

import functools
import json
import sys
import time
from contextlib import contextmanager

PACKAGE = "arithsurf"


class Tracer:
    def __init__(self, targets, probes=None):
        """targets: "module.fn" names relative to the package; probes: name ->
        callable(tracer, args) run before the span opens, for counters."""
        self.targets = list(targets)
        self.probes = probes or {}
        self.names = []
        self.spans = []  # (name index, start, end, parent span or -1, case or -1)
        self.counts = {}
        self.case = -1
        self._stack = []

    def count(self, name, k=1):
        if self.case >= 0:
            self.counts[name] = self.counts.get(name, 0) + k

    def _wrap(self, name, fn):
        index = len(self.names)
        self.names.append(name)
        probe = self.probes.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if probe is not None:
                probe(self, args)
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent, self.case)

        return traced

    @contextmanager
    def installed(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        restore = []
        try:
            for target in self.targets:
                module, _, fn = target.rpartition(".")
                original = getattr(sys.modules[f"{PACKAGE}.{module}"], fn)
                wrapper = self._wrap(target, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            restore.append((m, attr, value))
                            setattr(m, attr, wrapper)
            yield self
        finally:
            for m, attr, value in reversed(restore):
                setattr(m, attr, value)

    def summary(self, in_case):
        """Per name: calls, total_s (time inside the function, counted once
        under recursion) and self_s (total minus wrapped callees), over the
        spans opened inside a case (in_case) or outside every case."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for slot, (index, start, end, parent, case) in enumerate(self.spans):
            if (case >= 0) != in_case:
                continue
            row = out[self.names[index]]
            row["calls"] += 1
            row["self_s"] += end - start - child[slot]
            while parent >= 0 and self.spans[parent][0] != index:
                parent = self.spans[parent][3]
            if parent < 0:
                row["total_s"] += end - start
        return out

    def dump(self, path):
        """Write the spans as JSON: names, then one row per span."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "counts": self.counts,
                       "spans": [list(s) for s in self.spans]}, fh)
