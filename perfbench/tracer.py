"""Span tracer that wraps library callables from outside the library.

A ``Tracer`` replaces chosen functions and methods with wrappers that
record one span per call: name, start, end and the span that was open
when the call began.  Spans are kept in flat arrays in memory and
written out once, by ``dump``, when the traced run ends.  ``installed``
restores every original callable on exit, even when the run raises.

A layer's self time is its span's duration minus the time covered by
its direct child spans (``self_times``).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from array import array


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.counters: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` wrapped to record a span named ``name`` per call.

        ``count(counters, args, result)`` runs after each call that
        returns, outside the span, to add to named counters.
        """
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        open_spans, clock, counters = self._open, self.clock, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(open_spans[-1])
            end.append(0.0)
            open_spans.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                open_spans.pop()
            if count is not None:
                count(counters, args, result)
            return result

        return traced

    def patch(self, module_name: str, qualname: str, name: str, count=None) -> bool:
        """Wrap ``module_name.qualname`` everywhere the package binds it.

        A method ``Class.attr`` is replaced on its class.  A module-level
        function is replaced in its defining module and in every module
        of the same top-level package that imported it by name.  Returns
        False, patching nothing, when the target does not exist.
        """
        module = importlib.import_module(module_name)
        if "." in qualname:
            cls_name, attr = qualname.split(".", 1)
            owner = getattr(module, cls_name, None)
            if owner is None or attr not in vars(owner):
                return False
            original = vars(owner)[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, count))
            return True
        original = getattr(module, qualname, None)
        if original is None:
            return False
        wrapper = self.wrap(name, original, count)
        package = module_name.split(".", 1)[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        return True

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, targets):
        """Patch ``(module, qualname, name, count)`` targets for the block."""
        try:
            for module_name, qualname, name, count in targets:
                self.patch(module_name, qualname, name, count)
            yield self
        finally:
            self.restore()

    def dump(self, path, **header):
        """Write the spans: one JSON header line, then the four arrays."""
        head = dict(header, names=self.names, counters=self.counters,
                    spans=len(self.start))
        with open(path, "wb") as fh:
            fh.write(json.dumps(head, sort_keys=True).encode() + b"\n")
            for arr in (self.span_name, self.parent, self.start, self.end):
                arr.tofile(fh)


def load_spans(path):
    """Read a file written by ``Tracer.dump``: (header, name, parent, start, end)."""
    with open(path, "rb") as fh:
        head = json.loads(fh.readline())
        n = head["spans"]
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return (head, *arrays)


def self_times(parent, start, end) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    own = [e - s for s, e in zip(start, end)]
    out = list(own)
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= own[i]
    return out


def summarize(names, span_name, parent, start, end) -> dict[str, dict]:
    """Calls and summed self time per span name."""
    out = {name: {"calls": 0, "self_s": 0.0} for name in names}
    for nid, st in zip(span_name, self_times(parent, start, end)):
        entry = out[names[nid]]
        entry["calls"] += 1
        entry["self_s"] += st
    return out
