"""Outside-in tracer: spans and counters recorded around algwaves calls.

Nothing inside the library knows about this module.  `layers.install`
replaces chosen functions and methods with wrappers made here, and
`Tracer.uninstall` puts every original back.  A function is patched under every name that refers to it
in any algwaves module (darboux imports `nullspace` by name, fisher
imports `solve_fixed_cofactor`, ...), because that is where the caller
looks it up.  Methods are patched on their class.

Spans (name, start, end, parent) are kept in flat arrays in memory and
written out once at the end; a span's self time is its duration minus
the durations of its direct children.  Hot scalar operations get a
counter only: a timing wrapper around an operation of a few microseconds
would mostly time the wrapper.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array
from typing import Callable, Optional


class Tracer:
    """Spans, counters, and the patches that feed them."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._on = [True]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (used around verdict checks)."""
        self._on[0] = False
        try:
            yield
        finally:
            self._on[0] = True

    def timed(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """Wrap fn in a span; after(args, result) may update counters."""
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, on, clock = self._stack, self._on, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(clock())
            ends.append(0.0)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """Wrap fn with a call counter and no span."""
        counters, on = self.counters, self._on
        counters.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            counters[name] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- patching ---------------------------------------------------------

    def patch_function(self, fn: Callable, wrapper: Callable) -> None:
        """Replace fn under every algwaves module name bound to it."""
        hits = 0
        for modname, mod in list(sys.modules.items()):
            if modname != "algwaves" and not modname.startswith("algwaves."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrapper)
                    hits += 1
        if not hits:
            raise LookupError("%s is bound in no algwaves module" % fn.__qualname__)

    def patch_method(self, cls: type, attr: str, wrapper: Callable) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        return span_summary(self.names, self.span_name, self.span_parent,
                            self.span_start, self.span_end)

    def write(self, path) -> None:
        """Spans as tab-separated lines: id, parent, name, start, end."""
        with open(path, "w") as out:
            out.write("id\tparent\tname\tstart\tend\n")
            for sid in range(len(self.span_name)):
                out.write("%d\t%d\t%s\t%.9f\t%.9f\n" % (
                    sid, self.span_parent[sid], self.names[self.span_name[sid]],
                    self.span_start[sid], self.span_end[sid]))
            for name in sorted(self.counters):
                out.write("#counter\t%s\t%d\n" % (name, self.counters[name]))


def span_summary(names, span_name, span_parent, span_start, span_end):
    """Per span name: calls, total duration, and self time.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    n = len(span_name)
    child = [0.0] * n
    for sid in range(n):
        p = span_parent[sid]
        if p >= 0:
            child[p] += span_end[sid] - span_start[sid]
    out: dict[str, dict[str, float]] = {}
    for sid in range(n):
        dur = span_end[sid] - span_start[sid]
        row = out.setdefault(names[span_name[sid]],
                             {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += dur
        row["self_s"] += dur - child[sid]
    return out
