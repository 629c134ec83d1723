"""Function-level spans for the traced run, recorded from outside the package.

Tracer.install replaces every public function of the autorec modules,
plus a few hot methods, by a wrapper that times the call.  A function is
patched under every module name that binds it (span_analysis lives in
polymatrix and is imported by recurrence and cli), and aliases such as
CycloElement.__rmul__ = __mul__ share one wrapper, so each call is
counted once whichever name it went through.  Spans are aggregated in
memory per function and written out once, by dump(), when the traced
phase ends.  Self time is a span's duration minus the durations of the
spans it directly contains.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

# Methods traced besides the public module-level functions:
# (module, class, attribute).  CycloField.__init__ counts fields built.
TRACED_METHODS = (
    ("numberfield", "CycloField", "__init__"),
    ("numberfield", "CycloField", "reduce"),
    ("numberfield", "CycloElement", "__mul__"),
    ("numberfield", "CycloElement", "__rmul__"),
    ("numberfield", "CycloElement", "inverse"),
    ("numberfield", "GaloisMap", "__call__"),
)


def dfao_key(a) -> tuple:
    """Structural identity of an automaton, for counting distinct arguments."""
    return (a.base, a.direction, tuple(map(tuple, a.delta)), tuple(map(repr, a.outputs)))


# span name -> function of the call's positional arguments giving a key
# whose distinct values are counted
DISTINCT_KEYS = {"polymatrix.span_analysis": lambda args: dfao_key(args[0])}


def _span_name(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1] + "." + fn.__qualname__


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_ns, self_ns]
        self.distinct: dict[str, set] = {}
        self._stack: list[int] = []  # child time accumulated per open span
        self._wrappers: dict = {}  # original function -> wrapper
        self._patched: list = []  # (owner, attribute, original)

    def _wrap(self, fn):
        got = self._wrappers.get(fn)
        if got is not None:
            return got
        name = _span_name(fn)
        rec = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns
        keyer = DISTINCT_KEYS.get(name)
        seen = self.distinct.setdefault(name, set()) if keyer else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keyer is not None:
                seen.add(keyer(args))
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += took
                rec[0] += 1
                rec[1] += took
                rec[2] += took - inner

        self._wrappers[fn] = wrapper
        return wrapper

    def _patch(self, owner, attr, fn) -> None:
        setattr(owner, attr, self._wrap(fn))
        self._patched.append((owner, attr, fn))

    def install(self, modules) -> None:
        """Wrap public functions of the given autorec modules, and TRACED_METHODS."""
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__.startswith("autorec.")
                ):
                    self._patch(mod, attr, obj)
        by_name = {mod.__name__.rsplit(".", 1)[-1]: mod for mod in modules}
        for mod_name, cls_name, attr in TRACED_METHODS:
            cls = getattr(by_name[mod_name], cls_name)
            self._patch(cls, attr, cls.__dict__[attr])

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def summary(self) -> dict:
        """name -> {calls, total_s, self_s[, distinct]} for every span that ran."""
        out = {}
        for name, (calls, total, own) in sorted(self.stats.items()):
            if not calls:
                continue
            row = {"calls": calls, "total_s": total / 1e9, "self_s": own / 1e9}
            if name in self.distinct:
                row["distinct"] = len(self.distinct[name])
            out[name] = row
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh, indent=1, sort_keys=True)
