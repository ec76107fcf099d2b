"""Span tracing from outside the package: wrap public functions, record spans.

For a traced run the benchmark replaces each function in ``FUNCTIONS`` by a
wrapper.  The wrapper is bound under every name, in every loaded
``circleact`` module, that holds the original object -- the package
``__init__`` re-exports and the ``from .x import y`` copies included --
so calls between layers (``constraints`` -> ``series``, ``sweep`` ->
``classify``) are seen.  ``uninstall`` restores every binding; untraced runs
check that no wrapper is left.

A span is (name, start, end, parent, request).  Spans live in flat arrays
while the run goes on and are written out when it ends.  A span's self time
is its duration minus the durations of its direct children; spans nest
strictly because the run is single-threaded.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

FUNCTIONS = {
    "core": ("parse", "from_json"),
    "series": ("signature_exact", "signature_series"),
    "constraints": (
        "run_all",
        "check_weight_parity",
        "check_parity_dimension",
        "check_smallest_weights",
        "check_uniform_weight_balance",
        "check_abbv",
        "check_signature_constant",
        "check_congruence_pairing",
    ),
    "multigraph": ("enumerate_admissible", "match_figure1"),
    "classify": (
        "classify_6d4fp",
        "cp3_template",
        "membership_4d",
        "replay_4d_trace",
        "classify_two_fixed_points",
    ),
    "rewrite": ("reduce_to_empty", "applicable_moves", "apply_move"),
    "sweep": ("sweep", "classify_label", "to_csv"),
}
TRACED = tuple(f"{m}.{f}" for m, names in FUNCTIONS.items() for f in names)
LAYERS = ("cli", "core", "series", "constraints", "multigraph", "classify", "rewrite", "sweep")
WRAPPED = "__perfbench_original__"


def package_modules() -> list:
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "circleact" or name.startswith("circleact."))
    ]


def installed_wrappers() -> list[str]:
    """Names in loaded circleact modules that are bound to a tracing wrapper."""
    return [
        f"{m.__name__}.{attr}"
        for m in package_modules()
        for attr, value in vars(m).items()
        if hasattr(value, WRAPPED)
    ]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self._stack: list[int] = []
        self.request_id = -1
        self._bindings: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, observe=None):
        name_id = self.name_id(name)
        begin, finish = self.begin, self.finish

        def wrapper(*args, **kwargs):
            i = begin(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(i)
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, WRAPPED, fn)
        return wrapper

    def install(self, observers=None) -> list[str]:
        """Wrap every function in FUNCTIONS; returns the ones not found."""
        observers = observers or {}
        missing = []
        modules = package_modules()
        for qualified in TRACED:
            module_name, fn_name = qualified.split(".")
            original = getattr(sys.modules.get(f"circleact.{module_name}"), fn_name, None)
            if original is None:
                missing.append(qualified)
                continue
            wrapper = self.wrap(qualified, original, observers.get(qualified))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._bindings.append((m, attr, original))
        return missing

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._bindings):
            setattr(m, attr, original)
        self._bindings.clear()

    def spans(self):
        """(name, start, end, parent, request) for every span recorded."""
        for i in range(len(self.start)):
            yield (self.names[self.name[i]], self.start[i], self.end[i],
                   self.parent[i], self.request[i])

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\trequest\n")
            for name, start, end, parent, request in self.spans():
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{request}\n")


def summarize(names, starts, ends, parents):
    """Per name: (calls, self seconds, total seconds).

    A span's self time is its duration minus its direct children's
    durations.  Total time counts a span only when no ancestor has the same
    name, so recursion is not counted twice."""
    n = len(starts)
    duration = [ends[i] - starts[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if parents[i] >= 0:
            child[parents[i]] += duration[i]
    out = defaultdict(lambda: [0, 0.0, 0.0])
    for i in range(n):
        row = out[names[i]]
        row[0] += 1
        row[1] += duration[i] - child[i]
        ancestor = parents[i]
        while ancestor >= 0 and names[ancestor] != names[i]:
            ancestor = parents[ancestor]
        if ancestor < 0:
            row[2] += duration[i]
    return {k: tuple(v) for k, v in out.items()}
