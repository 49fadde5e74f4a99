"""Spans and counters around rdlab's public functions, for the traced run.

Every public function defined in an rdlab library module gets a span
wrapper, and so does ``rdlab.cli.main``.  The wrapper replaces the function
at every binding in every loaded ``rdlab`` module: ``rdlab.cli`` and
``rdlab.kinetics`` hold their own references made by ``from ... import``,
so patching only the defining module would miss their calls.

Three callees are hot enough that a span per call would distort the run;
they get a call counter at the one binding whose calls are meant:

- ``reaction`` and ``jacobian`` as bound in ``rdlab.kinetics`` (ODE and
  variational right-hand sides): ``kinetics.rhs_evals``, ``kinetics.jac_evals``;
- ``solve_banded`` as bound in ``rdlab.pde`` (the CN solves): ``pde.banded_solves``.

Spans are kept in memory as (name, start, end, parent, op) and written out
by ``dump``.  A span's self time is its duration minus its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LIBRARY_MODULES = ("model", "scalar", "kinetics", "pde", "analysis", "emit")
LAYERS = LIBRARY_MODULES + ("cli",)
_COUNT_ONLY = {
    ("rdlab.kinetics", "reaction"): "kinetics.rhs_evals",
    ("rdlab.kinetics", "jacobian"): "kinetics.jac_evals",
    ("rdlab.pde", "solve_banded"): "pde.banded_solves",
}
_SKIP_SPANS = {("model", "reaction"), ("model", "jacobian")}


def _public_functions():
    """(layer, name, function) for every span-wrapped function."""
    out = [("cli", "main", sys.modules["rdlab.cli"].main)]
    for layer in LIBRARY_MODULES:
        module = sys.modules[f"rdlab.{layer}"]
        for name, value in vars(module).items():
            if (inspect.isfunction(value) and value.__module__ == module.__name__
                    and not name.startswith("_") and (layer, name) not in _SKIP_SPANS):
                out.append((layer, name, value))
    return out


class Tracer:
    """Span recorder; ``install`` patches rdlab, ``uninstall`` restores it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1, self.op])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, module, attr, value):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        wrappers = {id(fn): self._span(f"{layer}.{name}", fn)
                    for layer, name, fn in _public_functions()}
        for modname, module in list(sys.modules.items()):
            if modname != "rdlab" and not modname.startswith("rdlab."):
                continue
            for attr, value in list(vars(module).items()):
                if (modname, attr) in _COUNT_ONLY:
                    self._patch(module, attr, self._counter(_COUNT_ONLY[modname, attr], value))
                elif id(value) in wrappers:
                    self._patch(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def summary(self, first_span: int = 0) -> dict:
        """Calls and self seconds per span name, self seconds per layer, and the
        largest gap between an op's summed self times and its cli.main span."""
        spans = self.spans[first_span:]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= first_span:
                child_time[parent - first_span] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        op_self: dict[int, float] = defaultdict(float)
        op_main: dict[int, float] = defaultdict(float)
        for (name, start, end, _, op), children in zip(spans, child_time):
            own = (end - start) - children
            calls[name] += 1
            self_s[name] += own
            self_s[name.split(".")[0] + ".self"] += own
            op_self[op] += own
            if name == "cli.main":
                op_main[op] += end - start
        gap = max((abs(op_self[op] - op_main[op]) for op in op_self), default=0.0)
        return {"calls": dict(calls), "self_s": dict(self_s), "main_s": sum(op_main.values()),
                "self_sum_gap_s": gap}

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
