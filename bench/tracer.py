"""Per-layer tracing of the hnzz modules, installed from outside the package.

The tracer wraps every public module-level function of the traced
modules, plus ``Matrix.__init__`` / ``Matrix.__matmul__`` on the class,
in a span that records a call count and a self time (the span's wall
time minus the part covered by its child spans).  ``from .linalg import
rref`` binds the name separately in every importing module, so each
binding of a wrapped function is replaced, and restored by
``uninstall``.

Functions that return generators (the subspace enumerators and the
subrepresentation walk) do their work while being iterated: each
``next()`` on the returned iterator is timed as another span of the same
name, and the items it yields are counted.

A few result hooks turn return values into counters measured where the
work happens: positions swept and bars found by ``barcode``, window
positions of ``lift_truncated``, bars kept by ``lifted_multiplicities``
and HN steps found by the oracle.
"""

from __future__ import annotations

import importlib
import sys
import types
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

TRACED_MODULES = ("linalg", "quiver", "zigzag", "hn", "affine", "serialize", "generators", "cli")
MATRIX_METHODS = {"__init__": "linalg.matrix", "__matmul__": "linalg.matmul"}


class _TracedIter:
    """Iterator proxy: each step is a span, each item a counted yield."""

    __slots__ = ("_tracer", "_name", "_it")

    def __init__(self, tracer: "Tracer", name: str, it):
        self._tracer, self._name, self._it = tracer, name, it

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        if not tracer.enabled:
            return next(self._it)
        item = tracer._span(self._name, next, (self._it,), {}, counted=False)
        tracer.tally[self._name + ".yielded"] += 1
        return item

    def close(self):
        self._it.close()


class Tracer:
    """Counts and self times per span name; one instance per traced run."""

    def __init__(self):
        self.enabled = True
        self.request_kind: str | None = None
        self.count: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.tally: dict[str, int] = defaultdict(int)
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self._last_bars = 0
        self._hooks = {
            "zigzag.barcode": self._on_barcode,
            "affine.lift_truncated": self._on_lift_truncated,
            "affine.lifted_multiplicities": self._on_lifted_multiplicities,
            "hn.hn_bruteforce": self._on_oracle,
        }

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.count.clear()
        self.self_s.clear()
        self.tally.clear()

    def snapshot(self) -> dict:
        return {"count": dict(self.count), "self_s": dict(self.self_s), "tally": dict(self.tally)}

    @contextmanager
    def paused(self):
        """Run hnzz code (for example an output check) without recording it."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def _span(self, name, fn, args, kwargs, counted=True):
        stack = self._stack
        stack.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            self.self_s[name] += dt - stack.pop()
            if counted:
                self.count[name] += 1
            if stack:
                stack[-1] += dt

    def _wrap(self, name: str, fn):
        hook = self._hooks.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            result = tracer._span(name, fn, args, kwargs)
            if isinstance(result, types.GeneratorType):
                return _TracedIter(tracer, name, result)
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    # -- result hooks ------------------------------------------------------

    def _on_barcode(self, args, bar) -> None:
        bars = sum(mult for _, mult in bar)
        self.tally["zigzag.positions"] += args[0].quiver.vertex_count
        self.tally["zigzag.bars"] += bars
        self._last_bars = bars
        if self.request_kind == "lift":
            self.tally["lift.barcodes"] += 1

    def _on_lift_truncated(self, args, lifted) -> None:
        self.tally["affine.window_positions"] += lifted.quiver.vertex_count

    def _on_lifted_multiplicities(self, args, result) -> None:
        d_inf, classes = result
        self.tally["affine.bars_kept"] += d_inf + sum(classes.values())
        self.tally["affine.window_bars"] += self._last_bars

    def _on_oracle(self, args, report) -> None:
        self.tally["hn.oracle_steps"] += len(report.steps)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of the traced modules, every binding."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped: dict = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module("hnzz." + short)
            for attr, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrapped[obj] = self._wrap(f"{short}.{attr}", obj)
        for name, mod in list(sys.modules.items()):
            if name != "hnzz" and not name.startswith("hnzz."):
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])
        matrix = importlib.import_module("hnzz.linalg").Matrix
        for attr, name in MATRIX_METHODS.items():
            original = matrix.__dict__[attr]
            self._patches.append((matrix, attr, original))
            setattr(matrix, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
