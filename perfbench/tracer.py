"""Layer spans for matvecnet, recorded from outside the package.

A :class:`Tracer` replaces every public function of each layer module (the
names in the module's ``__all__`` that are functions defined there) at each
place the package looks it up: the defining module, every package module
that imports it, and the package namespace. No package file is edited, and
uninstalling puts the original objects back.

Each wrapped call is a span. Spans nest on one stack, so the traced run must
be single-threaded (the benchmark traces ``jobs=1`` calls only). A span's
self time is its duration minus the time covered by the spans it caused.
Spans are not kept one by one: they are folded as they end into per-function
totals of calls, inclusive seconds and self seconds, plus the counts that
need the call's arguments (rows evaluated, vector forward passes). Install
the tracer around the region to be recorded only: checks and the activation
census run with it uninstalled, so they are neither counted nor slowed.

``rng.stream`` returns a generator proxy whose ``random`` method is a span
of its own, so drawing from a stream counts as ``rng`` time wherever the
draw happens.
"""

from __future__ import annotations

import importlib
import inspect
from time import perf_counter

LAYERS = (
    "rng",
    "datasets",
    "constructors",
    "calculus",
    "network",
    "verification",
    "interchange",
    "cli",
)

PACKAGE = "matvecnet"


class _TimedGenerator:
    """A numpy Generator whose ``random`` draws are recorded as rng spans."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer: "Tracer"):
        self._gen = gen
        self._tracer = tracer

    def random(self, *args, **kwargs):
        return self._tracer.call("rng.Generator.random", self._gen.random, args, kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    """Installs span wrappers into the package and accumulates their totals.

    ``stats`` maps a qualified function name (``layer.function``) to
    ``[calls, inclusive_s, self_s]``. ``counts`` holds ``batch_rows`` (rows
    passed to ``evaluate_batch``) and ``vector_passes`` (calls of
    ``evaluate``).
    """

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self.counts = {"batch_rows": 0, "vector_passes": 0}
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack
        stack.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            child = stack.pop()
            if stack:
                stack[-1] += elapsed
            entry = self.stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += elapsed - child

    def _wrapper(self, name: str, fn):
        tracer = self
        if name == "rng.stream":
            def traced(*args, **kwargs):
                return tracer.call(
                    name, lambda *a, **k: _TimedGenerator(fn(*a, **k), tracer), args, kwargs,
                )
        elif name == "network.evaluate_batch":
            def traced(*args, **kwargs):
                out = tracer.call(name, fn, args, kwargs)
                tracer.counts["batch_rows"] += out.shape[0]
                return out
        elif name == "network.evaluate":
            def traced(*args, **kwargs):
                tracer.counts["vector_passes"] += 1
                return tracer.call(name, fn, args, kwargs)
        else:
            def traced(*args, **kwargs):
                return tracer.call(name, fn, args, kwargs)
        return traced

    def install(self) -> None:
        """Wrap every binding of every layer's public functions in the package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = self._wrapper(f"{layer}.{attr}", fn)
        for module in (importlib.import_module(PACKAGE), *modules.values()):
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def snapshot(self) -> dict[str, float]:
        """Flat totals so far: ``<fn>.calls``, ``<fn>.incl_s``, ``<fn>.self_s``, counts."""
        flat: dict[str, float] = dict(self.counts)
        for name, (calls, incl, own) in self.stats.items():
            flat[f"{name}.calls"] = calls
            flat[f"{name}.incl_s"] = incl
            flat[f"{name}.self_s"] = own
        return flat


def delta(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    """Totals accumulated between two snapshots."""
    return {key: value - before.get(key, 0) for key, value in after.items()}
