"""Spans around calls into qsymgraph's public functions, from outside.

`from .x import f` copies the binding into the importing module, so the
tracer replaces a function in every qsymgraph module that holds it (the
defining module, `classify`, `cli` and the package itself). Functions
imported at call time, such as `automorphism_group` inside the closure
engine, are covered by the binding in their defining module. Leaving
the tracer puts every original binding back, so untraced passes call no
wrapper.
"""
from __future__ import annotations

import importlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from qsymgraph.graphs import ORIENTED

TRACED = (
    ("cli", "main"),
    ("classify", "enumerate_homogeneous"),
    ("classify", "regular_graph_reps"),
    ("classify", "canonical_key"),
    ("classify", "classify"),
    ("classify", "recognize_fuss_catalan"),
    ("classify", "cyclic_criterion"),
    ("classify", "product_test"),
    ("closure", "closure"),
    ("symmetry", "automorphism_group"),
    ("symmetry", "fixed_point_histogram"),
    ("graphs", "parse_graph"),
    ("graphs", "loop_rule_check"),
    ("graphs", "is_isomorphic"),
)
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn in TRACED)


def package_modules() -> list:
    return [
        m
        for name, m in sorted(sys.modules.items())
        if name == "qsymgraph" or name.startswith("qsymgraph.")
    ]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int


@dataclass
class ClosureCounts:
    """Sizes read from the ClosureResults returned inside spans."""

    orbits: int = 0
    rank: int = 0
    letters: int = 0
    top_orbits: int = 0
    basis_bytes: int = 0

    def add(self, result, complex_mode: bool) -> None:
        self.orbits += sum(result.orbit_counts)
        self.rank += sum(result.buffered_dims)
        self.letters += sum(result.letter_counts)
        self.top_orbits = max(self.top_orbits, result.orbit_counts[-1])
        # Computed, not measured: two primes x 8-byte entries x rank x R,
        # with a real and an imaginary layer in complex mode.
        layers = 2 if complex_mode else 1
        self.basis_bytes += sum(
            2 * 8 * layers * rank * width
            for rank, width in zip(result.buffered_dims, result.orbit_counts)
        )


class Tracer:
    """Records spans while entered; `run` tags the spans of one operation."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = 0
        self.closure = ClosureCounts()
        self.graphs_returned = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for mod, fn in TRACED:
                original = getattr(importlib.import_module(f"qsymgraph.{mod}"), fn)
                wrapper = self._wrap(f"{mod}.{fn}", original)
                for module in package_modules():
                    if vars(module).get(fn) is original:
                        setattr(module, fn, wrapper)
                        self._patched.append((module, fn, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patched:
            module, fn, original = self._patched.pop()
            setattr(module, fn, original)

    def _wrap(self, name: str, original):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(spans)
            span = Span(name, time.perf_counter(), 0.0, parent, self.run)
            spans.append(span)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            self._observe(name, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        return traced

    def _observe(self, name: str, args: tuple, kwargs: dict, result) -> None:
        if name == "closure.closure":
            g = args[0] if args else kwargs["g"]
            self.closure.add(result, any(c.kind == ORIENTED for c in g.components))
        elif name == "classify.regular_graph_reps":
            self.graphs_returned += len(result)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name: span time minus the time
        of its direct child spans."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out = {name: (0, 0.0) for name in SPAN_NAMES}
        for s, inner in zip(self.spans, child_time):
            calls, self_s = out[s.name]
            out[s.name] = (calls + 1, self_s + (s.end - s.start - inner))
        return out

    def covered(self) -> float:
        """Time inside top-level spans."""
        return sum(s.end - s.start for s in self.spans if s.parent is None)

    def write(self, path: Path) -> None:
        with path.open("w") as f:
            for s in self.spans:
                f.write(json.dumps(vars(s)) + "\n")
