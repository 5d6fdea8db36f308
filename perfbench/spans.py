"""In-memory span recorder for the benchmark's traced run.

Spans are opened around calls into the program from outside it: either by
the benchmark around its own calls, or by replacing a module attribute, the
name under which a caller inside the program looks a function up. Spans stay
in memory until :meth:`SpanRecorder.write` at the end of the run.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float | None = None
    parent: int | None = None
    attrs: dict = field(default_factory=dict)


def self_time(start: float, end: float, children) -> float:
    """Duration of [start, end] minus the part covered by the child intervals."""
    covered = 0.0
    reach = start
    for lo, hi in sorted(children):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (end - start) - covered


class SpanRecorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        record = Span(name, self.clock(), parent=parent, attrs=attrs)
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = self.clock()
            self._open.pop()

    def patch(self, module, attr: str, make_wrapper) -> bool:
        """Replace ``module.attr`` by ``make_wrapper(original)`` until :meth:`restore`.

        Returns False, and patches nothing, when the module has no such name.
        """
        original = getattr(module, attr, None)
        if original is None:
            return False
        self._patched.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))
        return True

    def wrap(self, module, attr: str, name: str) -> bool:
        """Record a span named ``name`` around every call through ``module.attr``."""

        def make_wrapper(original):
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return original(*args, **kwargs)
            return wrapper

        return self.patch(module, attr, make_wrapper)

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def totals(self) -> dict[str, dict]:
        """Per span name: call count, summed duration and summed self time."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        out: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            entry = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += s.end - s.start
            entry["self_s"] += self_time(s.start, s.end, children.get(i, ()))
        return out

    def attr_values(self, name: str, key: str) -> list:
        return [s.attrs[key] for s in self.spans if s.name == name and key in s.attrs]

    def write(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent index, attrs."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.attrs]) + "\n")
