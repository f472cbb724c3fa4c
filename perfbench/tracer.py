"""Span tracer that times calls into metaweight from outside the package.

A boundary is a (module, attribute) pair. The tracer replaces the attribute
with a wrapper and restores it on `uninstall`. Python resolves a global name
in the namespace of the module that calls it, and `from .backbones import x`
binds `x` separately in every importing module, so a boundary names the
CALLER's module: the regulator's alignment call is
`metaweight.regulator.alignment_scores`, not the attribute on
`metaweight.backbones`.

A span is `[name, start_ns, end_ns, parent_index, step_id]`. Spans stay in
memory in call order; the caller writes them out when the run ends. Times
are integer nanoseconds, so the self-time arithmetic is exact.
"""

from __future__ import annotations

import time
from typing import Callable

NAME, START, END, PARENT, STEP = range(5)


class Tracer:
    """Installs wrappers at boundaries and records spans and counters.

    A boundary that no longer exists is listed in `missing` instead of
    raising, so refactors that remove an internal function do not break the
    benchmark; metrics that need it are then reported as missing.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self.step = -1
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _resolve(self, module, attr: str):
        original = getattr(module, attr, None)
        if not callable(original):
            self.missing.append(f"{module.__name__}.{attr}")
            return None
        return original

    def wrap(
        self,
        module,
        attr: str,
        name: str | Callable[[tuple, dict], str],
        before: Callable[[tuple, dict], None] | None = None,
        after: Callable[[list, object, tuple, dict], None] | None = None,
    ) -> bool:
        """Record a span around every call of module.attr.

        `name` may be a function of the call's arguments. `before(args,
        kwargs)` runs inside the span before the call; `after(span, result,
        args, kwargs)` runs once the call has returned normally.
        An exception is counted under `<name>.raised` and re-raised.
        """
        original = self._resolve(module, attr)
        if original is None:
            return False
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        namer = name if callable(name) else None

        def traced(*args, **kwargs):
            label = namer(args, kwargs) if namer else name
            index = len(spans)
            span = [label, clock(), 0, stack[-1] if stack else -1, self.step]
            spans.append(span)
            stack.append(index)
            try:
                if before is not None:
                    before(args, kwargs)
                result = original(*args, **kwargs)
            except BaseException:
                span[END] = clock()
                stack.pop()
                self.add(label + ".raised")
                raise
            span[END] = clock()
            stack.pop()
            if after is not None:
                after(span, result, args, kwargs)
            return result

        self._install(module, attr, original, traced)
        return True

    def count(self, module, attr: str, name: str) -> bool:
        """Count calls of module.attr without recording spans."""
        original = self._resolve(module, attr)
        if original is None:
            return False
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._install(module, attr, original, counted)
        return True

    def _install(self, module, attr, original, wrapper) -> None:
        wrapper.__wrapped__ = original
        setattr(module, attr, wrapper)
        self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)


def duration(span) -> int:
    return span[END] - span[START]


def children_sum(spans) -> list[int]:
    """Per span: the summed durations of its direct children."""
    out = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            out[span[PARENT]] += duration(span)
    return out


def self_times(spans) -> list[int]:
    """Per span: its duration minus its direct children's. Every traced call
    is synchronous on one thread, so children never overlap."""
    return [duration(span) - below for span, below in zip(spans, children_sum(spans))]


def badly_nested(spans, parents) -> list[int]:
    """Of the given parent spans, those whose direct children do not lie
    inside the parent's interval one after another. For any other parent,
    children plus self time equals the span and self time is not negative."""
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(index)
    bad = []
    for index in parents:
        reach = spans[index][START]
        for child in children.get(index, ()):
            if spans[child][START] < reach or spans[child][END] < spans[child][START]:
                bad.append(index)
                break
            reach = spans[child][END]
        else:
            if reach > spans[index][END]:
                bad.append(index)
    return bad


def check_self_time_arithmetic() -> str | None:
    """Self-test on a hand-built tree; returns an error message or None.

    root [0, 100) has children a [10, 40) and b [50, 90); b has c [60, 70).
    A second root r [200, 300) has children that overlap, [210, 250) and
    [240, 260), which the nesting check must flag.
    """
    spans = [
        ["root", 0, 100, -1, -1],
        ["a", 10, 40, 0, -1],
        ["b", 50, 90, 0, -1],
        ["c", 60, 70, 2, -1],
        ["r", 200, 300, -1, -1],
        ["x", 210, 250, 4, -1],
        ["y", 240, 260, 4, -1],
    ]
    expected = [30, 30, 30, 10]
    got = self_times(spans[:4])
    if got != expected:
        return f"self times {got} != {expected}"
    flagged = badly_nested(spans, [0, 2, 4])
    if flagged != [4]:
        return f"nesting check flagged {flagged}, expected [4]"
    return None


def percentile(sorted_values, q: float):
    """Nearest-rank percentile (0 < q <= 100) of an ascending sequence."""
    if not sorted_values:
        return None
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def tail(sorted_values, beyond: int = 10):
    """The highest percentile that has at least `beyond` samples above it.

    Returns (percent, value), or None when there are too few samples.
    """
    n = len(sorted_values)
    if n <= beyond:
        return None
    return 100.0 * (n - beyond) / n, sorted_values[n - beyond - 1]
