"""Span tracer and reversible attribute patches for the traced run.

Spans are aggregated by name as they close (calls, inclusive time, self time)
instead of being kept one by one: a 512-node scenario opens well over a
million spans, and keeping each would cost more memory than the run itself.
Self time is a span's duration minus the durations of the spans it directly
encloses, so the self times of all spans under a root add up to the root's
duration exactly.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator


class Tracer:
    """Per-name span totals plus free-form work counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.calls: Counter[str] = Counter()
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        # One accumulator per open span: the time its closed children took.
        self._open: list[list[float]] = []

    def span(
        self,
        name: str,
        fn: Callable,
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> Callable:
        """`fn` wrapped in a span called `name`.

        `before(*args)` runs just before the span opens and its return value
        is passed as the first argument of `after(token, result, *args)`,
        which runs just after the span closes. Both hooks sit outside the
        span, so their cost lands in the enclosing span's self time.
        """
        clock, open_spans = self.clock, self._open
        calls, total_s, self_s = self.calls, self.total_s, self.self_s

        def traced(*args: Any, **kwargs: Any) -> Any:
            token = before(*args, **kwargs) if before is not None else None
            children = [0.0]
            open_spans.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                open_spans.pop()
                calls[name] += 1
                total_s[name] += elapsed
                self_s[name] += elapsed - children[0]
                if open_spans:
                    open_spans[-1][0] += elapsed
            if after is not None:
                after(token, result, *args, **kwargs)
            return result

        return traced

    def counted(self, name: str, fn: Callable) -> Callable:
        """`fn` with its calls counted under `name`, without a span.

        For calls too frequent and too small to time one by one; their time
        stays in the enclosing span.
        """
        calls = self.calls

        def counting(*args: Any, **kwargs: Any) -> Any:
            calls[name] += 1
            return fn(*args, **kwargs)

        return counting


class Patches:
    """Attribute replacements, undone in reverse order by `restore`."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, name: str, wrapper: Callable[[Any], Any]) -> None:
        """Replace `owner.name` with `wrapper(original)`."""
        # Only attributes defined on the owner itself are patched, so putting
        # the saved object back restores the owner exactly.
        original = vars(owner)[name]
        self._saved.append((owner, name, original))
        setattr(owner, name, wrapper(original))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


@contextmanager
def patched(install: Callable[[Patches], None]) -> Iterator[Patches]:
    """Apply `install`'s patches for the body; always undo them after."""
    patches = Patches()
    try:
        install(patches)
        yield patches
    finally:
        patches.restore()
