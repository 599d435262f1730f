"""In-memory span recording around calls into the program's layers.

A :class:`Tracer` replaces a layer's public function at the attribute the
caller looks it up from (a module global such as
``repro.experiments.ensemble.build_detection_world``, or a method on its
class) with a wrapper that records one span per call:
``(pid, id, parent, name, start, end, attrs)``.  Nothing in the program
changes; :meth:`Tracer.uninstall` puts every original back.

Spans live in memory.  A process forked after the wrappers are installed
(a ``ProcessPoolExecutor`` worker) starts with an empty span list and
appends its spans to ``<spill_dir>/spans-<pid>.jsonl`` whenever one of its
root spans ends, so worker calls are recorded although the worker never
returns to the benchmark.  :func:`load_spans` merges everything back.

:func:`self_times` turns spans into per-span self time: a span's duration
minus the part of its interval that its child spans cover.  Root spans of
*other* processes (pool workers) count as children of the parent-side
``experiments.scheduler.execute`` span they ran under.
"""

from __future__ import annotations

import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple

#: The span whose self time absorbs worker-process root spans.
EXECUTE_SPAN = "experiments.scheduler.execute"


class Span(NamedTuple):
    pid: int
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    attrs: dict[str, Any] | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps layer entry points and keeps the spans they record."""

    def __init__(self, spill_dir: Path) -> None:
        self.spill_dir = Path(spill_dir)
        self.owner_pid = os.getpid()
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[Any, str, Any]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording ---------------------------------------------------------

    def _after_fork(self) -> None:
        # A forked worker keeps none of the parent's spans or open stack:
        # its spans are roots of its own, spilled to its own file.
        self.spans = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "ids", None)
        if stack is None:
            stack = self._local.ids = []
        return stack

    def _open(self) -> tuple[int, int | None, float]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def _close(
        self,
        span_id: int,
        parent: int | None,
        name: str,
        start: float,
        end: float,
        attrs: dict[str, Any] | None,
    ) -> None:
        self._stack().pop()
        self.record(Span(os.getpid(), span_id, parent, name, start, end, attrs))

    def record(self, span: Span) -> None:
        self.spans.append(span)
        if span.parent is None and os.getpid() != self.owner_pid:
            self.spill()

    def spill(self) -> None:
        """Append this process's spans to its spill file and forget them."""
        if not self.spans:
            return
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        path = self.spill_dir / f"spans-{os.getpid()}.jsonl"
        with path.open("a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")
        self.spans = []

    # -- wrappers ----------------------------------------------------------

    def _traced(
        self,
        fn: Callable[..., Any],
        name: str,
        describe: Callable[..., dict[str, Any]] | None,
    ) -> Callable[..., Any]:
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id, parent, start = tracer._open()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(span_id, parent, name, start,
                              time.perf_counter(), {"error": True})
                raise
            end = time.perf_counter()
            attrs = None
            try:
                if describe is not None:
                    attrs = describe(result, *args, **kwargs)
            finally:
                tracer._close(span_id, parent, name, start, end, attrs)
            return result

        return _like(traced, fn)

    def _traced_generator(
        self, fn: Callable[..., Any], name: str
    ) -> Callable[..., Any]:
        """A generator's span: its busy time between first and last item."""
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            inner = fn(*args, **kwargs)
            start: float | None = None
            busy = 0.0
            items = 0
            try:
                while True:
                    resumed = time.perf_counter()
                    if start is None:
                        start = resumed
                    try:
                        item = next(inner)
                    except StopIteration:
                        busy += time.perf_counter() - resumed
                        return
                    busy += time.perf_counter() - resumed
                    items += 1
                    yield item
            finally:
                inner.close()
                if start is not None:
                    tracer.record(Span(os.getpid(), next(tracer._ids), None,
                                       name, start, start + busy,
                                       {"items": items}))

        return _like(traced, fn)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        describe: Callable[..., dict[str, Any]] | None = None,
        generator: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``describe(result, *args, **kwargs)`` returns span attributes
        (counts) and runs after the span's end time is taken.
        """
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, (classmethod, staticmethod)):
            fn, rewrap = original.__func__, type(original)
        else:
            fn, rewrap = original, None
        traced = (self._traced_generator(fn, name) if generator
                  else self._traced(fn, name, describe))
        setattr(owner, attr, rewrap(traced) if rewrap else traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (last wrapped first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _like(wrapper: Callable[..., Any], fn: Callable[..., Any]) -> Callable[..., Any]:
    # Keep the wrapped function's identity: a pickled reference by name
    # must resolve to the installed wrapper.
    for key in ("__module__", "__name__", "__qualname__", "__doc__"):
        setattr(wrapper, key, getattr(fn, key, None))
    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


def load_spans(spill_dir: Path, in_memory: Iterable[Span] = ()) -> list[Span]:
    """In-memory spans plus every span spilled under ``spill_dir``."""
    spans = list(in_memory)
    for path in sorted(Path(spill_dir).glob("spans-*.jsonl")):
        with path.open("r", encoding="utf-8") as handle:
            for line in handle:
                spans.append(Span(**json.loads(line)))
    return spans


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[tuple[int, int], float]:
    """Self time of every span, keyed by ``(pid, id)``."""
    children: dict[tuple[int, int], list[Span]] = defaultdict(list)
    foreign_roots: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[(span.pid, span.parent)].append(span)
        else:
            foreign_roots[span.pid].append(span)
    out: dict[tuple[int, int], float] = {}
    for span in spans:
        kids = [(c.start, c.end) for c in children[(span.pid, span.id)]]
        if span.name == EXECUTE_SPAN:
            for pid, roots in foreign_roots.items():
                if pid != span.pid:
                    kids.extend((r.start, r.end) for r in roots
                                if r.end > span.start and r.start < span.end)
        clipped = [(max(s, span.start), min(e, span.end)) for s, e in kids]
        out[(span.pid, span.id)] = span.duration - _covered(
            [(s, e) for s, e in clipped if e > s]
        )
    return out


def root_coverage(spans: list[Span], pid: int, wall: float) -> float:
    """Share of ``wall`` covered by ``pid``'s root spans."""
    roots = [(s.start, s.end) for s in spans
             if s.pid == pid and s.parent is None]
    return _covered(roots) / wall if wall > 0 else 0.0
