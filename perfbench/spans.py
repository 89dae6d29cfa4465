"""In-memory span recorder and the wrappers that feed it.

A span is one call of a wrapped function: its name, start and end
(``time.perf_counter`` seconds), the index of the span that was open on the
same thread when it started (its parent), the request it belongs to, the
thread it ran on, and an optional ``info`` dict a wrapper may attach (row
counts, item counts).  Spans are appended to a list and only analysed (or
written out) after the measured work is done.

Self time is a span's duration minus the part of its interval covered by its
child spans.  Children on one thread never overlap, but :func:`covered`
takes the union of the intervals so the arithmetic stays right for any
input.

Wrapping never changes behaviour: a wrapper calls the original with the
same arguments and returns the very object it returned (or re-raises what it
raised).  :class:`Patcher` installs wrappers into every loaded module and
class that holds the original, and puts the originals back on ``restore``.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import threading
import time
from typing import Any, Callable, Iterable

__all__ = ["Patcher", "Span", "SpanRecorder", "covered", "self_time"]


class Span:
    """One recorded call.  ``end`` is ``None`` while the call is running."""

    __slots__ = ("end", "index", "info", "name", "parent", "request", "start", "thread")

    def __init__(
        self,
        index: int,
        name: str,
        start: float,
        parent: int | None,
        request: int | None,
        thread: int,
    ) -> None:
        self.index = index
        self.name = name
        self.start = start
        self.end: float | None = None
        self.parent = parent
        self.request = request
        self.thread = thread
        self.info: dict[str, Any] | None = None

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def as_row(self) -> list[Any]:
        return [self.index, self.name, self.start, self.end, self.parent, self.request,
                self.thread, self.info]


class SpanRecorder:
    """Collects spans from any number of threads.

    Each thread keeps its own stack of open spans, so a span's parent is the
    innermost span open *on its own thread*.  A span opened with
    ``new_request=True`` and no enclosing request starts a new request id;
    every descendant inherits its parent's id.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._requests = 0

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, *, new_request: bool = False) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        request = parent.request if parent is not None else None
        with self._lock:
            if request is None and new_request:
                self._requests += 1
                request = self._requests
            span = Span(
                len(self.spans),
                name,
                time.perf_counter(),
                None if parent is None else parent.index,
                request,
                threading.get_ident(),
            )
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover - only if a wrapper was bypassed
            stack.remove(span)

    def wrap(
        self,
        name: str,
        function: Callable[..., Any],
        *,
        new_request: bool = False,
        measure: Callable[[tuple, dict], dict[str, Any]] | None = None,
        after: Callable[[Any], dict[str, Any]] | None = None,
    ) -> Callable[..., Any]:
        """A wrapper recording one span per call of ``function``.

        ``measure(args, kwargs)`` may return an ``info`` dict (for example
        the number of rows passed); it runs before the call and only reads
        shapes.  ``after(result)`` adds to ``info`` from the returned value.
        """
        recorder = self

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = recorder.open(name, new_request=new_request)
            if measure is not None:
                span.info = measure(args, kwargs)
            try:
                result = function(*args, **kwargs)
            finally:
                recorder.close(span)
            if after is not None:
                span.info = {**(span.info or {}), **after(result)}
            return result

        traced.__wrapped_original__ = function  # type: ignore[attr-defined]
        return traced

    # -- analysis ----------------------------------------------------------

    def children(self) -> dict[int | None, list[Span]]:
        """Spans grouped by parent index (``None`` holds the roots)."""
        grouped: dict[int | None, list[Span]] = {}
        for span in self.spans:
            grouped.setdefault(span.parent, []).append(span)
        return grouped

    def write(self, path: str, header: dict[str, Any]) -> None:
        """Write the header and every span as gzip-compressed JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write(json.dumps(header) + "\n")
            out.write(json.dumps(["index", "name", "start", "end", "parent", "request",
                                  "thread", "info"]) + "\n")
            for span in self.spans:
                out.write(json.dumps(span.as_row()) + "\n")


def covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, lo), min(end, hi)) for lo, hi in intervals if hi > start and lo < end
    )
    total = 0.0
    current_lo: float | None = None
    current_hi = 0.0
    for lo, hi in clipped:
        if current_lo is None or lo > current_hi:
            if current_lo is not None:
                total += current_hi - current_lo
            current_lo, current_hi = lo, hi
        elif hi > current_hi:
            current_hi = hi
    if current_lo is not None:
        total += current_hi - current_lo
    return total


def self_time(span: Span, children: Iterable[Span]) -> float:
    """Duration of ``span`` minus the part of it its children cover."""
    end = span.end if span.end is not None else span.start
    intervals = [(child.start, child.end) for child in children if child.end is not None]
    return (end - span.start) - covered(span.start, end, intervals)


class Patcher:
    """Installs span wrappers over loaded objects and undoes them.

    ``function`` swaps every module-level reference to an original function
    (in all loaded modules whose name starts with ``package``), so names
    imported with ``from x import f`` are wrapped too.  ``method`` and
    ``prop`` wrap an attribute defined in a class body, ``item`` an entry
    of a registry dict.
    """

    def __init__(self, recorder: SpanRecorder, package: str = "repro") -> None:
        self.recorder = recorder
        self.package = package
        self._undo: list[tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attribute: str, value: Any) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def function(self, original: Callable[..., Any], name: str, **options: Any) -> int:
        """Wrap every module-level reference to ``original``; returns the count."""
        wrapper = self.recorder.wrap(name, original, **options)
        replaced = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == self.package or module_name.startswith(self.package + ".")
            ):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attribute, wrapper)
                    replaced += 1
        return replaced

    def method(self, owner: type, attribute: str, name: str, **options: Any) -> None:
        """Wrap a plain method defined in ``owner``'s class body."""
        original = owner.__dict__[attribute]
        self._set(owner, attribute, self.recorder.wrap(name, original, **options))

    def prop(self, owner: type, attribute: str, name: str) -> None:
        """Wrap the getter of a property defined in ``owner``'s class body."""
        original = owner.__dict__[attribute]
        getter = self.recorder.wrap(name, original.fget)
        self._set(owner, attribute, property(getter, original.fset, original.fdel,
                                             original.__doc__))

    def item(self, mapping: dict, key: Any, name: str, **options: Any) -> None:
        """Wrap the function stored under ``key`` in a registry dict."""
        original = mapping[key]
        self._undo.append((mapping, key, original))
        mapping[key] = self.recorder.wrap(name, original, **options)

    def restore(self) -> None:
        while self._undo:
            owner, attribute, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attribute] = value
            else:
                setattr(owner, attribute, value)
