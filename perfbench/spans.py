"""Span recording for the traced benchmark pass.

The benchmark never edits the program to trace it.  Instead, the traced
pass replaces the program's public functions, from here, with wrappers
that record one span per call: a name (the layer), start, end, the
enclosing span on the same thread, and optional counts taken from the
call's arguments or result.  A layer's self time is its spans' duration
minus the part of each span that its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: ``measure(args, kwargs, result) -> {count_name: number}``
Measure = Callable[[tuple, dict, object], Dict[str, float]]


@dataclass
class Span:
    """One recorded call into a layer."""

    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)


class Recorder:
    """Collects spans in memory; wrappers nest through a per-thread stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, measure: Optional[Measure] = None) -> Callable:
        """``fn`` with a span named ``name`` recorded around every call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                span = Span(len(self.spans), stack[-1] if stack else None, name, 0.0)
                self.spans.append(span)
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if measure is not None:
                span.counts = measure(args, kwargs, result)
            return result

        return wrapper

    def patch_function(
        self, module: object, attr: str, name: str, measure: Optional[Measure] = None
    ) -> None:
        """Replace ``module.attr`` everywhere it was imported by name.

        Modules that did ``from x import f`` hold their own reference, so
        every loaded module whose attribute is the same object is patched.
        """
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, measure)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    self._undo.append((loaded, key, original))
                    setattr(loaded, key, wrapper)

    def patch_method(
        self, cls: type, attr: str, name: str, measure: Optional[Measure] = None
    ) -> None:
        """Replace a method (plain or classmethod) on its class."""
        raw = cls.__dict__[attr]
        self._undo.append((cls, attr, raw))
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self.wrap(name, raw.__func__, measure)))
        else:
            setattr(cls, attr, self.wrap(name, raw, measure))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)


def union_seconds(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> its duration minus the time its child spans cover."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = union_seconds(
            [
                (max(child.start, span.start), min(child.end, span.end))
                for child in children.get(span.id, ())
                if child.end > span.start and child.start < span.end
            ]
        )
        result[span.id] = (span.end - span.start) - covered
    return result


def layer_totals(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per layer name: ``calls``, self seconds ``s`` and summed counts."""
    own = self_times(spans)
    layers: Dict[str, Dict[str, float]] = {}
    for span in spans:
        layer = layers.setdefault(span.name, {"calls": 0, "s": 0.0})
        layer["calls"] += 1
        layer["s"] += own[span.id]
        for key, value in span.counts.items():
            layer[key] = layer.get(key, 0) + value
    return layers


def unattributed_seconds(spans: Sequence[Span], start: float, end: float) -> float:
    """Time in ``[start, end]`` that no span covers."""
    covered = union_seconds(
        [(max(s.start, start), min(s.end, end)) for s in spans if s.end > start and s.start < end]
    )
    return (end - start) - covered
