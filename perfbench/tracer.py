"""Spans around the public calls into each layer, patched from outside.

The benchmark never edits ``src/``: it replaces a class attribute or a
module function with a wrapper for the length of one run and puts the
original back afterwards.  A wrapper is a plain pass-through until the
tracer is enabled, so the untraced phase of a run pays one attribute
test per call.

Each enabled call records its duration and its *self* time (duration
minus the spans nested inside it on the same thread), so the self times
of all spans partition the time the spans cover and add up to the
end-to-end time minus what no span covers.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

_MISSING = object()


class Tracer:
    """Aggregate span statistics: calls, total and self seconds."""

    def __init__(self):
        self.enabled = False
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        #: ``(name, parent name)`` -> calls, for counts by caller.
        self.nested = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def patch(self, owner, attr: str, name: str, *, before=None,
              after=None) -> None:
        """Wrap ``owner.attr`` in a span called ``name``.

        ``before(args)`` returns a token handed to
        ``after(args, result, token)``; both run inside the span, and
        only while tracing is on.
        """
        original = getattr(owner, attr)
        saved = owner.__dict__.get(attr, _MISSING)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            stack = tracer._stack()
            frame = [name, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = time.perf_counter()
            tracer._local.started = start
            try:
                token = before(args) if before else None
                result = original(*args, **kwargs)
                if after:
                    after(args, result, token)
                return result
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                with tracer._lock:
                    tracer.calls[name] += 1
                    tracer.total[name] += elapsed
                    tracer.self_time[name] += elapsed - frame[1]
                    tracer.nested[(name, parent)] += 1

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, saved))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, saved = self._patches.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def last_start(self) -> float | None:
        """Start of the newest span entered on the calling thread."""
        return getattr(self._local, "started", None)

    # ------------------------------------------------------------------
    # readouts
    # ------------------------------------------------------------------
    def reset(self) -> None:
        with self._lock:
            self.total.clear()
            self.self_time.clear()
            self.calls.clear()
            self.nested.clear()

    def self_s(self, *names: str) -> float:
        return sum(self.self_time.get(name, 0.0) for name in names)

    def total_s(self, *names: str) -> float:
        return sum(self.total.get(name, 0.0) for name in names)

    def count(self, name: str, parent=_MISSING) -> int:
        if parent is _MISSING:
            return self.calls.get(name, 0)
        return self.nested.get((name, parent), 0)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.enabled = False
        self.restore()


def per_call(tracer: Tracer, name: str, scale: float = 1e6) -> float:
    """Mean self time of ``name`` per call (µs by default), 0 if unused."""
    calls = tracer.count(name)
    return tracer.self_s(name) / calls * scale if calls else 0.0
