"""In-memory span recorder for the benchmark's traced runs.

The benchmark measures layers from outside: it replaces a public
callable of a layer (a module function, a method, a classmethod) with a
wrapper that records one span per call — name, start, end, the span
that was open on the same thread when it started, the thread, and an
optional tag computed from the call's arguments and result.  Spans stay
in memory and are written out once, when the process is done.

Both processes (server launcher and load generator) read
``time.monotonic``, the system-wide monotonic clock, so their spans
share one time axis.

A hook whose target no longer exists raises :class:`HookMissing` at
install time: a renamed layer must fail the traced run loudly instead
of reporting zero time for it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from collections.abc import Callable, Iterable


class HookMissing(RuntimeError):
    """A traced callable named by the benchmark no longer exists."""


# One recorded span: (id, parent id or 0, name, start, end, thread, tag).
Span = tuple


class SpanRecorder:
    """Collects spans from wrapped callables while :attr:`enabled`."""

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self.clock = clock
        self.enabled = False
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner: object, attr: str, name: str,
             tag: Callable | None = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``tag(args, kwargs, result)`` (optional) returns a small
        JSON-codable value stored with the span of a call that returned;
        a call that raised gets ``None``.
        """
        try:
            raw = inspect.getattr_static(owner, attr)
        except AttributeError:
            raise HookMissing(
                f"{getattr(owner, '__name__', owner)!r} has no attribute "
                f"{attr!r} to trace") from None
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) \
            else None
        fn = raw.__func__ if kind is not None else raw
        if not callable(fn):
            raise HookMissing(
                f"{getattr(owner, '__name__', owner)!r}.{attr} is not "
                "callable")
        recorder = self
        clock = self.clock
        ids = self._ids
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            result = done = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end,
                              threading.get_ident(),
                              tag(args, kwargs, result) if tag and done
                              else None))

        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._patches.append((owner, attr, raw))

    def install(self, hooks: Iterable[tuple]) -> None:
        """Wrap every ``(module, dotted attribute, span name[, tag])``
        in ``hooks``; ``"Class.method"`` reaches into a class."""
        for hook in hooks:
            module_name, dotted, name = hook[:3]
            tag = hook[3] if len(hook) > 3 else None
            owner: object = importlib.import_module(module_name)
            *path, attr = dotted.split(".")
            for part in path:
                try:
                    owner = getattr(owner, part)
                except AttributeError:
                    raise HookMissing(
                        f"{module_name} has no {part!r} (tracing "
                        f"{dotted})") from None
            self.wrap(owner, attr, name, tag)

    def uninstall(self) -> None:
        """Restore every wrapped callable, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)
