"""In-memory spans around calls into the program's modules.

A :class:`Tracer` replaces chosen functions -- class attributes or module
globals -- with wrappers that open a span per call, and puts the originals
back on :meth:`Tracer.uninstall`.  A span's *self* time is its duration
minus the part covered by spans opened inside it, so the self times of all
spans (plus the untraced rest) add up to the host time of the traced run.

Generator functions (engine processes, ``yield from`` phases) are timed
across each of their resumptions: the wrapper returns a proxy generator
that opens a span every time the engine resumes it and closes it at the
next ``yield``, and adds the virtual (engine) time and the host time from
the call to its return as the span's ``sim`` and ``wall`` time.

Aggregates (calls, self, total, sim and wall seconds, a count) are kept per span
name; the first :data:`SAMPLE_LIMIT` raw spans are kept too and written as
a Chrome trace by :meth:`Tracer.write_chrome_trace`.
"""

from __future__ import annotations

import inspect
import json
import time
from typing import Any, Callable, Dict, List, Optional

#: raw spans kept for the Chrome trace; aggregates cover every span
SAMPLE_LIMIT = 20000

_clock = time.perf_counter


class Stat:
    """Aggregate of one span name."""

    __slots__ = ("name", "calls", "self_s", "total_s", "sim_s", "wall_s",
                 "count")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.sim_s = 0.0
        self.wall_s = 0.0  # generators: host time from the call to return
        self.count = 0  # a span-specific tally (e.g. lock waits)


class Tracer:
    """Span stack, per-name aggregates and the installed wrappers."""

    def __init__(self) -> None:
        self.stats: Dict[str, Stat] = {}
        self.samples: List[tuple] = []
        self._stack: List[list] = []  # [start, child_seconds, stat]
        self._patches: List[tuple] = []  # (owner, attr, original)
        self._origin = _clock()

    # ------------------------------------------------------------------ #
    # spans
    # ------------------------------------------------------------------ #

    def stat(self, name: str) -> Stat:
        found = self.stats.get(name)
        if found is None:
            found = self.stats[name] = Stat(name)
        return found

    def _open(self, stat: Stat) -> None:
        self._stack.append([_clock(), 0.0, stat])

    def _close(self) -> None:
        start, child, stat = self._stack.pop()
        end = _clock()
        duration = end - start
        stat.self_s += duration - child
        stat.total_s += duration
        if self._stack:
            self._stack[-1][1] += duration
        if len(self.samples) < SAMPLE_LIMIT:
            self.samples.append((stat.name, start, duration, len(self._stack)))

    def _inside(self, stat: Stat) -> bool:
        """True when ``stat`` is the innermost open span: a subclass method
        calling its wrapped parent is one call, not two."""
        return bool(self._stack) and self._stack[-1][2] is stat

    # ------------------------------------------------------------------ #
    # wrappers
    # ------------------------------------------------------------------ #

    def _timed_generator(self, gen, stat: Stat, engine):
        """Proxy ``gen``, timing each resumption as one span segment."""
        sim_start = engine.now if engine is not None else 0.0
        wall_start = _clock()
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            self._open(stat)
            try:
                if error is None:
                    out = gen.send(value)
                else:
                    out = gen.throw(error)
            except BaseException as exc:
                self._close()
                stat.wall_s += _clock() - wall_start
                if engine is not None:
                    stat.sim_s += engine.now - sim_start
                if isinstance(exc, StopIteration):
                    return exc.value
                raise
            self._close()
            try:
                value = yield out
                error = None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # engine throw: forward it
                value, error = None, exc

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Optional[Callable[[Stat, Any], None]] = None,
    ) -> Callable:
        """A traced stand-in for ``fn`` (a plain or generator function).

        A call whose result is a generator (a generator function, or a
        message handler that returns a process body) returns a proxy timed
        across its resumptions; the first argument's ``engine`` attribute,
        if any, supplies the virtual clock for ``sim`` time.
        """
        stat = self.stat(name)
        tracer = self
        is_gen = inspect.isgeneratorfunction(fn)

        def traced(*args, **kwargs):
            if tracer._inside(stat):
                return fn(*args, **kwargs)
            stat.calls += 1
            if is_gen:
                engine = getattr(args[0], "engine", None) if args else None
                return tracer._timed_generator(fn(*args, **kwargs), stat, engine)
            tracer._open(stat)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if on_result is not None:
                on_result(stat, result)
            if hasattr(result, "send") and hasattr(result, "throw"):
                engine = getattr(args[0], "engine", None) if args else None
                return tracer._timed_generator(result, stat, engine)
            return result

        traced.__wrapped__ = fn
        return traced

    def count_calls(self, name: str, fn: Callable) -> Callable:
        """A stand-in for ``fn`` that only counts calls (no span)."""
        stat = self.stat(name)

        def counted(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def patch(self, owner: Any, attr: str, replacement: Callable) -> None:
        """Set ``owner.attr`` (a class or module) until :meth:`uninstall`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def trace(self, owner: Any, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper named ``name``."""
        self.patch(owner, attr, self.wrap(name, getattr(owner, attr), on_result))

    def uninstall(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # engine dispatch (the engine's profiler hook)
    # ------------------------------------------------------------------ #

    def dispatch_hook(self, name: str):
        """An object for ``engine.profiler``: each callback the engine
        dispatches runs inside a span named ``name``."""
        tracer = self
        stat = self.stat(name)

        class _Hook:
            def dispatch(self, callback, args):
                stat.calls += 1
                tracer._open(stat)
                try:
                    callback(*args)
                finally:
                    tracer._close()

        return _Hook()

    # ------------------------------------------------------------------ #
    # output
    # ------------------------------------------------------------------ #

    def summary(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {
                "calls": s.calls,
                "self_s": s.self_s,
                "total_s": s.total_s,
                "sim_s": s.sim_s,
                "wall_s": s.wall_s,
                "count": s.count,
            }
            for name, s in sorted(self.stats.items())
        }

    def write_chrome_trace(self, path, pid: int = 1) -> None:
        """The sampled spans as Chrome trace "complete" events."""
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - self._origin) * 1e6,
                "dur": duration * 1e6,
                "pid": pid,
                "tid": 1,
                "args": {"depth": depth},
            }
            for name, start, duration, depth in self.samples
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "summary": self.summary()}, handle)
