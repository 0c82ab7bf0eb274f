"""Traced runs: spans around each layer's public entry points.

The program carries no span instrumentation of its own, so the
benchmark wraps the functions the layers call each other through --
module attributes the callers look up at call time and methods on the
public classes -- for the duration of a traced timed phase, then puts
the originals back.  Spans (name, start, end, parent, op id) stay in
memory and are written out as JSON lines when the run ends.

A layer's self time is its spans' duration minus their child spans,
so self times partition op wall; whatever part of an op no wrapped
call covers is ``unattributed``.  Every wrapped entry point runs a few
times per op at most (the sort network's batched permutation pass
once per plan chunk), so each call gets a span; the one
call made many times per op, ``TraceBuffer.columns()``, gets a span
only when it runs the deferred integrity check.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

#: ``(module, attribute path, span name)``; self time is reported per
#: span name.  Two modules bind ``replay_trace`` by name
#: (``repro.sim.driver`` and the vector replay, which delegates non-DMC
#: configs to it); both bindings are wrapped.
SPAN_POINTS = (
    ("repro.api", "Session.run", "api.run"),
    ("repro.sim.experiments", "run_benchmark", "sim.run"),
    ("repro.sim.driver", "batch_capture", "capture"),
    ("repro.sim.driver", "vector_replay", "kernels.replay"),
    ("repro.sim.driver", "replay_trace", "core.replay"),
    ("repro.kernels.replay", "replay_trace", "core.replay"),
    ("repro.trace.store", "TraceStore.get", "trace.get"),
    ("repro.trace.store", "TraceStore.put", "trace.put"),
    ("repro.kernels.coalesce", "BatchedCoalescer.finalize", "kernels.finalize"),
    ("repro.kernels.hmc", "BatchedHMCBackend.finalize", "kernels.finalize"),
    ("repro.hmc.device", "HMCDevice.apply_deferred_metrics", "obs.apply_deferred"),
    ("repro.sim.driver", "SimulationResult.publish_derived_metrics", "sim.publish"),
    ("repro.kernels.sortnet", "VectorSortNetwork.permutations", "kernels.sort"),
)

#: The root span of every op; its self time is the unattributed rest.
OP = "op"


@dataclass
class Span:
    sid: int
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


@dataclass
class Recorder:
    """In-memory span log for one traced timed phase (single thread)."""

    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    op_id: int = -1
    _stack: list[Span] = field(default_factory=list)
    _patches: list = field(default_factory=list)

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            len(self.spans),
            name,
            self.op_id,
            parent.sid if parent else None,
            time.perf_counter(),
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.end - span.start

    def call(self, name: str, fn, args, kwargs):
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    # -- installation --------------------------------------------------------

    def _patch(self, module: str, path: str, make) -> None:
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        """Wrap every span point, plus the trace buffer's I/O."""
        for module, path, name in SPAN_POINTS:
            self._patch(module, path, lambda fn, n=name: self._spanned(fn, n))
        self._patch("repro.trace.buffer", "TraceBuffer.columns", self._verify_span)
        self._patch("repro.trace.buffer", "TraceBuffer.load", self._count_load)
        self._patch("repro.trace.buffer", "TraceBuffer.save", self._count_save)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _spanned(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return wrapper

    def _verify_span(self, fn):
        # Only the first read of an mmap-loaded buffer runs the deferred
        # sha256 check; every other columns() call is a tuple return.
        @functools.wraps(fn)
        def wrapper(buf):
            if buf.is_mmapped and not buf._verified:
                return self.call("trace.verify", fn, (buf,), {})
            return fn(buf)

        return wrapper

    def _count_load(self, descriptor):
        fn = descriptor.__func__

        @classmethod
        @functools.wraps(fn)
        def wrapper(cls, path, **kwargs):
            self.counters["trace.bytes_read"] += Path(path).stat().st_size
            return fn(cls, path, **kwargs)

        return wrapper

    def _count_save(self, fn):
        @functools.wraps(fn)
        def wrapper(buf, path):
            out = fn(buf, path)
            self.counters["trace.bytes_written"] += Path(out).stat().st_size
            return out

        return wrapper

    # -- reduction -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self seconds per span name (``op`` = unattributed)."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.name] += span.self_s
        return dict(out)

    def op_wall(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == OP)

    def names_in_op(self, op: int) -> set[str]:
        names = set()
        for span in reversed(self.spans):
            if span.op != op:
                break
            names.add(span.name)
        return names

    def records(self) -> list[dict]:
        """The spans as JSON-able dicts, in start order."""
        return [
            {
                "id": s.sid,
                "name": s.name,
                "op": s.op,
                "parent": s.parent,
                "start": s.start,
                "end": s.end,
                "self_s": s.self_s,
            }
            for s in self.spans
        ]
