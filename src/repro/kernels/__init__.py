"""Columnar kernel engine: vectorized NumPy fast paths.

The simulator has two interchangeable execution engines:

``"object"``
    The reference path: per-request Python objects walked one at a
    time through the cache hierarchy and the coalescer.  Retained
    verbatim -- it is the semantic ground truth every optimization is
    differentially tested against.

``"vector"``
    The columnar path (this package): capture runs the workload's
    access columns through batched cache lookups
    (:mod:`repro.kernels.capture`), and replay runs one row loop that
    sorts each flush sequence once, when it flushes
    (:mod:`repro.kernels.replay` / :mod:`repro.kernels.sortnet`), in
    front of a batched DMC/CRQ/MSHR kernel
    (:mod:`repro.kernels.coalesce`).

Both engines produce bit-identical :class:`~repro.sim.driver.SimulationResult`
digests -- the vector engine is *exact*, not approximate.  That contract
is enforced three ways: the engine-parity cells in
``scripts/check_perf_parity.py``, the hypothesis differential tests
under ``tests/kernels``/``tests/cache``, and the perf harness digest
gate (``vector_*`` perf kinds must match their object-engine pair).

Engine selection is an execution concern, never a platform parameter:
it must not appear in :class:`~repro.sim.driver.PlatformConfig` (the
platform echo is part of the result digest) and it never changes a
result, only how fast the result is produced.  Configurations the
vector engine cannot reproduce exactly (currently ``llc_prefetch``)
fall back to the object path automatically.
"""

from __future__ import annotations

from repro.errors import ConfigError

#: The selectable execution engines, reference first.
ENGINES = ("object", "vector")

#: Engine used when callers pass ``engine=None``.
DEFAULT_ENGINE = "vector"


class KernelCounters:
    """Engagement, delegation and fallback counts of one kernel.

    Per process, *not* registry metrics: the registry is digest-visible
    and must be engine-invariant, while which engine ran (and whether it
    fell back) is run metadata the perf harness reads.  Each kernel
    module keeps one instance and exposes its :meth:`snapshot` and
    :meth:`reset` as ``kernel_counters()`` / ``reset_kernel_counters()``.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero the counters (test isolation)."""
        self.engaged = 0
        self.delegated = 0
        self.fallbacks = 0
        self.fallback_reasons: dict[str, int] = {}

    def snapshot(self) -> dict:
        """The counters as a fresh dict."""
        return {
            "engaged": self.engaged,
            "delegated": self.delegated,
            "fallbacks": self.fallbacks,
            "fallback_reasons": dict(self.fallback_reasons),
        }

    def record_fallback(self, reason: str) -> None:
        self.fallbacks += 1
        reasons = self.fallback_reasons
        reasons[reason] = reasons.get(reason, 0) + 1


def resolve_engine(engine: str | None) -> str:
    """Normalize an ``engine=`` argument, defaulting to the vector path."""
    if engine is None:
        return DEFAULT_ENGINE
    if engine not in ENGINES:
        raise ConfigError(
            f"unknown engine {engine!r}; options: {', '.join(ENGINES)}"
        )
    return engine


__all__ = ["ENGINES", "DEFAULT_ENGINE", "KernelCounters", "resolve_engine"]
