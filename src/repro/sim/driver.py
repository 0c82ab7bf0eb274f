"""End-to-end simulation driver.

Wires the full evaluation stack of Section 5.1 together::

    workload --> cache hierarchy --> memory coalescer --> HMC device
    (12 cores)   (L1/L2 + shared     (sort + DMC +        (vaults,
                  LLC, tracer)        CRQ + MSHRs)          links)

The driver owns the unit conversions (coalescer cycles at 3.3 GHz vs
HMC nanoseconds) and the runtime model:

``runtime = compute_time + memory_makespan (+ pipeline-fill latency)``

where *compute time* covers the non-memory work between accesses
(``compute_cycles_per_access``), and the *memory makespan* is the wall
time the HMC device needs to retire the run's request stream, with
vault-level parallelism and bank conflicts modelled by
:class:`repro.hmc.device.HMCDevice`.  Runtime improvement between the
uncoalesced baseline and a coalescing configuration is the paper's
Figure 15 metric.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from typing import Iterable, Iterator

from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig
from repro.cache.tracer import MemoryTracer, TraceRecord, TracerStats
from repro.core.coalescer import CoalescerStats, MemoryCoalescer
from repro.core.config import CoalescerConfig, UNCOALESCED_CONFIG
from repro.core.address import CACHE_LINE_SIZE
from repro.errors import SchemaError
from repro.core.request import CoalescedRequest, RequestType
from repro.hmc.device import HMCDevice, HMCStats
from repro.hmc.packet import REQUEST_CONTROL_BYTES
from repro.hmc.timing import HMCTimingConfig
from repro.kernels import resolve_engine
from repro.kernels.capture import batch_capture, supports_vector_capture
from repro.kernels.coalesce import CoalesceKernelError
from repro.kernels.replay import vector_replay
from repro.obs import MetricsRegistry, PhaseProfiler
from repro.trace import (
    TraceBuffer,
    TraceIntegrityError,
    TraceStore,
    publish_replay_tracer_metrics,
    replay_trace,
    trace_key,
)
from repro.workloads import Workload, get_workload

#: Version of the public :class:`PlatformConfig` JSON envelope
#: (:meth:`PlatformConfig.to_json`); bumped on incompatible layout
#: changes so old documents fail loudly instead of misparsing.
PLATFORM_SCHEMA = 1


@dataclass(frozen=True)
class PlatformConfig:
    """The simulated platform of Section 5.2.

    12 CPUs at 3.3 GHz, 16 MSHRs in the LLC, an 8 GB HMC with 256 B
    block addressing.  The cache geometry is scaled to the trace
    lengths that are practical in a pure-Python simulator (smaller
    caches, shorter traces -- same miss behaviour per byte of trace).
    """

    num_threads: int = 12
    accesses: int = 120_000
    seed: int = 0
    clock_ghz: float = 3.3
    #: CPU cycles consumed per access for the aggregate 12-core stream
    #: (each core sustaining ~1 access/cycle).
    cycles_per_access: float = 1.0 / 12.0
    #: Non-memory work per CPU access for the runtime model (cycles).
    #: ``None`` uses each workload's own arithmetic intensity.
    compute_cycles_per_access: float | None = None
    hierarchy: HierarchyConfig = field(
        default_factory=lambda: HierarchyConfig(
            num_cores=12,
            l1_size=16 * 1024,
            l1_assoc=4,
            l2_size=128 * 1024,
            l2_assoc=8,
            llc_size=1024 * 1024,
            llc_assoc=16,
            llc_fill_latency=400,
        )
    )
    coalescer: CoalescerConfig = field(default_factory=CoalescerConfig)
    hmc: HMCTimingConfig = field(default_factory=HMCTimingConfig)

    @property
    def cycle_ns(self) -> float:
        return 1.0 / self.clock_ghz

    def with_coalescer(self, coalescer: CoalescerConfig) -> "PlatformConfig":
        """Copy of this platform with a different coalescer config."""
        return replace(self, coalescer=coalescer)

    # -- serialization (the one canonical platform codec) --------------------
    #
    # Checkpoint files, config digests, the job server's wire format
    # and the CLI all round-trip platforms through these four methods;
    # there is deliberately no second serializer anywhere else.

    def to_dict(self) -> dict:
        """Lossless JSON-able view (digest and checkpoint payload).

        Scalar fields verbatim, the three nested configs as flat
        ``{field: value}`` dicts.  This is the exact payload
        :meth:`content_digest` hashes, so its shape is part of the
        cache-key contract.
        """
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        for name in ("hierarchy", "coalescer", "hmc"):
            nested = getattr(self, name)
            d[name] = {f.name: getattr(nested, f.name) for f in fields(nested)}
        # Fields added to the config surface *after* digests of the
        # default platform were checked in are serialized only at
        # non-default values: absent keys reconstruct the default in
        # ``from_dict``, so default-config digests, checkpoints and
        # BENCH baselines stay byte-identical across versions while any
        # non-default choice is fully digest-visible.
        if d["coalescer"]["sorter_arch"] == "single_phase":
            del d["coalescer"]["sorter_arch"]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "PlatformConfig":
        """Inverse of :meth:`to_dict`.

        Raises :class:`repro.errors.SchemaError` on missing or unknown
        fields (still caught by pre-existing ``except ValueError``
        handlers).
        """
        from repro.cache.hierarchy import HierarchyConfig
        from repro.hmc.timing import HMCTimingConfig

        d = dict(d)
        try:
            d["hierarchy"] = HierarchyConfig(**d["hierarchy"])
            d["coalescer"] = CoalescerConfig(**d["coalescer"])
            d["hmc"] = HMCTimingConfig(**d["hmc"])
            return cls(**d)
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"invalid platform payload: {exc}") from exc

    def content_digest(self) -> str:
        """Stable content hash of the full configuration.

        Two structurally equal platforms digest identically no matter
        how they were constructed; every digest-keyed cache (Session
        results, sweep checkpoints, the job server) keys on this.
        """
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha1(blob.encode()).hexdigest()

    def to_json(self) -> str:
        """The versioned wire form: a self-describing JSON document.

        The envelope carries the schema version and the content digest
        alongside the payload, so a receiver can reject incompatible
        or corrupted documents before constructing anything.
        """
        return json.dumps(
            {
                "schema": PLATFORM_SCHEMA,
                "kind": "platform",
                "digest": self.content_digest(),
                "platform": self.to_dict(),
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, doc: str | bytes | dict) -> "PlatformConfig":
        """Inverse of :meth:`to_json` (accepts the parsed dict too).

        Raises :class:`repro.errors.SchemaError` when the envelope is
        malformed, carries a different schema version, or its recorded
        digest does not match the payload.
        """
        if isinstance(doc, (str, bytes)):
            try:
                doc = json.loads(doc)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"platform document is not JSON: {exc}") from exc
        if not isinstance(doc, dict) or "platform" not in doc:
            raise SchemaError("platform document has no 'platform' payload")
        if doc.get("schema") != PLATFORM_SCHEMA:
            raise SchemaError(
                f"platform document schema {doc.get('schema')!r}, "
                f"expected {PLATFORM_SCHEMA}"
            )
        platform = cls.from_dict(doc["platform"])
        recorded = doc.get("digest")
        if recorded is not None and recorded != platform.content_digest():
            raise SchemaError(
                "platform document digest does not match its payload "
                "(corrupted or hand-edited document)"
            )
        return platform


@dataclass
class SimulationResult:
    """Everything one end-to-end run produces."""

    benchmark: str
    platform: PlatformConfig
    tracer: TracerStats
    coalescer: CoalescerStats
    hmc: HMCStats
    secondary_misses: int
    trace_cycles: int
    compute_cycles_per_access: float = 6.0
    #: Per-run metrics registry (all stage counters/histograms + the
    #: stage timeline); ``None`` only for hand-built results in tests.
    metrics: MetricsRegistry | None = None

    # -- paper metrics ---------------------------------------------------------

    @property
    def coalescing_efficiency(self) -> float:
        """Figure 8: fraction of LLC requests eliminated."""
        return self.coalescer.coalescing_efficiency

    @property
    def bandwidth_efficiency(self) -> float:
        """Figure 9 / Equation 1: requested / transferred bytes."""
        return self.hmc.bandwidth_efficiency

    @property
    def transferred_bytes(self) -> int:
        return self.hmc.transferred_bytes

    @property
    def control_bytes(self) -> int:
        return self.hmc.control_bytes

    @property
    def compute_ns(self) -> float:
        cycles = self.tracer.cpu_accesses * self.compute_cycles_per_access
        return cycles * self.platform.cycle_ns

    @property
    def memory_ns(self) -> float:
        """Makespan of the HMC request stream."""
        return self.hmc.last_complete_ns

    @property
    def coalescer_overhead_ns(self) -> float:
        """One-time pipeline-fill cost when the coalescer first engages.

        Steady-state sorting/coalescing latency is hidden inside the
        HMC access time (the Section 3.1 design goal), so only the
        initial fill of the sorting pipeline and DMC unit is exposed.
        """
        cfg = self.platform.coalescer
        if not cfg.enable_dmc:
            return 0.0
        fill_cycles = _pipeline_fill_cycles(cfg) + self.coalescer.dmc.mean_latency_cycles()
        return cfg.cycles_to_ns(fill_cycles)

    @property
    def runtime_ns(self) -> float:
        """The runtime model behind Figure 15."""
        return self.compute_ns + self.memory_ns + self.coalescer_overhead_ns

    def request_size_distribution(self) -> dict[int, int]:
        """Histogram of issued HMC request payload sizes."""
        return dict(sorted(self.hmc.size_histogram.items()))

    # -- derived comparisons (used by figures, CLI and benchmarks) -------------

    def runtime_improvement_over(self, baseline: "SimulationResult") -> float:
        """Figure 15's metric relative to ``baseline``."""
        return runtime_improvement(baseline, self)

    def requests_saved_vs(self, baseline: "SimulationResult") -> int:
        """HMC transactions this run avoided relative to ``baseline``."""
        return baseline.hmc.requests - self.hmc.requests

    def control_bytes_saved_vs(self, baseline: "SimulationResult") -> int:
        """Control bytes saved by issuing fewer transactions (Figure 11)."""
        return self.requests_saved_vs(baseline) * REQUEST_CONTROL_BYTES

    def transfer_bytes_saved_vs(self, baseline: "SimulationResult") -> int:
        """Total link bytes saved relative to ``baseline`` (Figure 11)."""
        return baseline.transferred_bytes - self.transferred_bytes

    def publish_derived_metrics(self) -> None:
        """Export the paper-level derived metrics as registry gauges.

        Called by the driver once per run so every consumer (CLI
        ``stats``, benchmark ``--metrics-out`` dumps, JSON archives)
        reads the same arithmetic instead of recomputing it locally.
        """
        if self.metrics is None:
            return
        g = self.metrics.gauge
        g(
            "sim_coalescing_efficiency",
            help="Fraction of LLC requests eliminated (Figure 8)",
        ).set(self.coalescing_efficiency)
        g(
            "sim_bandwidth_efficiency",
            help="Requested / transferred bytes (Equation 1, Figure 9)",
        ).set(self.bandwidth_efficiency)
        g("sim_compute_ns", unit="ns", help="Modelled compute time").set(
            self.compute_ns
        )
        g("sim_memory_ns", unit="ns", help="HMC request-stream makespan").set(
            self.memory_ns
        )
        g(
            "sim_coalescer_overhead_ns",
            unit="ns",
            help="One-time pipeline-fill overhead",
        ).set(self.coalescer_overhead_ns)
        g("sim_runtime_ns", unit="ns", help="Modelled runtime (Figure 15)").set(
            self.runtime_ns
        )
        g("sim_trace_cycles", unit="cycles", help="Final trace cycle").set(
            self.trace_cycles
        )
        g("sim_secondary_misses", help="In-flight secondary LLC misses").set(
            self.secondary_misses
        )


@lru_cache(maxsize=None)
def _pipeline_fill_cycles(cfg: CoalescerConfig) -> int:
    """Pipeline-fill latency of the sorting network for ``cfg``.

    ``coalescer_overhead_ns`` is read repeatedly (``runtime_ns``,
    derived metrics, figures); the fill latency depends only on the
    frozen-hashable :class:`CoalescerConfig`, so build the
    :class:`PipelinedSortingNetwork` once per config instead of once
    per property access.
    """
    from repro.core.pipeline import PipelinedSortingNetwork

    return PipelinedSortingNetwork(cfg).full_latency_cycles


def run_trace_through_coalescer(
    records: Iterable[TraceRecord],
    *,
    coalescer: MemoryCoalescer,
    device: HMCDevice | None = None,
    cycle_ns: float,
    profiler: PhaseProfiler | None = None,
) -> int:
    """Feed an LLC trace through a coalescer backed by an HMC device.

    The coalescer asks the device for each issued packet's round trip;
    the device is driven with real arrival times so vault queueing and
    bank conflicts shape the latency.  Returns the final trace cycle.

    ``coalescer``, ``device`` and ``cycle_ns`` are keyword-only;
    ``device`` is accepted for symmetry with the stack diagram (the
    coalescer's service-time hook already closes over it).

    With a ``profiler``, the wall-clock cost of producing each record
    (workload generation + cache filtering) is charged to the
    ``trace`` phase and each coalescer push (sorter + DMC + CRQ +
    MSHRs + HMC service) to the ``coalesce`` phase.
    """
    last_cycle = 0
    push = coalescer.push
    if profiler is not None:
        # Inline the timing instead of entering profiler.phase() per
        # record: the context-manager object per push is measurable on
        # long traces and would be charged to "coalesce" itself.
        clock = time.perf_counter
        charge = profiler.add
        for rec in profiler.wrap_iter("trace", records):
            start = clock()
            push(rec.request, rec.cycle)
            charge("coalesce", clock() - start)
            last_cycle = rec.cycle
        with profiler.phase("flush"):
            coalescer.flush(last_cycle + 1)
        return last_cycle
    for rec in records:
        push(rec.request, rec.cycle)
        last_cycle = rec.cycle
    coalescer.flush(last_cycle + 1)
    return last_cycle


def _make_service_time(device: HMCDevice, cycle_ns: float):
    service_core = device._service_core
    store = RequestType.STORE

    def service_time(packet: CoalescedRequest, cycle: int) -> int:
        payload = packet.payload_bytes
        if payload is None:
            payload = packet.num_lines * CACHE_LINE_SIZE
        requested = packet.requested_bytes
        arrive_ns = cycle * cycle_ns
        complete_ns, _, _ = service_core(
            packet.addr,
            payload,
            packet.rtype is store,
            arrive_ns,
            requested if requested < payload else payload,
        )
        cycles = int((complete_ns - arrive_ns) / cycle_ns)
        return cycles if cycles > 1 else 1

    # Advertise the bound device so the batched HMC back end
    # (repro.kernels.hmc) can recognize this exact closure shape and
    # take over whole batches; the attributes are an execution-side
    # contract only and never enter configs or digests.
    service_time.hmc_device = device
    service_time.cycle_ns = cycle_ns
    return service_time


def _tee_records(
    records: Iterable[TraceRecord], buffer: TraceBuffer
) -> Iterator[TraceRecord]:
    """Yield ``records`` unchanged while appending each to ``buffer``.

    The capture piggybacks on the live run: the coalescer sees the
    exact same lazy stream it always did, and the buffer fills as a
    side effect.
    """
    append = buffer.append_record
    for record in records:
        append(record)
        yield record


def _replay_benchmark(
    buffer: TraceBuffer,
    *,
    platform: PlatformConfig,
    profiler: PhaseProfiler | None,
    engine: str = "object",
) -> SimulationResult:
    """Build a :class:`SimulationResult` from a stored trace.

    Digest-identical to the live path: the same coalescer/HMC stack is
    driven with the same request stream, and the tracer-side
    observables (stats, registry counters, secondary misses) are
    reconstructed from the capture's metadata.  ``engine`` selects the
    replay loop -- ``"vector"`` sorts each flush once and replays the
    second-phase coalescing effects batched (:func:`repro.kernels.replay.vector_replay`),
    ``"object"`` walks rows one by one; both are digest-identical by
    contract.  If the vector engine's batched coalescing kernel trips a
    verification check mid-run, the partially-mutated stack is
    discarded and the trace re-runs on a fresh object-engine stack, so
    a verification miss costs one retry, never a wrong result.
    """

    def build_stack():
        registry = MetricsRegistry()
        device = HMCDevice(platform.hmc, registry)
        # Results read the coalescer's stats and registry only, so the
        # per-request streams are not recorded.
        coal = MemoryCoalescer(
            platform.coalescer,
            service_time=_make_service_time(device, platform.cycle_ns),
            registry=registry,
            record_streams=False,
        )
        return registry, device, coal

    registry, device, coal = build_stack()
    replay = vector_replay if engine == "vector" else replay_trace
    try:
        last_cycle = replay(buffer, coalescer=coal, profiler=profiler)
    except CoalesceKernelError:
        # The raising kernel has counted its fallback.
        registry, device, coal = build_stack()
        last_cycle = replay_trace(buffer, coalescer=coal, profiler=profiler)
    mark = time.perf_counter()
    publish_replay_tracer_metrics(registry, buffer)
    coal.publish_metrics()
    device.apply_deferred_metrics()
    if profiler is not None:
        profiler.add("flush", time.perf_counter() - mark)
    intensity = (
        platform.compute_cycles_per_access
        if platform.compute_cycles_per_access is not None
        else buffer.meta["compute_cycles_per_access"]
    )
    result = SimulationResult(
        benchmark=buffer.meta["benchmark"],
        platform=platform,
        tracer=buffer.tracer_stats(),
        coalescer=coal.stats(),
        hmc=device.stats,
        secondary_misses=buffer.meta["secondary_misses"],
        trace_cycles=last_cycle,
        compute_cycles_per_access=intensity,
        metrics=registry,
    )
    result.publish_derived_metrics()
    return result


def run_benchmark(
    benchmark: str | Workload,
    *,
    platform: PlatformConfig | None = None,
    coalescer: CoalescerConfig | None = None,
    profiler: PhaseProfiler | None = None,
    trace_store: TraceStore | None = None,
    engine: str | None = None,
) -> SimulationResult:
    """Run one benchmark end to end on the given platform.

    All configuration is keyword-only: ``platform`` selects the full
    platform, and ``coalescer`` (if given) overrides its coalescer
    config -- ``run_benchmark("FT", coalescer=UNCOALESCED_CONFIG)`` is
    the baseline idiom.  Prefer :class:`repro.api.Session` for cached,
    sweep-aware runs.

    With a ``trace_store``, the front end (workload generation plus
    cache filtering) runs at most once per (workload, geometry,
    pacing) key: a stored capture is replayed bit-identically, a miss
    runs live while teeing the stream into the store.  ``Workload``
    instances always run live (their construction parameters are not
    part of the store key).

    Every stage shares one :class:`~repro.obs.MetricsRegistry`, returned
    on the result's ``metrics`` field.  An optional ``profiler``
    collects wall-clock per phase (the ``repro profile`` command).

    ``engine`` selects the execution engine (``"vector"`` by default,
    see :mod:`repro.kernels`): the vector engine captures the LLC
    trace columnar and replays it on the batched coalescing kernel,
    producing a digest-identical result faster.  Platforms
    the vector capture cannot model exactly (LLC prefetching) fall
    back to the object path automatically.
    """
    platform = platform or PlatformConfig()
    if coalescer is not None:
        platform = platform.with_coalescer(coalescer)
    engine = resolve_engine(engine)

    key = capture = None
    if trace_store is not None and not isinstance(benchmark, Workload):
        key = trace_key(benchmark, platform)
        stored = trace_store.get(key)
        if stored is not None:
            try:
                return _replay_benchmark(
                    stored, platform=platform, profiler=profiler, engine=engine
                )
            except TraceIntegrityError as exc:
                # mmap stores defer payload verification to the first
                # row read; a corrupt entry surfaces here instead of
                # inside TraceStore.get.  Same degraded-mode contract:
                # log, evict and fall through to a live capture.
                logging.getLogger("repro.trace").warning(
                    "discarding unreadable trace for %s (%s); "
                    "re-capturing live",
                    key.filename,
                    exc,
                )
                trace_store.discard(key)
        capture = TraceBuffer()

    if isinstance(benchmark, Workload):
        workload = benchmark
    else:
        workload = get_workload(
            benchmark, num_threads=platform.num_threads, seed=platform.seed
        )

    if engine == "vector" and supports_vector_capture(platform):
        if profiler is not None:
            with profiler.phase("trace"):
                buffer, cpu_accesses, secondary = batch_capture(
                    workload, platform
                )
        else:
            buffer, cpu_accesses, secondary = batch_capture(workload, platform)
        buffer.finalize(
            benchmark=workload.name,
            cpu_accesses=cpu_accesses,
            compute_cycles_per_access=workload.compute_cycles_per_access,
            secondary_misses=secondary,
            key_digest=key.digest if key is not None else "",
            key_payload=json.loads(key.payload) if key is not None else None,
        )
        if key is not None and trace_store is not None:
            trace_store.put(key, buffer)
        return _replay_benchmark(
            buffer, platform=platform, profiler=profiler, engine="vector"
        )

    registry = MetricsRegistry()
    hierarchy = CacheHierarchy(platform.hierarchy)
    tracer = MemoryTracer(
        hierarchy,
        cycles_per_access=platform.cycles_per_access,
        registry=registry,
    )
    device = HMCDevice(platform.hmc, registry)
    coal = MemoryCoalescer(
        platform.coalescer,
        service_time=_make_service_time(device, platform.cycle_ns),
        registry=registry,
        record_streams=False,
    )

    records: Iterable[TraceRecord] = tracer.trace(workload.accesses(platform.accesses))
    if capture is not None:
        records = _tee_records(records, capture)
    last_cycle = run_trace_through_coalescer(
        records,
        coalescer=coal,
        device=device,
        cycle_ns=platform.cycle_ns,
        profiler=profiler,
    )
    tracer.publish_metrics()
    coal.publish_metrics()
    device.apply_deferred_metrics()

    intensity = (
        platform.compute_cycles_per_access
        if platform.compute_cycles_per_access is not None
        else workload.compute_cycles_per_access
    )
    if capture is not None and key is not None and trace_store is not None:
        capture.finalize(
            benchmark=workload.name,
            cpu_accesses=tracer.stats.cpu_accesses,
            compute_cycles_per_access=workload.compute_cycles_per_access,
            secondary_misses=hierarchy.secondary_misses,
            key_digest=key.digest,
            key_payload=json.loads(key.payload),
        )
        trace_store.put(key, capture)
    result = SimulationResult(
        benchmark=workload.name,
        platform=platform,
        tracer=tracer.stats,
        coalescer=coal.stats(),
        hmc=device.stats,
        secondary_misses=hierarchy.secondary_misses,
        trace_cycles=last_cycle,
        compute_cycles_per_access=intensity,
        metrics=registry,
    )
    result.publish_derived_metrics()
    return result


def runtime_improvement(
    baseline: SimulationResult, coalesced: SimulationResult
) -> float:
    """Figure 15's metric: fractional runtime gain over the baseline."""
    if baseline.runtime_ns <= 0:
        return 0.0
    return (baseline.runtime_ns - coalesced.runtime_ns) / baseline.runtime_ns


def run_baseline_and_coalesced(
    benchmark: str,
    *,
    platform: PlatformConfig | None = None,
    trace_store: TraceStore | None = None,
    profiler: PhaseProfiler | None = None,
    engine: str | None = None,
) -> tuple[SimulationResult, SimulationResult]:
    """Run the uncoalesced baseline and the two-phase coalescer.

    Both runs share one LLC trace: the store key excludes the
    coalescer config, so the baseline run captures the stream and the
    coalesced run replays it.  Pass ``trace_store`` to reuse captures
    across calls (or a disk-backed store across processes); by default
    a private in-memory store still halves the front-end work.  A
    ``profiler`` accumulates phase timings across both runs; ``engine``
    selects the execution engine for both.
    """
    platform = platform or PlatformConfig()
    if trace_store is None:
        trace_store = TraceStore(max_memory_entries=1)
    base = run_benchmark(
        benchmark,
        platform=platform,
        coalescer=UNCOALESCED_CONFIG,
        trace_store=trace_store,
        profiler=profiler,
        engine=engine,
    )
    coal = run_benchmark(
        benchmark,
        platform=platform,
        trace_store=trace_store,
        profiler=profiler,
        engine=engine,
    )
    return base, coal
