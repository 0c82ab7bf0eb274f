"""Perf-harness case definitions.

A :class:`PerfCase` names one measured workload: a (benchmark, figure
config, trace length) triple plus a *kind* selecting what the harness
actually times.  Three suites are provided:

``smoke``
    Three plain simulations plus two warm-trace replays, a few seconds
    total: what CI's perf-smoke job runs on every push.  SG/combined
    is the stress case — the scatter-gather access pattern keeps the
    MSHR file full, which is exactly the regime the indexed offer path
    optimizes.  The plain simulations pin the object engine; the two
    ``vector_hmc`` replays gate the kernel engine's configs without
    the DMC unit (MG/uncoalesced: single-line packets, no merging;
    SG/mshr_only: merge-while-full on single-line packets).

``trace``
    The trace-materialization layer's capture/replay economics:
    capture overhead vs a plain run, replay vs live, a
    baseline+coalesced pair with and without a shared trace, and a
    4-config sweep with and without one.  The paired kinds make the
    speedup directly readable from one report.

``full``
    A broader grid across access patterns and coalescer configs, for
    local before/after comparisons when touching hot paths.

``sweep``
    The sweep engine's orchestration economics: a 24-cell mini-sweep
    (6 benchmarks x the 4 figure configs) executed by the persistent
    worker pool at ``--jobs`` 1 and 4.  The measured number is
    cells/second (process reuse + shared mmap traces + grouped
    multi-config replay).

``sorter``
    The wide-sorter scaling grid: object-vs-vector replay twins at
    n=32/64 single-phase and n=64/128 two-phase, all on SG/combined
    (the window-saturating workload).  The derived per-width speedups
    gate the tentpole acceptance: the vector sort path must beat the
    object walk >= 3x at n=64.

Case kinds
----------
``sim``
    One live end-to-end run (the default; pre-trace behaviour).
``trace_capture``
    A live run teeing its LLC stream into a fresh trace store —
    measures what capture costs on top of ``sim``.
``trace_replay``
    A run replayed from a warm trace store — measures the front end
    eliminated (compare against the same case as ``sim``).
``pair_live`` / ``pair_shared_trace``
    ``run_baseline_and_coalesced`` with the store disabled vs enabled;
    the ratio is the headline pair speedup.  Its ceiling is set by the
    front-end share of a run — see ``docs/performance.md`` for the
    capture/replay cost model and measured ratios.
``sweep_live`` / ``sweep_shared``
    All four figure configs of one benchmark, each run live vs all
    replaying one capture (front-end work done once, so the saving
    approaches ``(N-1)/N`` of the front-end share on an N-config grid).
``vector_capture``
    ``trace_capture`` with the columnar kernel engine: the workload's
    access stream and cache walk run as NumPy batches
    (``repro.kernels.capture``).  Compare against ``trace_capture`` on
    the same workload for the capture-side engine speedup.
``vector_replay``
    ``trace_replay`` with the columnar kernel engine: one row loop
    that sorts each flush sequence as it flushes
    (``repro.kernels.replay``).  Compare
    against ``trace_replay`` for the replay-side engine speedup.
``vector_coalesce``
    ``trace_replay`` under the kernel engine with the batched
    second-phase coalescing kernel (``repro.kernels.coalesce``) in
    focus: the same measurement as ``vector_replay``, plus a
    kernel-counter snapshot around the measured repeats recording how
    often the batched DMC/CRQ/MSHR kernel engaged, delegated to the
    object machinery, or fell back on a verification miss.  The
    report entry carries the verification-miss ``fallback_rate`` as
    a first-class number (see ``docs/performance.md``), and the
    derived ``vector_coalesce_phase_speedup`` isolates the coalesce
    phase the kernel replaces.
``vector_hmc``
    ``vector_coalesce`` with the batched HMC back-end timing kernel
    (``repro.kernels.hmc``) enabled: the compiled flat-frame service
    path replaces the scalar device call tree per packet, with the
    accounting reconstructed in batch at finalize.  The other vector
    kinds pin the back end *off* so their numbers keep measuring the
    pre-HMC-kernel engine; compare ``vector_hmc`` against
    ``vector_coalesce`` for the residual-HMC-portion effect
    (``vector_hmc_phase_speedup`` isolates the coalesce phase) and
    against ``trace_replay`` for the full object-vs-vector gap
    (``vector_hmc_speedup``).  The kernel-counter snapshot covers both
    the coalescing kernel and the HMC back end, and the report entry
    carries an ``hmc_portion_speedup`` microbenchmark: the run's
    packet demographics replayed through the object service chain vs
    the batched service path, best-of-N, on a fresh device each --
    the direct measure of the scalar phase this kernel replaces.
``sorter_scale`` / ``sorter_scale_object``
    Replay from a warm trace store with the case's ``sorter_width`` /
    ``sorter_arch`` overriding the figure config -- the wide-sorter
    design-space axis.  ``sorter_scale`` runs the vector engine
    (one ``sequence_permutation`` per flush: a C ``sorted`` call on
    distinct keys, the comparator walk on repeated ones),
    ``sorter_scale_object`` the object comparator walk whose per-flush
    cost grows as O(n log^2 n).  Both
    pin the batched HMC back end off so the pair isolates the sort
    machinery; the derived ``sorter_scale_speedup`` (wall) and
    ``sorter_scale_phase_speedup`` (coalesce phase) per width are the
    scaling-acceptance numbers -- the vector engine must keep the wide
    window from becoming the replay Amdahl ceiling.
``sweep_throughput``
    A full 24-cell mini-sweep through :func:`repro.sim.sweep.run_sweep`
    with the persistent worker pool, at the case's ``jobs`` count,
    against one shared on-disk trace store seeded before measurement.
    The report entry carries ``cells`` and ``cells_per_second``.  The
    composite digest chains every cell's result digest, so the gate
    also pins the pool's bit-exactness at each worker count.

All vector kinds pin their object twins to ``engine="object"`` so the
pair always measures object-vs-vector regardless of the session default,
and all report the same result digest as their twin -- the report is a
bit-exactness witness for the kernel engine too.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Kinds whose measurement covers more than one simulation run.
COMPOSITE_KINDS = (
    "pair_live",
    "pair_shared_trace",
    "sweep_live",
    "sweep_shared",
    "sweep_throughput",
)

#: Kinds that run a whole sweep through an executor; their cases carry
#: a nonzero ``jobs`` and report cells/second.
SWEEP_KINDS = ("sweep_throughput",)

#: Kinds measured under the vector kernel engine; each has an
#: object-engine twin kind it derives a speedup against.
VECTOR_KINDS = (
    "vector_capture",
    "vector_replay",
    "vector_coalesce",
    "vector_hmc",
)

#: The wide-sorter design-space kinds; their cases carry a
#: ``sorter_width`` (and usually a ``sorter_arch``) overriding the
#: figure config's sorter.
SORTER_KINDS = ("sorter_scale", "sorter_scale_object")

#: Every kind :func:`repro.perf.harness.run_case` can measure.
CASE_KINDS = (
    ("sim", "trace_capture", "trace_replay")
    + VECTOR_KINDS
    + SORTER_KINDS
    + COMPOSITE_KINDS
)


@dataclass(frozen=True, slots=True)
class PerfCase:
    """One measured workload: benchmark x config x trace length x kind."""

    benchmark: str
    config: str  # a FIGURE_CONFIGS key: uncoalesced/mshr_only/dmc_only/combined
    accesses: int
    seed: int = 0
    kind: str = "sim"
    #: Worker count for the sweep kinds; 0 for every other kind (the
    #: field then never appears in reports, keeping old baselines
    #: comparable).
    jobs: int = 0
    #: Sorter override for the ``sorter_scale`` kinds; 0 / "" on every
    #: other kind (then never serialized, keeping old baselines
    #: comparable).
    sorter_width: int = 0
    sorter_arch: str = ""

    def __post_init__(self) -> None:
        if self.kind not in CASE_KINDS:
            raise ValueError(
                f"unknown perf case kind {self.kind!r}; options: "
                + ", ".join(CASE_KINDS)
            )
        if self.jobs and self.kind not in SWEEP_KINDS:
            raise ValueError(
                f"jobs= only applies to sweep kinds {SWEEP_KINDS}, "
                f"not {self.kind!r}"
            )
        if self.kind in SORTER_KINDS:
            if not self.sorter_width:
                raise ValueError(
                    f"{self.kind} cases need an explicit sorter_width"
                )
        elif self.sorter_width or self.sorter_arch:
            raise ValueError(
                f"sorter_width/sorter_arch only apply to {SORTER_KINDS}, "
                f"not {self.kind!r}"
            )

    @property
    def name(self) -> str:
        base = f"{self.benchmark}/{self.config}@{self.accesses}"
        if self.jobs:
            base += f"/j{self.jobs}"
        if self.sorter_width:
            base += f"/w{self.sorter_width}"
        if self.sorter_arch:
            base += f"/{self.sorter_arch}"
        return base if self.kind == "sim" else f"{self.kind}:{base}"


SMOKE_SUITE: tuple[PerfCase, ...] = (
    PerfCase("SG", "combined", 6_000),
    PerfCase("FT", "combined", 6_000),
    PerfCase("MG", "uncoalesced", 6_000),
    PerfCase("MG", "uncoalesced", 6_000, kind="vector_hmc"),
    PerfCase("SG", "mshr_only", 6_000, kind="vector_hmc"),
)

TRACE_SUITE: tuple[PerfCase, ...] = (
    # SparseLU is the front-end-dominated case (lowest LLC miss
    # fraction of the workload set), so it shows the trace layer's
    # best-case economics; SG is the back-end stress case bounding the
    # worst case.  STREAM carries the sweep pair: short runs whose
    # 4-config grid amortizes one capture furthest.  The vector kinds
    # mirror their object twins on both workloads so the engine
    # speedups (and their per-phase ratios) read straight off one
    # report.
    PerfCase("SparseLU", "combined", 6_000),
    PerfCase("SparseLU", "combined", 6_000, kind="trace_capture"),
    PerfCase("SparseLU", "combined", 6_000, kind="trace_replay"),
    PerfCase("SparseLU", "combined", 6_000, kind="vector_capture"),
    PerfCase("SG", "combined", 6_000),
    PerfCase("SG", "combined", 6_000, kind="trace_capture"),
    PerfCase("SG", "combined", 6_000, kind="trace_replay"),
    PerfCase("SG", "combined", 6_000, kind="vector_capture"),
    PerfCase("SG", "combined", 6_000, kind="vector_replay"),
    PerfCase("SparseLU", "combined", 6_000, kind="vector_replay"),
    PerfCase("SG", "combined", 6_000, kind="vector_coalesce"),
    PerfCase("SparseLU", "combined", 6_000, kind="vector_coalesce"),
    PerfCase("SG", "combined", 6_000, kind="vector_hmc"),
    PerfCase("SparseLU", "combined", 6_000, kind="vector_hmc"),
    PerfCase("SparseLU", "combined", 6_000, kind="pair_live"),
    PerfCase("SparseLU", "combined", 6_000, kind="pair_shared_trace"),
    PerfCase("STREAM", "combined", 6_000, kind="sweep_live"),
    PerfCase("STREAM", "combined", 6_000, kind="sweep_shared"),
)

FULL_SUITE: tuple[PerfCase, ...] = SMOKE_SUITE + (
    PerfCase("SG", "mshr_only", 6_000),
    PerfCase("SG", "uncoalesced", 6_000),
    PerfCase("HPCG", "combined", 6_000),
    PerfCase("STREAM", "combined", 6_000),
    PerfCase("CG", "combined", 6_000),
    PerfCase("SG", "combined", 12_000),
)

SWEEP_SUITE: tuple[PerfCase, ...] = (
    # The "benchmark" label names the grid, not a workload: every case
    # runs the same 24-cell mini-sweep (see
    # ``repro.perf.harness.SWEEP_BENCHMARKS`` x the 4 figure configs),
    # so the two cases differ only in worker count.
    PerfCase("GRID24", "combined", 600, kind="sweep_throughput", jobs=1),
    PerfCase("GRID24", "combined", 600, kind="sweep_throughput", jobs=4),
)

#: The wide-sorter scaling grid: object/vector twins at each design
#: point.  SG/combined keeps every width's window full (scatter-gather
#: floods the front buffer), so the pair measures the sort machinery
#: at its occupancy ceiling; n=64 single-phase is the ROADMAP
#: acceptance point (vector-over-object >= 3x), n=128 two-phase the
#: scaling extreme.
SORTER_SUITE: tuple[PerfCase, ...] = tuple(
    PerfCase(
        "SG",
        "combined",
        6_000,
        kind=kind,
        sorter_width=width,
        sorter_arch=arch,
    )
    for width, arch in (
        (32, "single_phase"),
        (64, "single_phase"),
        (64, "two_phase"),
        (128, "two_phase"),
    )
    for kind in ("sorter_scale_object", "sorter_scale")
)

SUITES: dict[str, tuple[PerfCase, ...]] = {
    "smoke": SMOKE_SUITE,
    "trace": TRACE_SUITE,
    "full": FULL_SUITE,
    "sweep": SWEEP_SUITE,
    "sorter": SORTER_SUITE,
}


def get_suite(name: str) -> tuple[PerfCase, ...]:
    """Look up a suite by name (``smoke``, ``trace``, ``full``,
    ``sweep`` or ``sorter``)."""
    try:
        return SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown perf suite {name!r}; options: {', '.join(SUITES)}"
        ) from None
