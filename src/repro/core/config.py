"""Configuration of the memory coalescer.

All timing constants default to the values the paper evaluates with:
a 3.3 GHz clock, 2-cycle comparator operations, a 16-wide sorting
network pipelined into 4 stages, 16 MSHRs, a CRQ as deep as the MSHR
file, and HMC 2.1 packet granularities up to 256 B.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.address import CACHE_LINE_SIZE
from repro.core.sorting import SORTER_ARCHITECTURES
from repro.errors import ConfigError


@dataclass(frozen=True, slots=True)
class CoalescerConfig:
    """Static parameters of the two-phase memory coalescer.

    Attributes
    ----------
    sorter_width:
        Number of requests ``n`` sorted per sequence; must be a power
        of two (the paper uses 16; the wide-sorter study sweeps up to
        128).
    sorter_arch:
        Physical organisation of the sorting network (see
        :mod:`repro.core.sorting`): ``"single_phase"`` is the paper's
        monolithic Batcher network at any width; ``"two_phase"`` is a
        TopSort-style design where one time-multiplexed presorter
        produces k runs of m = min(16, n/2) elements that feed an
        odd-even merge tree.  Both sort identically (the functional
        comparator schedule is shared); they differ in hardware cost
        and in sort latency / initiation interval.  ``"two_phase"``
        needs ``sorter_width >= 4``.
    pipeline_stages:
        Either ``"merge"`` for the space-optimized pipeline whose
        stages follow the odd-even mergesort merge phases (4 stages at
        n=16; Section 4.1) or ``"step"`` for the latency-optimal
        one-step-per-stage pipeline (10 stages at n=16).
    timeout_cycles:
        Maximum cycles the front buffer waits for a full sequence
        before padding with invalid requests and launching the sort
        (Section 3.3; swept 16-28 in Figure 14).
    num_mshrs:
        Number of dynamic MSHR entries (paper: 16).
    mshr_subentries:
        Subentries (targets) per MSHR entry in the modelled hardware.
        Part of the platform digest, but not modelled: no engine reads
        it, and an entry takes every target that merges into it.  In
        the ``combined`` figure grid at 6,000 accesses, entries retire
        with up to 16 subentries (HPCG), against the default of 8.
    crq_depth:
        Depth of the coalesced request queue.  The paper sets it equal
        to the number of MSHRs; ``0`` means "same as num_mshrs".
    max_packet_bytes:
        Largest HMC request packet the DMC unit may build (HMC 2.1
        supports up to 256 B; 512 B models the future-generation
        scaling the paper sketches, with 3-bit line IDs).
    line_size:
        Cache line size in bytes.
    clock_ghz:
        Coalescer clock rate used to convert cycles to nanoseconds.
    compare_cycles:
        Latency of one comparator operation (compare or exchange/merge).
        The paper models both compare and merge as 2 clock cycles.
    stage_select_enabled:
        Whether the stage-select optimization (skipping late sorting
        stages for short sequences, and bypassing the coalescer when
        MSHRs are idle) is active.
    enable_dmc:
        Enable first-phase (DMC unit) coalescing.
    enable_mshr_coalescing:
        Enable second-phase (dynamic MSHR) coalescing.  Disabling both
        phases yields the uncoalesced baseline; enabling only
        ``enable_mshr_coalescing`` models the conventional MSHR-based
        coalescer the paper compares against.
    adaptive_granularity:
        Extension beyond the paper: when a single-line packet's
        actually-requested data is below the line size, issue the
        smallest sufficient FLIT-multiple payload (16-64 B) instead of
        the full 64 B line.  The HMC interface natively supports 16 B+
        requests, and adaptive-granularity memory systems (Yoon et
        al. [40], cited in the paper's related work) motivate exactly
        this; it recovers bandwidth efficiency on sparse workloads the
        coalescer cannot help.
    """

    sorter_width: int = 16
    sorter_arch: str = "single_phase"
    pipeline_stages: str = "merge"
    timeout_cycles: int = 20
    num_mshrs: int = 16
    mshr_subentries: int = 8
    crq_depth: int = 0
    max_packet_bytes: int = 256
    line_size: int = CACHE_LINE_SIZE
    clock_ghz: float = 3.3
    compare_cycles: int = 2
    stage_select_enabled: bool = True
    enable_dmc: bool = True
    enable_mshr_coalescing: bool = True
    adaptive_granularity: bool = False

    def __post_init__(self) -> None:
        if self.sorter_width < 2 or self.sorter_width & (self.sorter_width - 1):
            raise ConfigError(
                f"sorter_width must be a power of two >= 2, "
                f"got {self.sorter_width}"
            )
        if self.sorter_arch not in SORTER_ARCHITECTURES:
            raise ConfigError(
                f"sorter_arch must be one of {SORTER_ARCHITECTURES}, "
                f"got {self.sorter_arch!r}"
            )
        if self.sorter_arch == "two_phase" and self.sorter_width < 4:
            raise ConfigError(
                "two_phase needs sorter_width >= 4 "
                "(presorted runs must be >= 2 wide)"
            )
        if self.pipeline_stages not in ("merge", "step"):
            raise ConfigError("pipeline_stages must be 'merge' or 'step'")
        if self.num_mshrs <= 0:
            raise ConfigError("num_mshrs must be positive")
        if self.max_packet_bytes % self.line_size:
            raise ConfigError("max_packet_bytes must be a multiple of line_size")
        if self.max_packet_bytes // self.line_size not in (1, 2, 4, 8):
            raise ConfigError(
                "max_packet_bytes must be 1, 2 or 4 cache lines (HMC 2.1) "
                "or 8 lines (future-generation scaling, Section 3.2.3)"
            )
        if self.timeout_cycles < 0:
            raise ConfigError("timeout_cycles must be non-negative")
        if self.clock_ghz <= 0:
            raise ConfigError("clock_ghz must be positive")

    @property
    def effective_crq_depth(self) -> int:
        """CRQ depth, defaulting to the MSHR count per the paper."""
        return self.crq_depth if self.crq_depth > 0 else self.num_mshrs

    @property
    def max_packet_lines(self) -> int:
        """Maximum coalesced request size in cache lines."""
        return self.max_packet_bytes // self.line_size

    @property
    def cycle_ns(self) -> float:
        """Duration of one coalescer clock cycle in nanoseconds."""
        return 1.0 / self.clock_ghz

    def cycles_to_ns(self, cycles: float) -> float:
        """Convert a cycle count to nanoseconds at the configured clock."""
        return cycles * self.cycle_ns


#: Configuration matching the paper's evaluation platform (Section 5.2).
PAPER_CONFIG = CoalescerConfig()

#: Conventional MSHR-based coalescing only (the paper's baseline DMC).
MSHR_ONLY_CONFIG = CoalescerConfig(enable_dmc=False, enable_mshr_coalescing=True)

#: First-phase (DMC unit) coalescing only.
DMC_ONLY_CONFIG = CoalescerConfig(enable_dmc=True, enable_mshr_coalescing=False)

#: No coalescing at all: every LLC miss becomes one 64 B HMC request.
UNCOALESCED_CONFIG = CoalescerConfig(enable_dmc=False, enable_mshr_coalescing=False)
