"""Dynamic Miss Status Holding Registers (Sections 3.2.3 and 3.5).

A conventional MSHR entry holds one outstanding cache-line miss plus
subentries recording which targets (register destinations / store
buffers) wait on it.  The paper extends each entry so that it can hold
a *coalesced* request of 1, 2 or 4 cache lines:

* a 2-bit **size** field: ``00`` = 64 B, ``01`` = 128 B, ``10`` = 256 B;
* a **T** bit giving the request type (load/store), placed in front of
  the address bits so merging compares a single 53-bit value;
* a 2-bit **line ID** per subentry so each target knows which of the
  entry's lines it waits on:
  ``subentry.addr = entry.addr + lineID * line_size`` (Equation 2).

Second-phase coalescing compares each CRQ request against all valid
entries simultaneously (the hardware comparators every MSHR file
already has):

* **case A** -- the request's lines are a subset of an entry's lines:
  the request merges entirely as subentries of that entry;
* **case B** -- a partial overlap: the overlapped lines merge as
  subentries, and the non-overlapping remainder is re-packed into new
  aligned packets that allocate fresh entries;
* otherwise a new entry is allocated (issuing one HMC request).
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field

from repro.core.config import CoalescerConfig
from repro.core.dmc import split_aligned_runs
from repro.core.request import CoalescedRequest, MemoryRequest, RequestType
from repro.obs import NULL_REGISTRY, MetricsRegistry


class InsertOutcome(enum.Enum):
    """Result of offering a coalesced request to the MSHR file."""

    #: Fully merged into an existing entry (case A); nothing to issue.
    MERGED = "merged"
    #: Partially merged; the returned remainder packets still need slots.
    PARTIAL = "partial"
    #: A fresh entry was allocated; one HMC request must be issued.
    ALLOCATED = "allocated"
    #: No free entry; the request must wait in the CRQ.
    FULL = "full"


@dataclass(slots=True)
class MSHRSubentry:
    """One waiting target inside an MSHR entry.

    ``line_id`` selects which of the entry's cache lines the target
    requested (Equation 2); ``request`` is the original line-granularity
    LLC miss carrying the target tokens.
    """

    line_id: int
    request: MemoryRequest

    def address_within(self, entry: "MSHREntry", line_size: int) -> int:
        """The cache-line address this subentry waits on (Equation 2)."""
        return entry.addr + self.line_id * line_size


@dataclass(slots=True)
class MSHREntry:
    """One dynamic MSHR entry holding a coalesced outstanding miss."""

    index: int
    valid: bool = False
    addr: int = 0
    num_lines: int = 1
    rtype: RequestType = RequestType.LOAD
    subentries: list[MSHRSubentry] = field(default_factory=list)
    issue_cycle: int = 0
    complete_cycle: int = 0

    @property
    def size_field(self) -> int:
        """The size encoding (00=64 B, 01=128 B, 10=256 B, 11=512 B)."""
        return {1: 0b00, 2: 0b01, 4: 0b10, 8: 0b11}[self.num_lines]

    @property
    def t_bit(self) -> int:
        """The request-type bit stored ahead of the address bits."""
        return 1 if self.rtype is RequestType.STORE else 0

    def base_line(self, line_size: int) -> int:
        """First cache-line number covered by this entry."""
        return self.addr // line_size

    def covers_line(self, line: int, line_size: int) -> bool:
        base = self.addr // line_size
        return base <= line < base + self.num_lines

    def line_id_of(self, line: int, line_size: int) -> int:
        """Line ID (0..3, or 0..7 with future scaling) of an absolute
        line number within this entry."""
        base = self.addr // line_size
        if not base <= line < base + self.num_lines:
            raise ValueError(f"line {line} outside entry {base}+{self.num_lines}")
        return line - base


@dataclass(slots=True)
class MSHRStats:
    """Aggregate counters for the dynamic MSHR file."""

    offered: int = 0
    allocated: int = 0
    merged_full: int = 0
    merged_partial: int = 0
    rejected_full: int = 0
    completions: int = 0
    subentries_added: int = 0
    remainder_packets: int = 0

    @property
    def requests_eliminated(self) -> int:
        """HMC requests avoided by second-phase coalescing.

        A full merge (case A) eliminates one would-be HMC request; a
        partial merge (case B) eliminates one but re-issues its
        remainder packets.
        """
        return (
            self.merged_full
            + self.merged_partial
            - self.remainder_packets
        )


class DynamicMSHRFile:
    """The file of dynamic MSHR entries with second-phase coalescing.

    The hardware compares an offered request against *all* valid
    entries simultaneously; the software model keeps that O(1)-ish by
    maintaining a ``(type bit, cache line) -> entries`` hash index
    updated on allocate/retire, so an offer costs one dict lookup per
    request line instead of a scan that rebuilds every entry's line
    set.  Occupancy is tracked with incremental counters and a min-heap
    free list (preserving the hardware's lowest-index-first allocation
    order), and completion scans are skipped entirely until the
    earliest outstanding ``complete_cycle`` is reached.

    :class:`repro.core.mshr_reference.ReferenceMSHRFile` retains the
    original linear-scan implementation; the differential tests and
    ``scripts/check_perf_parity.py`` assert both produce bit-identical
    outcomes, stats and metrics.
    """

    def __init__(
        self, config: CoalescerConfig, registry: MetricsRegistry | None = None
    ):
        self.config = config
        self.entries = [MSHREntry(index=i) for i in range(config.num_mshrs)]
        self.stats = MSHRStats()
        self.registry = registry if registry is not None else NULL_REGISTRY
        self._line_size = config.line_size
        #: Invalid entry indices; a min-heap so allocation picks the
        #: lowest-index free entry, exactly like the original scan.
        self._free_heap: list[int] = list(range(config.num_mshrs))
        self._valid_count = 0
        #: min/max ``complete_cycle`` over valid entries (meaningless
        #: while ``_valid_count`` is 0); refreshed on retire.
        self._next_complete = 0
        self._last_complete = 0
        #: ``(t_bit_value, absolute line) -> valid entries covering it``.
        #: A list, not a single entry: ``allocate_direct`` (bypass) and
        #: coalescing-disabled files may legitimately hold several
        #: same-type entries covering one line.
        self._line_index: dict[tuple[int, int], list[MSHREntry]] = {}
        #: Bumped on every successful allocation.  Entries never gain
        #: lines after allocation (merges only add subentries inside an
        #: entry's fixed span), so a request that found no overlap at
        #: generation G cannot overlap anything until G advances -- the
        #: coalescer's merge-while-full pass keys its skip logic on this.
        self.alloc_gen = 0
        # Histogram tallies (value -> observations), written out by
        # :meth:`publish_metrics`: occupancy at each offer and the
        # subentry count of each retired entry.
        self._occupancy_counts: dict[int, int] = {}
        self._entry_subentry_counts: dict[int, int] = {}

    # -- shared stat recording (also used by the coalescer's merge-only
    # pass, which manipulates entries without going through offer()) ---------

    def record_offer(self) -> None:
        self.stats.offered += 1
        occupancy = self.occupancy()
        tally = self._occupancy_counts
        tally[occupancy] = tally.get(occupancy, 0) + 1

    def record_outcome(self, case: str) -> None:
        """Count one offer outcome: merged_full (case A), merged_partial
        (case B), allocated (case C) or rejected_full."""
        if case == "merged_full":
            self.stats.merged_full += 1
        elif case == "merged_partial":
            self.stats.merged_partial += 1
        elif case == "allocated":
            self.stats.allocated += 1
        elif case == "rejected_full":
            self.stats.rejected_full += 1
        else:
            raise ValueError(f"unknown MSHR outcome {case!r}")

    def record_remainders(self, count: int) -> None:
        self.stats.remainder_packets += count

    def record_subentries(self, count: int) -> None:
        self.stats.subentries_added += count

    def record_completion(self, subentries: int) -> None:
        """Count one retired entry that held ``subentries`` targets."""
        self.stats.completions += 1
        tally = self._entry_subentry_counts
        tally[subentries] = tally.get(subentries, 0) + 1

    def publish_metrics(self) -> None:
        """Write the run's MSHR series into the registry (once per run)."""
        registry = self.registry
        stats = self.stats
        offers = registry.counter(
            "mshr_offers_total", help="Requests offered to the MSHR file"
        )
        if stats.offered:
            offers.inc(stats.offered)
        outcomes = registry.counter(
            "mshr_outcomes_total",
            help="Offer outcomes: case A (merged_full), case B (merged_partial), "
            "case C (allocated), or rejected_full",
        )
        for case in ("merged_full", "merged_partial", "allocated", "rejected_full"):
            count = getattr(stats, case)
            if count:
                outcomes.inc(count, case=case)
        for name, help, total in (
            ("mshr_subentries_total", "Targets attached as subentries",
             stats.subentries_added),
            ("mshr_remainder_packets_total",
             "Re-packed packets produced by case-B splits",
             stats.remainder_packets),
            ("mshr_completions_total", "Entries freed by HMC responses",
             stats.completions),
        ):
            counter = registry.counter(name, help=help)
            if total:
                counter.inc(total)
        registry.histogram(
            "mshr_occupancy",
            buckets=(0, 2, 4, 8, 16, 32),
            help="Valid entries at each offer (subentry pressure context)",
            unit="entries",
        ).observe_counts(self._occupancy_counts)
        registry.histogram(
            "mshr_entry_subentries",
            buckets=(1, 2, 4, 8, 16, 32),
            help="Subentries per entry at completion (subentry pressure)",
            unit="subentries",
        ).observe_counts(self._entry_subentry_counts)

    # -- occupancy ---------------------------------------------------------

    def free_entries(self) -> int:
        """Number of invalid (available) entries."""
        return len(self._free_heap)

    @property
    def has_free_entry(self) -> bool:
        return bool(self._free_heap)

    @property
    def all_idle(self) -> bool:
        """True when no entry is in use (bypass condition, Section 4.2)."""
        return not self._valid_count

    def occupancy(self) -> int:
        return self._valid_count

    def earliest_completion(self, default: int) -> int:
        """Smallest ``complete_cycle`` among valid entries (O(1))."""
        return self._next_complete if self._valid_count else default

    def latest_completion(self, default: int) -> int:
        """Largest ``complete_cycle`` among valid entries (O(1))."""
        return self._last_complete if self._valid_count else default

    # -- completion ----------------------------------------------------------

    def pop_completions(self, cycle: int) -> list[MSHREntry]:
        """Free every entry whose HMC response has arrived by ``cycle``.

        Returns snapshots of the freed entries so callers can notify
        the waiting targets recorded in the subentries.  Exits without
        scanning while the file is idle or nothing has completed yet.
        """
        if not self._valid_count or cycle < self._next_complete:
            return []
        done: list[MSHREntry] = []
        for entry in self.entries:
            if entry.valid and entry.complete_cycle <= cycle:
                done.append(
                    MSHREntry(
                        index=entry.index,
                        valid=True,
                        addr=entry.addr,
                        num_lines=entry.num_lines,
                        rtype=entry.rtype,
                        subentries=list(entry.subentries),
                        issue_cycle=entry.issue_cycle,
                        complete_cycle=entry.complete_cycle,
                    )
                )
                self._retire(entry)
                self.record_completion(len(entry.subentries))
                entry.subentries = []
        if done:
            self._refresh_completion_bounds()
        return done

    def _retire(self, entry: MSHREntry) -> None:
        """Invalidate an entry and unwind the fast-path bookkeeping."""
        entry.valid = False
        self._valid_count -= 1
        heapq.heappush(self._free_heap, entry.index)
        index = self._line_index
        t = int(entry.rtype)
        base = entry.addr // self._line_size
        for line in range(base, base + entry.num_lines):
            bucket = index.get((t, line))
            if bucket is not None:
                try:
                    bucket.remove(entry)
                except ValueError:
                    pass
                if not bucket:
                    del index[(t, line)]

    def _refresh_completion_bounds(self) -> None:
        """Recompute min/max ``complete_cycle`` after retirements."""
        lo = hi = None
        for entry in self.entries:
            if entry.valid:
                cc = entry.complete_cycle
                if lo is None or cc < lo:
                    lo = cc
                if hi is None or cc > hi:
                    hi = cc
        if lo is not None:
            self._next_complete = lo
            self._last_complete = hi

    # -- second-phase coalescing ----------------------------------------------

    def offer(
        self, request: CoalescedRequest, cycle: int, service_cycles
    ) -> tuple[InsertOutcome, list[CoalescedRequest], "MSHREntry | None"]:
        """Offer one coalesced request to the file.

        ``service_cycles`` is the modelled HMC round-trip for a request
        of this size (an int, or a zero-argument callable evaluated
        lazily so a backing device model is only consulted when the
        request is actually issued), used to schedule the entry's
        completion when a new entry is allocated.

        Returns ``(outcome, remainder, entry)``: for
        :attr:`InsertOutcome.PARTIAL` the remainder packets must be
        offered again (keeping their CRQ position); for
        :attr:`InsertOutcome.ALLOCATED` ``entry`` is the fresh entry
        whose HMC request the caller must issue.
        """
        self.record_offer()

        if self.config.enable_mshr_coalescing and self._valid_count:
            # Simultaneous compare against all valid entries of the
            # same type (the T bit participates in the comparison);
            # modelled as one hash lookup per request line.
            overlaps = self._find_overlaps(request)
            if overlaps:
                covered: set[int] = set()
                for entry, common in overlaps:
                    self._merge_lines(entry, request, common)
                    covered |= common
                remainder = sorted(set(request.lines) - covered)
                if not remainder:
                    self.record_outcome("merged_full")
                    return InsertOutcome.MERGED, [], None
                self.record_outcome("merged_partial")
                rest = self._repack(request, remainder)
                self.record_remainders(len(rest))
                return InsertOutcome.PARTIAL, rest, None

        entry = self._allocate(request, cycle, service_cycles)
        if entry is None:
            self.record_outcome("rejected_full")
            return InsertOutcome.FULL, [], None
        return InsertOutcome.ALLOCATED, [], entry

    def merge_only(
        self, request: CoalescedRequest
    ) -> tuple[InsertOutcome, list[CoalescedRequest]]:
        """Second-phase merge attempt that never allocates an entry.

        Used by the coalescer's merge-while-full pass to re-check CRQ
        residents against entries allocated after them.  Returns
        ``(FULL, [])`` when nothing overlaps (the request keeps
        waiting), ``(MERGED, [])`` on a full merge, or
        ``(PARTIAL, rest)`` with the re-packed remainder packets.
        """
        if not self._valid_count:
            return InsertOutcome.FULL, []
        overlaps = self._find_overlaps(request)
        if not overlaps:
            return InsertOutcome.FULL, []
        self.record_offer()
        covered: set[int] = set()
        for entry, common in overlaps:
            self._merge_lines(entry, request, common)
            covered |= common
        remainder = sorted(set(request.lines) - covered)
        if not remainder:
            self.record_outcome("merged_full")
            return InsertOutcome.MERGED, []
        self.record_outcome("merged_partial")
        rest = self._repack(request, remainder)
        self.record_remainders(len(rest))
        return InsertOutcome.PARTIAL, rest

    def _find_overlaps(
        self, request: CoalescedRequest
    ) -> list[tuple[MSHREntry, set[int]]]:
        """Valid same-type entries sharing lines with ``request``.

        Returned in ascending entry-index order with each entry's set of
        common lines, matching the order the historical linear scan
        visited them in.
        """
        index = self._line_index
        t = int(request.rtype)
        by_entry: dict[int, tuple[MSHREntry, set[int]]] = {}
        for line in request.lines:
            bucket = index.get((t, line))
            if bucket is None:
                continue
            for entry in bucket:
                hit = by_entry.get(entry.index)
                if hit is None:
                    by_entry[entry.index] = (entry, {line})
                else:
                    hit[1].add(line)
        if len(by_entry) > 1:
            return [by_entry[i] for i in sorted(by_entry)]
        return list(by_entry.values())

    def allocate_direct(
        self, request: CoalescedRequest, cycle: int, service_cycles
    ) -> MSHREntry | None:
        """Allocate without attempting any merge (bypass path)."""
        self.record_offer()
        entry = self._allocate(request, cycle, service_cycles)
        if entry is None:
            self.record_outcome("rejected_full")
        return entry

    # -- internals ----------------------------------------------------------

    def _merge_lines(
        self, entry: MSHREntry, request: CoalescedRequest, lines: set[int]
    ) -> None:
        """Attach the request's targets for ``lines`` as subentries."""
        base = entry.addr // self._line_size
        subentries = entry.subentries
        added = 0
        for req in request.constituents:
            if req.line in lines:
                subentries.append(
                    MSHRSubentry(line_id=req.line - base, request=req)
                )
                added += 1
        if added:
            self.record_subentries(added)

    def _repack(
        self, request: CoalescedRequest, lines: list[int]
    ) -> list[CoalescedRequest]:
        """Re-pack leftover lines of a case-B split into aligned packets."""
        chunks = split_aligned_runs(lines, self.config.max_packet_lines)
        by_line: dict[int, list[MemoryRequest]] = {}
        for req in request.constituents:
            by_line.setdefault(req.line, []).append(req)
        packets = []
        for base, num in chunks:
            members: list[MemoryRequest] = []
            for ln in range(base, base + num):
                members.extend(by_line.get(ln, ()))
            packets.append(
                CoalescedRequest(
                    addr=base * self.config.line_size,
                    num_lines=num,
                    rtype=request.rtype,
                    constituents=members,
                    issue_cycle=request.issue_cycle,
                )
            )
        return packets

    def _allocate(
        self, request: CoalescedRequest, cycle: int, service_cycles
    ) -> MSHREntry | None:
        if not self._free_heap:
            return None
        if callable(service_cycles):
            service_cycles = service_cycles()
        entry = self.entries[heapq.heappop(self._free_heap)]
        entry.valid = True
        entry.addr = request.addr
        entry.num_lines = request.num_lines
        entry.rtype = request.rtype
        base = request.addr // self._line_size
        num_lines = request.num_lines
        subentries = []
        for req in request.constituents:
            line_id = req.line - base
            if not 0 <= line_id < num_lines:
                raise ValueError(
                    f"line {req.line} outside entry {base}+{num_lines}"
                )
            subentries.append(MSHRSubentry(line_id=line_id, request=req))
        entry.subentries = subentries
        entry.issue_cycle = cycle
        complete = cycle + service_cycles
        entry.complete_cycle = complete
        if self._valid_count:
            if complete < self._next_complete:
                self._next_complete = complete
            if complete > self._last_complete:
                self._last_complete = complete
        else:
            self._next_complete = complete
            self._last_complete = complete
        self._valid_count += 1
        index = self._line_index
        t = int(request.rtype)
        for line in range(base, base + num_lines):
            bucket = index.get((t, line))
            if bucket is None:
                index[(t, line)] = [entry]
            else:
                bucket.append(entry)
        self.record_outcome("allocated")
        self.record_subentries(len(subentries))
        self.alloc_gen += 1
        return entry
