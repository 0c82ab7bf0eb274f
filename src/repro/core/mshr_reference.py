"""Reference (pre-optimization) dynamic MSHR file.

This module retains the original linear-scan implementation of
:class:`repro.core.mshr.DynamicMSHRFile` verbatim: every offer scans
all entries and rebuilds their line sets, occupancy questions sweep the
whole file, and completions are checked entry by entry each cycle.

It exists purely as an executable specification.  The differential
tests (``tests/core/test_mshr_differential.py``) and
``scripts/check_perf_parity.py`` run it side by side with the indexed
fast path and assert bit-identical :class:`InsertOutcome` sequences,
subentries, stats and metrics.  Swap it into a coalescer with::

    MemoryCoalescer(config, mshr_factory=ReferenceMSHRFile)

Do not "optimize" this file; its slowness is the point.
"""

from __future__ import annotations

from repro.core.mshr import (
    DynamicMSHRFile,
    InsertOutcome,
    MSHREntry,
    MSHRSubentry,
)
from repro.core.request import CoalescedRequest


class ReferenceMSHRFile(DynamicMSHRFile):
    """Linear-scan MSHR file: the behavioural baseline for parity."""

    # -- occupancy (O(n) sweeps, as originally written) ---------------------

    def free_entries(self) -> int:
        return sum(1 for e in self.entries if not e.valid)

    @property
    def has_free_entry(self) -> bool:
        return any(not e.valid for e in self.entries)

    @property
    def all_idle(self) -> bool:
        return all(not e.valid for e in self.entries)

    def occupancy(self) -> int:
        return sum(1 for e in self.entries if e.valid)

    def earliest_completion(self, default: int) -> int:
        return min(
            (e.complete_cycle for e in self.entries if e.valid),
            default=default,
        )

    def latest_completion(self, default: int) -> int:
        return max(
            (e.complete_cycle for e in self.entries if e.valid),
            default=default,
        )

    # -- completion ---------------------------------------------------------

    def pop_completions(self, cycle: int) -> list[MSHREntry]:
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
                entry.valid = False
                self.record_completion(len(entry.subentries))
                entry.subentries = []
        return done

    # -- second-phase coalescing --------------------------------------------

    def offer(
        self, request: CoalescedRequest, cycle: int, service_cycles
    ) -> tuple[InsertOutcome, list[CoalescedRequest], "MSHREntry | None"]:
        self.record_offer()
        line_size = self.config.line_size
        req_lines = set(request.lines)

        if self.config.enable_mshr_coalescing:
            overlaps: list[tuple[MSHREntry, set[int]]] = []
            for entry in self.entries:
                if not entry.valid or entry.rtype is not request.rtype:
                    continue
                entry_base = entry.base_line(line_size)
                entry_lines = {entry_base + k for k in range(entry.num_lines)}
                common = req_lines & entry_lines
                if common:
                    overlaps.append((entry, common))

            if overlaps:
                covered: set[int] = set()
                for entry, common in overlaps:
                    self._merge_lines(entry, request, common)
                    covered |= common
                remainder = sorted(req_lines - covered)
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
        req_lines = set(request.lines)
        overlaps: list[tuple[MSHREntry, set[int]]] = []
        for entry in self.entries:
            if not entry.valid or entry.rtype is not request.rtype:
                continue
            base = entry.base_line(self.config.line_size)
            entry_lines = {base + k for k in range(entry.num_lines)}
            common = req_lines & entry_lines
            if common:
                overlaps.append((entry, common))
        if not overlaps:
            return InsertOutcome.FULL, []
        self.record_offer()
        covered: set[int] = set()
        for entry, common in overlaps:
            self._merge_lines(entry, request, common)
            covered |= common
        remainder = sorted(req_lines - covered)
        if not remainder:
            self.record_outcome("merged_full")
            return InsertOutcome.MERGED, []
        self.record_outcome("merged_partial")
        rest = self._repack(request, remainder)
        self.record_remainders(len(rest))
        return InsertOutcome.PARTIAL, rest

    # -- internals ----------------------------------------------------------

    def _merge_lines(
        self, entry: MSHREntry, request: CoalescedRequest, lines: set[int]
    ) -> None:
        line_size = self.config.line_size
        for req in request.constituents:
            if req.line in lines:
                entry.subentries.append(
                    MSHRSubentry(
                        line_id=entry.line_id_of(req.line, line_size),
                        request=req,
                    )
                )
                self.record_subentries(1)

    def _allocate(
        self, request: CoalescedRequest, cycle: int, service_cycles
    ) -> MSHREntry | None:
        for entry in self.entries:
            if not entry.valid:
                if callable(service_cycles):
                    service_cycles = service_cycles()
                entry.valid = True
                entry.addr = request.addr
                entry.num_lines = request.num_lines
                entry.rtype = request.rtype
                entry.subentries = [
                    MSHRSubentry(
                        line_id=entry.line_id_of(req.line, self.config.line_size),
                        request=req,
                    )
                    for req in request.constituents
                ]
                entry.issue_cycle = cycle
                entry.complete_cycle = cycle + service_cycles
                self.record_outcome("allocated")
                self.record_subentries(len(entry.subentries))
                self.alloc_gen += 1
                return entry
        return None
