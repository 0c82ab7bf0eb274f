"""Dynamic Memory Coalescing (DMC) unit -- first-phase coalescing
(Sections 3.2.2, 3.5 and 4.2).

The DMC unit receives a *sorted* request sequence from the pipelined
sorting network and constructs large HMC request packets:

1. take the smallest request address as the *base*,
2. compare it simultaneously against all remaining requests,
3. merge every request whose address is identical or contiguous to the
   base -- as long as the accumulated size stays within the maximum
   HMC packet (256 B) -- into one coalesced request,
4. push the result into the coalesced request queue (CRQ) and repeat
   from the first unmerged request.

Because loads sort before stores on the extended key (Type bit 52),
a coalescing group can never mix request types: any store in the
sorted run begins a new group by construction, and the implementation
double-checks this invariant.

Packets are kept *naturally aligned*: a k-line packet starts on a
k-line boundary, so every packet falls inside one HMC 256 B block and
the 2-bit MSHR line-ID arithmetic of Equation 2 stays exact.

Timing model (Section 5.3.3): one simultaneous comparison per group and
one merge operation per absorbed request, each costing
``compare_cycles`` (2) clock cycles.  Highly coalescable sequences
therefore spend *more* time in the coalescing stage -- reproducing the
paper's observation that FT has both the best coalescing efficiency
and the slowest CRQ fill.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import CoalescerConfig
from repro.core.request import CoalescedRequest, MemoryRequest
from repro.obs import NULL_REGISTRY, MetricsRegistry


@dataclass(slots=True)
class DMCStats:
    """Aggregate counters for the DMC unit."""

    sequences: int = 0
    requests_in: int = 0
    packets_out: int = 0
    comparisons: int = 0
    merges: int = 0
    total_latency_cycles: int = 0
    packets_by_lines: dict[int, int] | None = None

    def __post_init__(self) -> None:
        if self.packets_by_lines is None:
            self.packets_by_lines = {1: 0, 2: 0, 4: 0, 8: 0}

    @property
    def requests_eliminated(self) -> int:
        """Requests absorbed into larger packets by the first phase."""
        return self.requests_in - self.packets_out

    def mean_latency_cycles(self) -> float:
        """Average coalescing latency per sorted sequence."""
        return self.total_latency_cycles / self.sequences if self.sequences else 0.0


def split_aligned_runs(lines: list[int], max_lines: int) -> list[tuple[int, int]]:
    """Split sorted unique line numbers into naturally aligned chunks.

    Returns ``(base_line, num_lines)`` tuples with ``num_lines`` a
    power of two up to ``max_lines``, greedily choosing the largest
    aligned chunk that fits the contiguous run at each point.
    """
    if max_lines not in (1, 2, 4, 8):
        raise ValueError("max_lines must be 1, 2, 4 or 8")
    chunks: list[tuple[int, int]] = []
    i = 0
    n = len(lines)
    while i < n:
        # Length of the contiguous run starting at lines[i].
        run = 1
        while i + run < n and lines[i + run] == lines[i] + run:
            run += 1
        # Carve the run into aligned power-of-two chunks.
        pos = 0
        while pos < run:
            base = lines[i + pos]
            size = max_lines
            while size > 1 and (base % size or run - pos < size):
                size //= 2
            chunks.append((base, size))
            pos += size
        i += run
    return chunks


class DMCUnit:
    """First-phase coalescer turning sorted request runs into packets."""

    def __init__(
        self, config: CoalescerConfig, registry: MetricsRegistry | None = None
    ):
        self.config = config
        self.stats = DMCStats()
        self.registry = registry if registry is not None else NULL_REGISTRY
        #: Line distance of each absorbed request from its group base
        #: (value -> merges), written out by :meth:`publish_metrics`.
        self._merge_distance_counts: dict[int, int] = {}

    def coalesce(
        self, requests: list[MemoryRequest], start_cycle: int = 0
    ) -> tuple[list[CoalescedRequest], int]:
        """Coalesce one sorted request sequence.

        Parameters
        ----------
        requests:
            Valid requests in non-decreasing extended-key order, as
            produced by the sorting pipeline.
        start_cycle:
            Cycle at which the DMC unit starts on this sequence.

        Returns
        -------
        (packets, complete_cycle):
            The coalesced requests in FIFO order and the cycle at which
            the last one enters the CRQ.
        """
        stats = self.stats
        stats.sequences += 1
        stats.requests_in += len(requests)
        distances = self._merge_distance_counts

        packets: list[CoalescedRequest] = []
        latency = 0
        max_lines = self.config.max_packet_lines
        i = 0
        n = len(requests)
        while i < n:
            base_req = requests[i]
            rtype = base_req.rtype
            group = [base_req]
            group_lines = {base_req.line}
            # The HMC is configured with max-packet-sized block
            # addressing (256 B in the paper): a request packet may not
            # cross an aligned block boundary.
            base_block = base_req.line // max_lines
            # One simultaneous comparison of the base against the rest.
            latency += self.config.compare_cycles
            stats.comparisons += 1
            j = i + 1
            while j < n:
                nxt = requests[j]
                if nxt.rtype is not rtype:
                    break
                if nxt.line in group_lines:
                    pass  # identical line: always absorbable
                elif nxt.line == max(group_lines) + 1:
                    # Total distinct data must not exceed the maximum
                    # HMC packet size (Section 3.5) and the packet must
                    # stay inside one aligned HMC block.
                    if (
                        len(group_lines) >= max_lines
                        or nxt.line // max_lines != base_block
                    ):
                        break
                else:
                    break
                group.append(nxt)
                group_lines.add(nxt.line)
                latency += self.config.compare_cycles  # merge operation
                stats.merges += 1
                distance = nxt.line - base_req.line
                distances[distance] = distances.get(distance, 0) + 1
                j += 1

            if len(group) > 1:
                # The second DMC pipeline stage constructs the packet;
                # uncoalescable requests bypass it entirely (Section
                # 5.3.3 -- why FT's high coalescability slows its CRQ
                # fill while sparse workloads skip this stage).
                latency += self.config.compare_cycles
            packets.extend(self._emit(group, start_cycle + latency))
            i = j

        stats.packets_out += len(packets)
        for pkt in packets:
            stats.packets_by_lines[pkt.num_lines] += 1
        stats.total_latency_cycles += latency
        return packets, start_cycle + latency

    def publish_metrics(self) -> None:
        """Write the run's DMC series into the registry (once per run)."""
        registry = self.registry
        stats = self.stats
        # Every coalesced sequence increments these three, by zero too.
        for name, help, unit, total in (
            ("dmc_sequences_total", "Sorted sequences coalesced", "",
             stats.sequences),
            ("dmc_requests_in_total",
             "Requests entering first-phase coalescing", "",
             stats.requests_in),
            ("dmc_latency_cycles_total",
             "Cycles spent in first-phase coalescing", "cycles",
             stats.total_latency_cycles),
        ):
            counter = registry.counter(name, help=help, unit=unit)
            if stats.sequences:
                counter.inc(total)
        for name, help, total in (
            ("dmc_packets_out_total",
             "Coalesced packets emitted into the CRQ", stats.packets_out),
            ("dmc_comparisons_total",
             "Simultaneous base-vs-rest comparisons (one per group)",
             stats.comparisons),
            ("dmc_merges_total",
             "Requests absorbed into a coalescing group", stats.merges),
        ):
            counter = registry.counter(name, help=help)
            if total:
                counter.inc(total)
        registry.histogram(
            "dmc_packet_lines",
            buckets=(1, 2, 4, 8),
            help="Emitted packet size in cache lines (Figure 10 input)",
            unit="lines",
        ).observe_counts(stats.packets_by_lines)
        registry.histogram(
            "dmc_merge_distance_lines",
            buckets=(0, 1, 2, 4, 8),
            help="Line distance between an absorbed request and its group base",
            unit="lines",
        ).observe_counts(self._merge_distance_counts)

    def _emit(
        self, group: list[MemoryRequest], cycle: int
    ) -> list[CoalescedRequest]:
        """Build aligned packets covering exactly the group's lines."""
        rtype = group[0].rtype
        lines = sorted({req.line for req in group})
        chunks = split_aligned_runs(lines, self.config.max_packet_lines)
        by_line: dict[int, list[MemoryRequest]] = {}
        for req in group:
            by_line.setdefault(req.line, []).append(req)
        out = []
        for base, num in chunks:
            members: list[MemoryRequest] = []
            for ln in range(base, base + num):
                members.extend(by_line.get(ln, ()))
            out.append(
                CoalescedRequest(
                    addr=base * self.config.line_size,
                    num_lines=num,
                    rtype=rtype,
                    constituents=members,
                    issue_cycle=cycle,
                )
            )
        return out
