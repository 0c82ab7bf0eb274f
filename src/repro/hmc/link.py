"""SerDes link model.

The HMC exposes its vaults through high-speed serial links (the paper
cites an effective 320 GB/s).  Control and payload FLITs share the
same links, which is why control overhead directly costs bandwidth
(Section 2.2.2).  The link model serializes FLITs at the aggregate
link rate and accounts every byte moved, split into payload and
control, so Equation 1 can be evaluated over a whole run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hmc.packet import REQUEST_CONTROL_BYTES, packet_flits
from repro.hmc.timing import HMCTimingConfig
from repro.obs import NULL_REGISTRY, MetricsRegistry


@dataclass(slots=True)
class LinkStats:
    """Aggregate link traffic accounting."""

    transactions: int = 0
    flits: int = 0
    payload_bytes: int = 0
    control_bytes: int = 0
    busy_ns: float = 0.0

    @property
    def transferred_bytes(self) -> int:
        return self.payload_bytes + self.control_bytes

    @property
    def control_fraction(self) -> float:
        total = self.transferred_bytes
        return self.control_bytes / total if total else 0.0


class HMCLink:
    """Aggregate serializing front-end of the cube's links."""

    def __init__(
        self, config: HMCTimingConfig, registry: MetricsRegistry | None = None
    ):
        self.config = config
        self.free_at_ns = 0.0
        self.stats = LinkStats()
        self.registry = registry if registry is not None else NULL_REGISTRY
        # transfer() runs per transaction: the FLIT rate never changes,
        # so the serialization divisor is cached (identical arithmetic),
        # and the handful of distinct (payload, direction) FLIT
        # schedules memoize their serialization times (computed once
        # with the exact expression the uncached path used).
        self._link_bw = self.config.link_bandwidth_gbps
        self._flit_cache: dict[tuple[int, bool], tuple[int, float, float]] = {}

    def publish_metrics(self) -> None:
        """Write the run's link series into the registry (once per run).

        ``busy_ns`` is the same left fold of per-transaction times the
        per-event counter made, so one increment onto a fresh sample
        reproduces it bit for bit.
        """
        registry = self.registry
        stats = self.stats
        transactions = registry.counter(
            "link_transactions_total", help="Transactions serialized on the links"
        )
        flits = registry.counter(
            "link_flits_total", help="16 B FLITs moved in both directions"
        )
        link_bytes = registry.counter(
            "link_bytes_total",
            help="Bytes crossing the links, split payload vs control",
            unit="bytes",
        )
        busy = registry.counter(
            "link_busy_ns_total", help="Time the links spent moving FLITs", unit="ns"
        )
        if stats.transactions:
            transactions.inc(stats.transactions)
        if stats.flits:
            flits.inc(stats.flits)
        if stats.payload_bytes:
            link_bytes.inc(stats.payload_bytes, kind="payload")
        if stats.control_bytes:
            link_bytes.inc(stats.control_bytes, kind="control")
        if stats.busy_ns:
            busy.inc(stats.busy_ns)

    def account(
        self,
        *,
        transactions: int = 0,
        flits: int = 0,
        payload_bytes: int = 0,
        control_bytes: int = 0,
        busy_ns: float = 0.0,
    ) -> None:
        """Record link traffic in the stats.

        The device's atomic path shapes its own FLIT schedule, so this
        is the one shared accounting entry point.
        """
        stats = self.stats
        stats.transactions += transactions
        stats.flits += flits
        stats.payload_bytes += payload_bytes
        stats.control_bytes += control_bytes
        stats.busy_ns += busy_ns

    def transfer(
        self, data_bytes: int, arrive_ns: float, *, is_write: bool
    ) -> float:
        """Serialize one transaction's FLITs (both directions).

        Returns when the request packet has fully crossed the link and
        the vault may start (response serialization is accounted in the
        stats but overlaps with vault service in this approximation).
        """
        key = (data_bytes, is_write)
        cached = self._flit_cache.get(key)
        if cached is None:
            req_flits, resp_flits = packet_flits(data_bytes, is_write=is_write)
            flits = req_flits + resp_flits
            link_bw = self._link_bw
            cached = self._flit_cache[key] = (
                flits,
                (req_flits * 16) / link_bw,
                (flits * 16) / link_bw,
            )
        flits, req_time, total_time = cached

        free_at = self.free_at_ns
        start = arrive_ns if arrive_ns > free_at else free_at
        self.free_at_ns = start + total_time

        # Inlined :meth:`account` (the kwargs call costs as much as the
        # arithmetic here).
        stats = self.stats
        stats.transactions += 1
        stats.flits += flits
        stats.payload_bytes += data_bytes
        stats.control_bytes += REQUEST_CONTROL_BYTES
        stats.busy_ns += total_time
        return start + req_time

    def utilization(self, elapsed_ns: float) -> float:
        """Fraction of ``elapsed_ns`` the links spent moving FLITs."""
        if elapsed_ns <= 0:
            return 0.0
        return min(1.0, self.stats.busy_ns / elapsed_ns)
