"""The HMC device front-end.

Combines the link and vault models into a single service interface:
``service(addr, size, is_store, arrive_ns)`` returns the completion
time of the transaction, and the device accumulates all the traffic
statistics the paper's evaluation reports -- transferred vs requested
bytes (Equation 1), per-size request distributions (Figure 10), bank
conflict counts, and control-overhead savings (Figure 11).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hmc.link import HMCLink
from repro.hmc.packet import REQUEST_CONTROL_BYTES, transferred_bytes
from repro.hmc.timing import HMCTimingConfig
from repro.hmc.vault import Vault
from repro.obs import NULL_REGISTRY, MetricsRegistry


@dataclass(slots=True)
class HMCResponse:
    """Completion record of one HMC transaction."""

    addr: int
    data_bytes: int
    is_write: bool
    arrive_ns: float
    complete_ns: float
    row_hit: bool
    vault: int

    @property
    def latency_ns(self) -> float:
        return self.complete_ns - self.arrive_ns


@dataclass(slots=True)
class HMCStats:
    """Aggregate device statistics."""

    requests: int = 0
    reads: int = 0
    writes: int = 0
    payload_bytes: int = 0
    requested_bytes: int = 0
    control_bytes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    total_latency_ns: float = 0.0
    last_complete_ns: float = 0.0
    size_histogram: dict[int, int] = field(default_factory=dict)

    @property
    def transferred_bytes(self) -> int:
        """All bytes that crossed the links (payload + control)."""
        return self.payload_bytes + self.control_bytes

    @property
    def bandwidth_efficiency(self) -> float:
        """Equation 1 over the whole run, using *actually requested*
        bytes as the numerator (Figure 9's accounting)."""
        if not self.transferred_bytes:
            return 0.0
        return self.requested_bytes / self.transferred_bytes

    @property
    def payload_efficiency(self) -> float:
        """Equation 1 with packet payload as numerator (Figure 1)."""
        if not self.transferred_bytes:
            return 0.0
        return self.payload_bytes / self.transferred_bytes

    @property
    def mean_latency_ns(self) -> float:
        return self.total_latency_ns / self.requests if self.requests else 0.0

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0


class HMCDevice:
    """An 8 GB HMC 2.1 cube with 256 B block addressing (Section 5.2)."""

    def __init__(
        self,
        config: HMCTimingConfig | None = None,
        registry: MetricsRegistry | None = None,
    ):
        self.config = config or HMCTimingConfig()
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.link = HMCLink(self.config, self.registry)
        self.vaults = [
            Vault(i, self.config, self.registry)
            for i in range(self.config.num_vaults)
        ]
        self.stats = HMCStats()
        # service() runs per transaction: pure-config values are cached
        # so the hot path never chases config attributes (identical
        # arithmetic, identical results).
        self._block_bytes = self.config.block_bytes
        self._capacity = self.config.capacity_bytes
        self._num_vaults = self.config.num_vaults
        self._half_serdes_ns = self.config.t_serdes_ns / 2

    def apply_deferred_metrics(self) -> None:
        """Write the run's HMC series into the registry: the device's,
        the link's and every vault's (once per run).

        The stack's one publish step; the name predates it and is kept
        because ``perfbench/tracing.py`` times this method by name.
        Every series is one increment of a stats total (or, for the
        packet-size histogram, ``size_histogram`` in sorted size
        order), so the samples equal what per-event writes made.
        """
        registry = self.registry
        stats = self.stats
        requests = registry.counter(
            "hmc_requests_total", help="HMC transactions served, by operation"
        )
        if stats.reads:
            requests.inc(stats.reads, op="read")
        if stats.writes:
            requests.inc(stats.writes, op="write")
        # Every transaction increments these three, by zero too.
        for name, help, total in (
            ("hmc_payload_bytes_total", "Packet payload bytes",
             stats.payload_bytes),
            ("hmc_requested_bytes_total",
             "Bytes the application actually asked for (Equation 1 numerator)",
             stats.requested_bytes),
            ("hmc_control_bytes_total",
             "Control bytes across all transactions", stats.control_bytes),
        ):
            counter = registry.counter(name, help=help, unit="bytes")
            if stats.requests:
                counter.inc(total)
        rows = registry.counter(
            "hmc_row_accesses_total", help="Row-buffer outcomes across all banks"
        )
        if stats.row_hits:
            rows.inc(stats.row_hits, outcome="hit")
        if stats.row_misses:
            rows.inc(stats.row_misses, outcome="miss")
        registry.histogram(
            "hmc_packet_bytes",
            buckets=(16, 32, 64, 128, 256, 512),
            help="Issued packet payload size distribution (Figure 10)",
            unit="bytes",
        ).observe_counts(stats.size_histogram)
        self.link.publish_metrics()
        for vault in self.vaults:
            vault.publish_metrics()

    def _account(
        self,
        *,
        op: str,
        payload: int,
        requested: int,
        control: int,
        row_hit: bool,
        latency_ns: float,
        complete_ns: float,
        packet_bytes: int | None = None,
    ) -> None:
        """Accumulate one transaction into the stats.

        ``packet_bytes`` sizes the distribution bucket when it differs
        from the accounted payload (the atomic path's operand FLIT).
        """
        if packet_bytes is None:
            packet_bytes = payload
        s = self.stats
        s.requests += 1
        if op == "write":
            s.writes += 1
        else:
            s.reads += 1
        s.payload_bytes += payload
        s.requested_bytes += requested
        s.control_bytes += control
        s.row_hits += int(row_hit)
        s.row_misses += int(not row_hit)
        s.total_latency_ns += latency_ns
        s.last_complete_ns = max(s.last_complete_ns, complete_ns)
        s.size_histogram[packet_bytes] = s.size_histogram.get(packet_bytes, 0) + 1

    def service(
        self,
        addr: int,
        data_bytes: int,
        *,
        is_write: bool = False,
        arrive_ns: float = 0.0,
        requested_bytes: int | None = None,
    ) -> HMCResponse:
        """Serve one packetized transaction.

        Parameters
        ----------
        addr, data_bytes:
            Target address and packet payload (16 B .. 256 B, FLIT
            multiple; must not cross a block boundary).
        is_write:
            Write transactions carry payload in the request packet.
        arrive_ns:
            When the transaction reaches the device.
        requested_bytes:
            Bytes the application actually asked for (defaults to the
            payload) -- the Equation 1 numerator.
        """
        complete, row_hit, vault_index = self._service_core(
            addr, data_bytes, is_write, arrive_ns, requested_bytes
        )
        return HMCResponse(
            addr=addr,
            data_bytes=data_bytes,
            is_write=is_write,
            arrive_ns=arrive_ns,
            complete_ns=complete,
            row_hit=row_hit,
            vault=vault_index,
        )

    def _service_core(
        self,
        addr: int,
        data_bytes: int,
        is_write: bool,
        arrive_ns: float,
        requested_bytes: int | None,
    ) -> tuple[float, bool, int]:
        """Positional hot core of :meth:`service`.

        Returns ``(complete_ns, row_hit, vault_index)``; the replay
        driver calls this directly to skip the response-object
        construction it would immediately discard.  Accounting is
        inlined (see :meth:`_account`, kept for the atomic path) with
        identical arithmetic.
        """
        block_bytes = self._block_bytes
        block = addr // block_bytes
        if data_bytes > block_bytes:
            raise ValueError(
                f"request of {data_bytes} B exceeds the {block_bytes} B block"
            )
        # Division-free twin of ``block != (addr + data_bytes - 1) //
        # block_bytes`` for the non-negative operands already enforced.
        if addr - block * block_bytes + data_bytes > block_bytes:
            raise ValueError("request must not cross an HMC block boundary")
        if addr < 0 or addr + data_bytes > self._capacity:
            raise ValueError("address out of device range")

        vault_index = block % self._num_vaults
        # Inlined ``HMCLink.transfer`` (identical arithmetic and
        # accounting; the method call per transaction costs as much as
        # the serialization math it wraps).
        link = self.link
        key = (data_bytes, is_write)
        cached = link._flit_cache.get(key)
        if cached is None:
            at_vault = link.transfer(data_bytes, arrive_ns, is_write=is_write)
        else:
            flits, req_time, total_time = cached
            free_at = link.free_at_ns
            start = arrive_ns if arrive_ns > free_at else free_at
            link.free_at_ns = start + total_time
            lstats = link.stats
            lstats.transactions += 1
            lstats.flits += flits
            lstats.payload_bytes += data_bytes
            lstats.control_bytes += REQUEST_CONTROL_BYTES
            lstats.busy_ns += total_time
            at_vault = start + req_time
        at_vault += self._half_serdes_ns
        done, row_hit = self.vaults[vault_index].service(addr, data_bytes, at_vault)
        complete = done + self._half_serdes_ns

        req = requested_bytes if requested_bytes is not None else data_bytes
        s = self.stats
        s.requests += 1
        if is_write:
            s.writes += 1
        else:
            s.reads += 1
        s.payload_bytes += data_bytes
        s.requested_bytes += req
        s.control_bytes += REQUEST_CONTROL_BYTES
        if row_hit:
            s.row_hits += 1
        else:
            s.row_misses += 1
        s.total_latency_ns += complete - arrive_ns
        s.last_complete_ns = max(s.last_complete_ns, complete)
        s.size_histogram[data_bytes] = s.size_histogram.get(data_bytes, 0) + 1

        return complete, row_hit, vault_index

    def service_atomic(
        self,
        addr: int,
        op,
        *,
        arrive_ns: float = 0.0,
    ) -> HMCResponse:
        """Serve one HMC 2.1 atomic (read-modify-write at the vault).

        Atomics carry a single 16 B operand FLIT and execute against
        the open row in the logic layer -- one bank access instead of
        the load + writeback pair a CPU-side RMW costs.
        """
        from repro.hmc.atomics import ATOMIC_ALU_NS, atomic_traffic

        if addr < 0 or addr + 16 > self.config.capacity_bytes:
            raise ValueError("address out of device range")

        traffic = atomic_traffic(op)
        vault_index = self.config.vault_of(addr)
        # Both directions' FLITs cross the links.
        flits = 2 + (2 if op.returns_data else 1)
        start = max(arrive_ns, self.link.free_at_ns)
        self.link.free_at_ns = start + self.config.link_transfer_ns(flits)
        self.link.account(
            transactions=1,
            flits=flits,
            payload_bytes=traffic.payload_bytes,
            control_bytes=traffic.control_bytes - 16,
        )
        at_vault = (
            start
            + self.config.link_transfer_ns(2)
            + self.config.t_serdes_ns / 2
        )
        done, row_hit = self.vaults[vault_index].service(addr, 16, at_vault)
        complete = done + ATOMIC_ALU_NS + self.config.t_serdes_ns / 2

        self._account(
            op="write",
            payload=traffic.payload_bytes,
            requested=16,
            control=traffic.control_bytes,
            row_hit=row_hit,
            latency_ns=complete - arrive_ns,
            complete_ns=complete,
            packet_bytes=16,
        )

        return HMCResponse(
            addr=addr,
            data_bytes=16,
            is_write=True,
            arrive_ns=arrive_ns,
            complete_ns=complete,
            row_hit=row_hit,
            vault=vault_index,
        )

    # -- batched back-end hooks -----------------------------------------------

    def export_timing_state(
        self,
    ) -> tuple[float, list[float], list[list[int | None]]]:
        """Snapshot the pure timing state as plain columns.

        Returns ``(link_free_ns, vault_free_ns, bank_open_rows)`` --
        everything the batched HMC back end
        (:mod:`repro.kernels.hmc`) needs to seed its per-vault queue
        and open-row columns, and everything a verification shadow
        needs injected to re-serve one sampled transaction mid-run.
        """
        return (
            self.link.free_at_ns,
            [vault.free_at_ns for vault in self.vaults],
            [[bank.open_row for bank in vault.banks] for vault in self.vaults],
        )

    def import_timing_state(
        self,
        state: tuple[float, list[float], list[list[int | None]]],
    ) -> None:
        """Install a timing-state snapshot (inverse of
        :meth:`export_timing_state`).

        Only the timing state moves (link/vault free times, open rows);
        statistics are untouched, so a verification shadow can replay a
        mid-run transaction without inheriting the real device's
        accumulated traffic.
        """
        link_free, vault_free, bank_rows = state
        self.link.free_at_ns = link_free
        for vault, free_at, rows in zip(self.vaults, vault_free, bank_rows):
            vault.free_at_ns = free_at
            for bank, row in zip(vault.banks, rows):
                bank.open_row = row

    # -- derived reporting ----------------------------------------------------

    def control_bytes_saved_vs(self, baseline_requests: int) -> int:
        """Control bytes saved relative to a run that would have issued
        ``baseline_requests`` transactions (Figure 11)."""
        return (baseline_requests - self.stats.requests) * REQUEST_CONTROL_BYTES

    def vault_stats(self):
        """Iterate per-vault statistics."""
        return [v.stats for v in self.vaults]

    @staticmethod
    def ideal_transfer(data_bytes: int) -> int:
        """Bytes one exact-sized transaction would move (Section 2.2.2)."""
        return transferred_bytes(data_bytes)
