"""Vault and bank model with open-row tracking.

Each vault owns a set of DRAM banks behind a private controller in the
HMC logic layer.  The model is trace-driven rather than event-driven:
a vault serves one request at a time in arrival order (per-vault FIFO),
tracking when it next becomes free, and each bank remembers its open
row so consecutive accesses to the same row avoid the
precharge/activate penalty.

This is precisely the mechanism behind the paper's Section 2.2.1
argument: sixteen 16 B reads of one 256 B block open and close the row
(up to) sixteen times, while one coalesced 256 B read opens it once --
so coalescing reduces both request count and bank conflicts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hmc.timing import HMCTimingConfig
from repro.obs import NULL_REGISTRY, MetricsRegistry


@dataclass(slots=True)
class Bank:
    """One DRAM bank: tracks the currently open row."""

    open_row: int | None = None
    activations: int = 0

    def access(self, row: int) -> bool:
        """Access ``row``; returns True on a row hit (open-row policy)."""
        if self.open_row == row:
            return True
        self.open_row = row
        self.activations += 1
        return False


@dataclass(slots=True)
class VaultStats:
    """Per-vault service statistics."""

    requests: int = 0
    row_hits: int = 0
    row_misses: int = 0
    busy_ns: float = 0.0
    queued_ns: float = 0.0

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0


class Vault:
    """One vault: FIFO controller over ``banks_per_vault`` banks."""

    def __init__(
        self,
        index: int,
        config: HMCTimingConfig,
        registry: MetricsRegistry | None = None,
    ):
        self.index = index
        self.config = config
        self.banks = [Bank() for _ in range(config.banks_per_vault)]
        self.free_at_ns = 0.0
        self.stats = VaultStats()
        self.registry = registry if registry is not None else NULL_REGISTRY
        #: Queue wait of each served request, in arrival order; the
        #: ``vault_queue_wait_ns`` float sum must fold in that order.
        self._waits: list[float] = []
        # service() runs per transaction: pure-config address math and
        # DRAM latencies resolve to the same values on every call, so
        # they are cached here (identical arithmetic, identical floats).
        self._bank_stride = config.block_bytes * config.num_vaults
        self._banks_per_vault = config.banks_per_vault
        # (addr // per_round) // blocks_per_row == addr // (per_round *
        # blocks_per_row) for nonnegative operands.
        self._row_stride = self._bank_stride * config.banks_per_vault * max(
            1, config.row_bytes // config.block_bytes
        )
        self._closed_page = config.page_policy == "closed"
        self._closed_ns = config.closed_access_ns()
        self._row_hit_ns = config.row_hit_ns()
        self._row_miss_ns = config.row_miss_ns()
        self._vault_bw = config.vault_bandwidth_gbps

    def publish_metrics(self) -> None:
        """Write this vault's series into the registry (once per run).

        Counters are one increment of the stats total (``busy_ns`` is
        the same left fold the per-event counter made); the queue waits
        replay in arrival order, so the histogram's float sum folds
        exactly as per-event observation would.  A vault that served
        nothing creates no series.
        """
        registry = self.registry
        stats = self.stats
        label = str(self.index)
        requests = registry.counter(
            "vault_requests_total", help="Requests served, per vault"
        )
        conflicts = registry.counter(
            "vault_bank_conflicts_total",
            help="Row-buffer misses (precharge/activate stalls), per vault",
        )
        busy = registry.counter(
            "vault_busy_ns_total", help="DRAM + TSV service time, per vault", unit="ns"
        )
        waits = registry.histogram(
            "vault_queue_wait_ns",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
            help="Per-request wait behind earlier requests (queue depth proxy)",
            unit="ns",
        )
        if stats.requests:
            requests.inc(stats.requests, vault=label)
            busy.inc(stats.busy_ns, vault=label)
        if stats.row_misses:
            conflicts.inc(stats.row_misses, vault=label)
        waits.bind(vault=label).observe_each(self._waits)

    def service(
        self, addr: int, data_bytes: int, arrive_ns: float
    ) -> tuple[float, bool]:
        """Serve one request arriving at ``arrive_ns``.

        Returns ``(complete_ns, row_hit)``.  The vault is busy from the
        moment it starts the request until the payload has crossed the
        TSVs; queueing behind earlier requests is implicit in
        ``free_at_ns``.
        """
        if data_bytes <= 0:
            raise ValueError("data_bytes must be positive")
        bank_idx = (addr // self._bank_stride) % self._banks_per_vault
        row = addr // self._row_stride
        free_at = self.free_at_ns
        start = arrive_ns if arrive_ns > free_at else free_at
        wait = start - arrive_ns
        stats = self.stats
        stats.queued_ns += wait
        self._waits.append(wait)

        bank = self.banks[bank_idx]
        if self._closed_page:
            # Auto-precharge: every access activates, none conflicts.
            bank.access(row)
            bank.open_row = None
            hit = False
            dram = self._closed_ns
        else:
            # Inline ``Bank.access`` (per-transaction method call).
            if bank.open_row == row:
                hit = True
                dram = self._row_hit_ns
            else:
                bank.open_row = row
                bank.activations += 1
                hit = False
                dram = self._row_miss_ns
        xfer = data_bytes / self._vault_bw
        complete = start + dram + xfer

        self.free_at_ns = complete
        stats.requests += 1
        stats.busy_ns += dram + xfer
        if hit:
            stats.row_hits += 1
        else:
            stats.row_misses += 1
        return complete, hit

    @property
    def occupancy_ahead_ns(self) -> float:
        """How far in the future the vault is currently booked."""
        return self.free_at_ns
