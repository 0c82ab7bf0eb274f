"""Timing and geometry configuration of the HMC device model.

Values follow the HMC 2.1 specification quantities the paper quotes
(8 GB cube, 256 B block addressing, 320 GB/s effective bandwidth) with
DRAM bank timings in the range published for HMC silicon.  All times
are nanoseconds; the driver converts to CPU cycles where needed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True, slots=True)
class HMCTimingConfig:
    """Geometry and timing of the modelled HMC device.

    Attributes
    ----------
    capacity_bytes:
        Total cube capacity (paper: 8 GB).
    num_vaults:
        Independent vaults, each with its own memory controller in the
        logic layer (HMC 2.1: 32).
    banks_per_vault:
        DRAM banks per vault (HMC 2.1 8 GB: 16).
    block_bytes:
        Block/interleave granularity; the paper configures 256 B block
        addressing so one maximum request maps to one vault.
    row_bytes:
        Open-row (page) size per bank.
    link_bandwidth_gbps:
        Aggregate link bandwidth in GB/s (4 links; effective 320 GB/s).
    vault_bandwidth_gbps:
        Internal per-vault TSV bandwidth in GB/s (320/32 = 10).
    t_serdes_ns:
        Fixed round-trip SerDes + logic-layer latency.
    t_rcd_ns / t_cas_ns / t_rp_ns:
        DRAM activate, column access and precharge latencies.
    queue_limit:
        Maximum outstanding requests per vault before arrivals stall.
    page_policy:
        ``"open"`` keeps a row active after each access (row hits are
        cheap, conflicts pay precharge+activate); ``"closed"``
        auto-precharges after every access (every access pays
        activate+CAS, none pays the conflict penalty) -- the better
        policy for random traffic.
    """

    capacity_bytes: int = 8 * 1024**3
    num_vaults: int = 32
    banks_per_vault: int = 16
    block_bytes: int = 256
    row_bytes: int = 16 * 1024
    link_bandwidth_gbps: float = 320.0
    vault_bandwidth_gbps: float = 10.0
    t_serdes_ns: float = 25.0
    t_rcd_ns: float = 13.75
    t_cas_ns: float = 13.75
    t_rp_ns: float = 13.75
    queue_limit: int = 64
    page_policy: str = "open"

    def __post_init__(self) -> None:
        if self.page_policy not in ("open", "closed"):
            raise ConfigError("page_policy must be 'open' or 'closed'")
        if self.capacity_bytes <= 0:
            raise ConfigError("capacity must be positive")
        if self.num_vaults <= 0 or self.num_vaults & (self.num_vaults - 1):
            raise ConfigError("num_vaults must be a power of two")
        if self.banks_per_vault <= 0:
            raise ConfigError("banks_per_vault must be positive")
        if self.block_bytes <= 0 or self.block_bytes % 16:
            raise ConfigError("block_bytes must be a positive FLIT multiple")
        if self.link_bandwidth_gbps <= 0 or self.vault_bandwidth_gbps <= 0:
            raise ConfigError("bandwidths must be positive")
        if self.queue_limit <= 0:
            raise ConfigError("queue_limit must be positive")

    def vault_of(self, addr: int) -> int:
        """Vault servicing ``addr`` under low-interleaved block mapping."""
        return (addr // self.block_bytes) % self.num_vaults

    def bank_of(self, addr: int) -> int:
        """Bank within the vault for ``addr``."""
        return (addr // (self.block_bytes * self.num_vaults)) % self.banks_per_vault

    def row_of(self, addr: int) -> int:
        """DRAM row within the bank for ``addr``."""
        per_round = self.block_bytes * self.num_vaults * self.banks_per_vault
        blocks_per_row = max(1, self.row_bytes // self.block_bytes)
        return (addr // per_round) // blocks_per_row

    def link_transfer_ns(self, flits: int) -> float:
        """Serialization time of ``flits`` on the aggregate links."""
        return (flits * 16) / self.link_bandwidth_gbps

    def vault_transfer_ns(self, data_bytes: int) -> float:
        """TSV transfer time of the payload within one vault."""
        return data_bytes / self.vault_bandwidth_gbps

    def row_hit_ns(self) -> float:
        """Column access on an already-open row."""
        return self.t_cas_ns

    def row_miss_ns(self) -> float:
        """Precharge + activate + column access on a conflicting row."""
        return self.t_rp_ns + self.t_rcd_ns + self.t_cas_ns

    def closed_access_ns(self) -> float:
        """Activate + column access under the closed-page policy (the
        precharge is hidden after the previous access)."""
        return self.t_rcd_ns + self.t_cas_ns


#: The paper's evaluation device: HMC 2.1, 8 GB, 256 B blocks.
HMC2_CONFIG = HMCTimingConfig()

#: A future-generation cube with 512 B maximum packets, for the
#: scaling experiment the paper sketches in Section 3.2.3.
FUTURE_HMC_CONFIG = HMCTimingConfig(block_bytes=512)
