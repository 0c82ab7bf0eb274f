"""Discrete-event replay of an HMC request stream.

The main driver (:mod:`repro.sim.driver`) is trace-driven: requests
hit the device in push order and queueing is folded into per-vault
``free_at`` bookkeeping.  That approximation is fast but cannot model
the *finite outstanding window* -- in the real system at most
``num_mshrs`` requests are in flight, so issue is gated by completions.

This module replays a request stream under a proper discrete-event
model (heapq event queue):

* a request becomes *ready* at its trace time;
* it *issues* in FIFO order when an outstanding slot (MSHR) frees;
* issue serializes on the shared links, then queues FIFO at its
  vault, pays open/closed-page DRAM timing, and completes;
* completion frees the slot, allowing the next ready request to issue.

Replaying the same stream under both models bounds the error of the
fast path -- the cross-validation tests in
``tests/sim/test_events.py`` assert the two agree on ordering-free
quantities and that the event-driven makespan is the longer (more
pessimistic) of the two.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.hmc.packet import packet_flits
from repro.hmc.timing import HMCTimingConfig


@dataclass(frozen=True, slots=True)
class ReplayRequest:
    """One request to replay."""

    addr: int
    data_bytes: int
    is_write: bool
    ready_ns: float
    requested_bytes: int = 0


@dataclass(slots=True)
class ReplayResult:
    """Outcome of an event-driven replay."""

    completions_ns: list[float]
    latencies_ns: list[float]
    makespan_ns: float
    max_outstanding_seen: int
    vault_busy_ns: list[float]
    row_hits: int
    row_misses: int

    @property
    def mean_latency_ns(self) -> float:
        if not self.latencies_ns:
            return 0.0
        return sum(self.latencies_ns) / len(self.latencies_ns)


class EventDrivenHMC:
    """Replay engine with a finite outstanding window.

    ``scheduler`` selects the per-vault service discipline:

    ``"fifo"``
        Requests are served in arrival order (the paper's implicit
        model).
    ``"frfcfs"``
        First-Ready, First-Come-First-Served: when a vault frees, it
        serves the oldest queued request whose row is already open,
        falling back to the oldest overall.  A smarter controller
        recovers *some* of the row locality coalescing creates --
        the ablation quantifies how much of the coalescer's benefit
        an FR-FCFS controller can and cannot replicate.
    """

    def __init__(
        self,
        config: HMCTimingConfig | None = None,
        *,
        max_outstanding: int = 16,
        scheduler: str = "fifo",
    ):
        if max_outstanding <= 0:
            raise ValueError("max_outstanding must be positive")
        if scheduler not in ("fifo", "frfcfs"):
            raise ValueError("scheduler must be 'fifo' or 'frfcfs'")
        self.config = config or HMCTimingConfig()
        self.max_outstanding = max_outstanding
        self.scheduler = scheduler

    def replay(self, requests: list[ReplayRequest]) -> ReplayResult:
        """Simulate the stream; requests issue in list (FIFO) order."""
        if self.scheduler == "frfcfs":
            return self._replay_frfcfs(requests)
        cfg = self.config
        n = len(requests)
        completions = [0.0] * n
        latencies = [0.0] * n

        link_free = 0.0
        vault_free = [0.0] * cfg.num_vaults
        vault_busy = [0.0] * cfg.num_vaults
        open_rows: dict[tuple[int, int], int] = {}
        row_hits = row_misses = 0

        #: Min-heap of outstanding completion times.
        outstanding: list[float] = []
        max_seen = 0
        clock = 0.0

        for idx, req in enumerate(requests):
            # Wait until the request is ready and a slot frees.
            clock = max(clock, req.ready_ns)
            while len(outstanding) >= self.max_outstanding:
                clock = max(clock, heapq.heappop(outstanding))
            # Drain any completions that happened before now.
            while outstanding and outstanding[0] <= clock:
                heapq.heappop(outstanding)

            # Link serialization (request packet must cross first).
            req_flits, resp_flits = packet_flits(
                req.data_bytes, is_write=req.is_write
            )
            start = max(clock, link_free)
            link_free = start + cfg.link_transfer_ns(req_flits + resp_flits)
            at_vault = start + cfg.link_transfer_ns(req_flits) + cfg.t_serdes_ns / 2

            # Vault FIFO + DRAM timing.
            vault = cfg.vault_of(req.addr)
            bank = cfg.bank_of(req.addr)
            row = cfg.row_of(req.addr)
            begin = max(at_vault, vault_free[vault])

            if cfg.page_policy == "closed":
                dram = cfg.closed_access_ns()
                row_misses += 1
                open_rows.pop((vault, bank), None)
            else:
                if open_rows.get((vault, bank)) == row:
                    dram = cfg.row_hit_ns()
                    row_hits += 1
                else:
                    dram = cfg.row_miss_ns()
                    row_misses += 1
                    open_rows[(vault, bank)] = row
            xfer = cfg.vault_transfer_ns(req.data_bytes)
            done = begin + dram + xfer
            vault_free[vault] = done
            vault_busy[vault] += dram + xfer

            complete = done + cfg.t_serdes_ns / 2
            completions[idx] = complete
            latencies[idx] = complete - req.ready_ns
            heapq.heappush(outstanding, complete)
            max_seen = max(max_seen, len(outstanding))

        return ReplayResult(
            completions_ns=completions,
            latencies_ns=latencies,
            makespan_ns=max(completions, default=0.0),
            max_outstanding_seen=max_seen,
            vault_busy_ns=vault_busy,
            row_hits=row_hits,
            row_misses=row_misses,
        )


    def _replay_frfcfs(self, requests: list[ReplayRequest]) -> ReplayResult:
        """Event-driven replay with FR-FCFS vault scheduling.

        Issue (slot gating + link serialization) stays FIFO; each
        vault then reorders its queue to prefer open-row requests.
        """
        cfg = self.config
        n = len(requests)
        completions = [0.0] * n
        latencies = [0.0] * n
        vault_busy = [0.0] * cfg.num_vaults
        row_hits = row_misses = 0

        # Phase 1: FIFO issue gated by the outstanding window and the
        # links, producing per-vault arrival queues.  Slot frees are
        # approximated by the FIFO completion estimate, which is exact
        # for the window sizes used here because FR-FCFS reordering is
        # local to a vault.
        fifo = EventDrivenHMC(
            cfg, max_outstanding=self.max_outstanding, scheduler="fifo"
        ).replay(requests)

        arrivals: list[list[tuple[float, int]]] = [
            [] for _ in range(cfg.num_vaults)
        ]
        link_free = 0.0
        outstanding: list[float] = []
        clock = 0.0
        max_seen = 0
        for idx, req in enumerate(requests):
            clock = max(clock, req.ready_ns)
            while len(outstanding) >= self.max_outstanding:
                clock = max(clock, heapq.heappop(outstanding))
            while outstanding and outstanding[0] <= clock:
                heapq.heappop(outstanding)
            req_flits, resp_flits = packet_flits(
                req.data_bytes, is_write=req.is_write
            )
            start = max(clock, link_free)
            link_free = start + cfg.link_transfer_ns(req_flits + resp_flits)
            at_vault = start + cfg.link_transfer_ns(req_flits) + cfg.t_serdes_ns / 2
            arrivals[cfg.vault_of(req.addr)].append((at_vault, idx))
            heapq.heappush(outstanding, fifo.completions_ns[idx])
            max_seen = max(max_seen, len(outstanding))

        # Phase 2: per-vault FR-FCFS service.
        for vault, queue in enumerate(arrivals):
            queue.sort()  # by arrival
            open_row: dict[int, int] = {}
            now = 0.0
            pending: list[tuple[float, int]] = list(queue)
            while pending:
                # Requests that have arrived by `now`.
                ready = [(t, i) for t, i in pending if t <= now]
                if not ready:
                    now = pending[0][0]
                    ready = [(t, i) for t, i in pending if t <= now]
                # Prefer the oldest row hit; fall back to the oldest.
                choice = None
                for t, i in ready:
                    bank = cfg.bank_of(requests[i].addr)
                    row = cfg.row_of(requests[i].addr)
                    if open_row.get(bank) == row:
                        choice = (t, i)
                        break
                if choice is None:
                    choice = ready[0]
                pending.remove(choice)
                t, i = choice
                req = requests[i]
                bank = cfg.bank_of(req.addr)
                row = cfg.row_of(req.addr)
                if cfg.page_policy == "closed":
                    dram = cfg.closed_access_ns()
                    row_misses += 1
                    open_row.pop(bank, None)
                elif open_row.get(bank) == row:
                    dram = cfg.row_hit_ns()
                    row_hits += 1
                else:
                    dram = cfg.row_miss_ns()
                    row_misses += 1
                    open_row[bank] = row
                xfer = cfg.vault_transfer_ns(req.data_bytes)
                begin = max(now, t)
                done = begin + dram + xfer
                vault_busy[vault] += dram + xfer
                now = done
                completions[i] = done + cfg.t_serdes_ns / 2
                latencies[i] = completions[i] - req.ready_ns

        return ReplayResult(
            completions_ns=completions,
            latencies_ns=latencies,
            makespan_ns=max(completions, default=0.0),
            max_outstanding_seen=max_seen,
            vault_busy_ns=vault_busy,
            row_hits=row_hits,
            row_misses=row_misses,
        )


def replay_issued_requests(
    sim_result,
    *,
    config: HMCTimingConfig | None = None,
    max_outstanding: int | None = None,
    cycle_ns: float | None = None,
    scheduler: str = "fifo",
):
    """Replay a finished :class:`~repro.sim.driver.SimulationResult`'s
    issued packets under the event-driven model.

    The issued list is re-derived by re-running the benchmark (the
    driver does not retain per-request records in its summary), then
    replayed with the same platform constants.
    """
    from repro.sim.experiments import _issued_of

    platform = sim_result.platform
    cyc_ns = cycle_ns if cycle_ns is not None else platform.cycle_ns
    issued = _issued_of(sim_result)
    requests = [
        ReplayRequest(
            addr=rec.request.addr,
            data_bytes=rec.request.effective_payload,
            is_write=rec.request.is_store,
            ready_ns=rec.issue_cycle * cyc_ns,
            requested_bytes=min(
                rec.request.requested_bytes, rec.request.effective_payload
            ),
        )
        for rec in sorted(issued, key=lambda r: r.issue_cycle)
    ]
    engine = EventDrivenHMC(
        config or platform.hmc,
        max_outstanding=max_outstanding or platform.coalescer.num_mshrs,
        scheduler=scheduler,
    )
    return engine.replay(requests)
