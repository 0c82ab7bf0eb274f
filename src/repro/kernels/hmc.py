"""Batched HMC back-end timing kernel.

After PR 6 vectorized the coalescing plan itself, the residual floor
of the vector replay coalesce phase was the scalar HMC timing walk:
every issued packet crossed ``service_time_for`` ->
``HMCDevice._service_core`` -> ``HMCLink.transfer`` (inlined) ->
``Vault.service``, four Python frames deep, re-deriving per-size FLIT
schedules from dict caches and updating every statistic on each call.

This back end replaces that walk with a compiled closure
(:func:`_compile_service`): one flat frame whose constants and timing
state live in cell variables, whose per-size FLIT schedules and DRAM
latencies come from precomputed per-config tables
(:class:`HMCTables`), and whose per-packet accounting shrinks to one
packed integer and one float column append plus a running latency
sum.  Everything else -- request/byte/FLIT counters, busy and
queue-wait folds, per-vault splits, the size histogram -- is
reconstructed **in batch** at
:meth:`BatchedHMCBackend.finalize`: NumPy columns decode the packed
codes, ``np.cumsum`` replays each float fold sequentially (the exact
IEEE left fold the object engine performs, C-speed), and the results
land in the device's ``stats`` and per-vault queue waits -- where the
object engine keeps them -- for the driver's one end-of-run publish
(``HMCDevice.apply_deferred_metrics``).

Why per-request batching cannot go wider than one call: completion
times feed *back* into the replay (MSHR retirement unblocks
allocation, fences and CRQ drains read the completion heap), and in
the MSHR-saturated steady state every retire enables exactly one
allocation -- measured batch width is ~1.  The per-packet work is
therefore only the irreducible timing recurrence (link serialization,
per-vault FIFO, open-row check), kept in exact object-engine float
order so digests stay byte-identical; the batching lives in the
accounting, which has no feedback.  The whole-batch NumPy pass
survives where there is no feedback at all --
:meth:`BatchedHMCBackend.replay_batch` re-times an entire serviced
column set at once (vault/row decomposition by column, open-row
outcomes by grouped segmented scan) for verification sweeps and
differential tests.

Contract (same as PR 6's batched coalescing kernel):

* **Plan-predict-verify.**  A sampled subset of packets -- plus the
  first packet after every fence boundary -- is re-served against a
  shadow ``HMCDevice`` running the real ``_service_core`` with the
  live timing state injected.  Any mismatch raises
  :class:`HMCKernelError`, which the replay driver treats exactly like
  a coalescing-kernel miss: whole-run object-engine fallback, counted
  once, in this module's :func:`kernel_counters`.
* **Engine choice is not configuration.**  Nothing here enters
  ``PlatformConfig``, config digests, or trace keys; the back end
  advertises itself only through execution-side closure attributes
  (``service_time.hmc_device``) set by the replay driver.
* **Statistics are the object engine's.**  The backend requires a
  pristine device stack (zero traffic, zero timing state -- the replay
  driver always builds a fresh stack), so every statistic fold it
  reconstructs is zero-seeded and bit-exact against the ``stats``
  fields the object engine would have built up, and the registry
  series published from them match too.

Per-config constant tables are cached via :func:`hmc_constant_tables`
and stashed in the per-process replay cache so grouped sweep cells
build them once.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from repro.core.address import CACHE_LINE_SIZE
from repro.core.request import CoalescedRequest, RequestType
from repro.hmc.device import HMCDevice
from repro.hmc.link import HMCLink
from repro.hmc.packet import REQUEST_CONTROL_BYTES, packet_flits
from repro.hmc.timing import HMCTimingConfig
from repro.hmc.vault import Vault
from repro.kernels import KernelCounters
from repro.kernels.coalesce import CoalesceKernelError

#: Verify one in this many packets against the shadow device (plus the
#: first packet after every fence boundary).
_VERIFY_STRIDE = 97

_STORE = RequestType.STORE


#: This kernel's engagement/fallback counts (see
#: :class:`~repro.kernels.KernelCounters`).
COUNTERS = KernelCounters()
kernel_counters = COUNTERS.snapshot
reset_kernel_counters = COUNTERS.reset


class HMCKernelError(CoalesceKernelError):
    """A batched HMC timing prediction failed verification.

    Subclasses :class:`CoalesceKernelError` so the replay driver's
    existing catch/fallback path handles it unchanged: rebuild the
    stack, re-run the object engine.  The fallback counts in this
    kernel's :data:`COUNTERS` only.
    """

    counters = COUNTERS


_ENABLED = True


def set_hmc_backend(enabled: bool) -> None:
    """Globally enable/disable the batched HMC back end.

    Execution-side only (never configuration): the perf harness pins
    the back end off to measure the PR 8 baseline engine unchanged.
    """
    global _ENABLED
    _ENABLED = bool(enabled)


@contextmanager
def hmc_backend_disabled():
    """Scoped :func:`set_hmc_backend` toggle (restores the prior state)."""
    global _ENABLED
    prior = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = prior


# -- per-config constant tables ----------------------------------------------


class HMCTables:
    """Immutable per-(config, cycle_ns) timing constants.

    Every float is computed with the exact expression the object
    engine's caches use (``HMCLink._flit_cache``, the ``Vault`` cached
    latencies); payload sizes index straight into the columns
    (``(payload >> 4) - 1``, writes offset by ``n_payloads``), so the
    hot path replaces dict lookups and attribute chasing with list
    indexing.  ``link`` packs ``(total_time, req_time)`` per index;
    the ``np_*`` mirrors feed the finalize-time accounting
    reconstruction and :meth:`BatchedHMCBackend.replay_batch`.
    """

    __slots__ = (
        "config",
        "cycle_ns",
        "block_bytes",
        "capacity",
        "num_vaults",
        "banks_per_vault",
        "bank_stride",
        "row_stride",
        "half_serdes",
        "closed_page",
        "closed_ns",
        "hit_ns",
        "miss_ns",
        "n_payloads",
        "link",
        "xfer",
        "np_flits",
        "np_req",
        "np_total",
        "np_xfer",
    )

    def __init__(self, config: HMCTimingConfig, cycle_ns: float):
        self.config = config
        self.cycle_ns = cycle_ns
        self.block_bytes = config.block_bytes
        self.capacity = config.capacity_bytes
        self.num_vaults = config.num_vaults
        self.banks_per_vault = config.banks_per_vault
        self.bank_stride = config.block_bytes * config.num_vaults
        self.row_stride = self.bank_stride * config.banks_per_vault * max(
            1, config.row_bytes // config.block_bytes
        )
        self.half_serdes = config.t_serdes_ns / 2
        self.closed_page = config.page_policy == "closed"
        self.closed_ns = config.closed_access_ns()
        self.hit_ns = config.row_hit_ns()
        self.miss_ns = config.row_miss_ns()

        n = self.n_payloads = config.block_bytes // 16
        link_bw = config.link_bandwidth_gbps
        vault_bw = config.vault_bandwidth_gbps
        link: list[tuple[float, float]] = [(0.0, 0.0)] * (2 * n)
        flits: list[int] = [0] * (2 * n)
        xfer: list[float] = [0.0] * n
        for k in range(n):
            payload = 16 * (k + 1)
            xfer[k] = payload / vault_bw
            for is_write in (False, True):
                rq, rs = packet_flits(payload, is_write=is_write)
                idx = k + n * is_write
                link[idx] = (((rq + rs) * 16) / link_bw, (rq * 16) / link_bw)
                flits[idx] = rq + rs
        self.link = link
        self.xfer = xfer
        self.np_flits = np.array(flits, dtype=np.int64)
        self.np_req = np.array([r for _, r in link], dtype=np.float64)
        self.np_total = np.array([t for t, _ in link], dtype=np.float64)
        self.np_xfer = np.array(xfer, dtype=np.float64)


@lru_cache(maxsize=32)
def hmc_constant_tables(config: HMCTimingConfig, cycle_ns: float) -> HMCTables:
    """Build (or reuse) the constant tables for one timing cell."""
    return HMCTables(config, cycle_ns)


# -- envelope ---------------------------------------------------------------


def _is_pristine(device: HMCDevice) -> bool:
    """Whether the device stack carries no traffic or timing state.

    The backend's zero-seeded accounting reconstruction is exact only
    from a fresh stack -- which is what the replay driver always
    builds.  Anything warm delegates to the object engine.
    """
    s = device.stats
    link = device.link
    if (
        s.requests
        or s.total_latency_ns != 0.0
        or s.last_complete_ns != 0.0
        or s.size_histogram
        or link.free_at_ns != 0.0
        or link.stats.transactions
        or link.stats.busy_ns != 0.0
    ):
        return False
    for vault in device.vaults:
        vs = vault.stats
        if (
            vault.free_at_ns != 0.0
            or vs.requests
            or vs.busy_ns != 0.0
            or vs.queued_ns != 0.0
        ):
            return False
        for bank in vault.banks:
            if bank.open_row is not None:
                return False
    return True


def attach_backend(coalescer, replay_cache: dict | None = None):
    """Attach a :class:`BatchedHMCBackend` to an engaged batched run.

    ``coalescer`` is the core ``MemoryCoalescer``; its bound
    ``_service_time`` closure advertises the device it wraps (see
    ``repro.sim.driver._make_service_time``).  Returns ``None`` --
    counting a delegation -- when the stack is not the stock shape the
    kernel models, the device is not pristine, or the back end is
    pinned off.
    """
    if not _ENABLED:
        COUNTERS.delegated += 1
        return None
    fn = getattr(coalescer, "_service_time", None)
    device = getattr(fn, "hmc_device", None)
    cycle_ns = getattr(fn, "cycle_ns", None)
    if (
        device is None
        or cycle_ns is None
        or type(device) is not HMCDevice
        or type(device.link) is not HMCLink
        or type(device.config) is not HMCTimingConfig
        or not all(type(v) is Vault for v in device.vaults)
        # Packed-code envelope: li and vault must fit their fields.
        or device.config.block_bytes > 32768
        or device.config.num_vaults > 2048
        or not _is_pristine(device)
    ):
        COUNTERS.delegated += 1
        return None
    key = ("hmc_tables", device.config, cycle_ns)
    tables = None
    if replay_cache is not None:
        tables = replay_cache.get(key)
    if tables is None:
        tables = hmc_constant_tables(device.config, cycle_ns)
        if replay_cache is not None:
            replay_cache[key] = tables
    COUNTERS.engaged += 1
    return BatchedHMCBackend(device, cycle_ns, tables)


# -- the compiled hot path ---------------------------------------------------


def _compile_service(
    t: HMCTables,
    cycle_ns: float,
    lf: list,
    vault_free: list,
    bank_rows: list,
    acts: dict,
    codes: list,
    waits: list,
    shadow_service,
):
    """Build the per-packet service closure and its control hooks.

    Returns ``(service, fence, snapshot)``.  All constants and
    single-float state live in cell variables (cheap ``LOAD_DEREF``
    instead of attribute chases); multi-element state (vault free
    times, bank rows, the accounting columns) is shared by reference
    with the owning :class:`BatchedHMCBackend`.  ``lf`` is a
    one-element list so :meth:`~BatchedHMCBackend.replay_batch` shares
    the link clock too.

    The float chain is the exact operation order of the object
    engine's ``_service_core`` + ``Vault.service``; the only per-packet
    accounting is the packed ``(li, vault, row_hit)`` code, the
    ``wait`` column append and the running latency sum (the same
    zero-seeded left fold the device's ``total_latency_ns`` makes) --
    everything else is reconstructed in batch at finalize.
    """
    bb = t.block_bytes
    cap = t.capacity
    nv = t.num_vaults
    bpv = t.banks_per_vault
    bank_div = bb * nv  # == t.bank_stride
    row_div = t.row_stride // bank_div  # rows advance per bank_div blocks
    half = t.half_serdes
    closed_page = t.closed_page
    closed_ns = t.closed_ns
    hit_ns = t.hit_ns
    miss_ns = t.miss_ns
    n_pay = t.n_payloads
    link = t.link
    xfer = t.xfer
    codes_append = codes.append
    waits_append = waits.append
    acts_get = acts.get
    link_free = 0.0
    last_complete = 0.0
    requested_sum = 0
    latency_sum = 0.0
    vleft = 1  # verify the very first packet

    def service(request: CoalescedRequest, at: int) -> int:
        nonlocal link_free, last_complete, requested_sum, latency_sum, vleft
        payload = request.payload_bytes
        if payload is None:
            payload = request.num_lines * CACHE_LINE_SIZE
        requested = request.requested_bytes
        if requested >= payload:
            requested = payload
        addr = request.addr
        block = addr // bb
        if (
            payload <= 0
            or payload > bb
            or payload & 15
            or addr < 0
            or addr - block * bb + payload > bb
            or addr + payload > cap
        ):
            # The object engine raises ValueError for these; fall back
            # so it reports the identical failure.
            raise HMCKernelError("hmc-request-envelope")
        requested_sum += requested

        v = block % nv
        b1 = addr // bank_div
        g = b1 % bpv + v * bpv
        row = b1 // row_div
        pidx = (payload >> 4) - 1
        li = pidx + n_pay if request.rtype is _STORE else pidx
        total_time, req_time = link[li]
        prev = bank_rows[g]
        if closed_page:
            hit = 0
            dram = closed_ns
            acts[g] = acts_get(g, 0) + 1
        elif prev == row:
            hit = 1
            dram = hit_ns
        else:
            hit = 0
            dram = miss_ns
            bank_rows[g] = row
            acts[g] = acts_get(g, 0) + 1

        vleft -= 1
        if vleft <= 0:
            vleft = _VERIFY_STRIDE
            expect = shadow_service(
                addr,
                payload,
                li >= n_pay,
                requested,
                at * cycle_ns,
                link_free,
                vault_free[v],
                prev,
            )
        else:
            expect = None

        # Link serialization (exact twin of the inlined
        # ``HMCLink.transfer`` in ``_service_core``).
        arrive = at * cycle_ns
        start = arrive if arrive > link_free else link_free
        link_free = start + total_time

        # Vault FIFO + open-row service (exact twin of
        # ``Vault.service``; the row outcome was resolved above).
        at_vault = (start + req_time) + half
        vf = vault_free[v]
        sv = at_vault if at_vault > vf else vf
        waits_append(sv - at_vault)
        done = (sv + dram) + xfer[pidx]
        vault_free[v] = done
        complete = done + half

        if expect is not None and (
            expect[0] != complete or expect[1] != bool(hit) or expect[2] != v
        ):
            raise HMCKernelError("hmc-verify-miss")

        if complete > last_complete:
            last_complete = complete
        latency = complete - arrive
        latency_sum += latency
        codes_append(li << 12 | v << 1 | hit)

        cycles = int(latency / cycle_ns)
        return at + (cycles if cycles > 1 else 1)

    def fence() -> None:
        nonlocal vleft
        vleft = 0

    def snapshot() -> tuple[float, float, int, float]:
        return link_free, last_complete, requested_sum, latency_sum

    # replay_batch shares the link clock through the lf cell.
    def sync_link(value: float) -> None:
        nonlocal link_free
        link_free = value

    lf.append(snapshot)
    lf.append(sync_link)
    return service, fence, snapshot


# -- the backend ------------------------------------------------------------


class BatchedHMCBackend:
    """Compiled-hot-path HMC timing engine for one engaged replay.

    :attr:`service` (a compiled closure, see :func:`_compile_service`)
    replaces the scalar device call tree per packet and returns the
    completion cycle directly; the completion heap stays authoritative
    so no other coalescing-kernel machinery changes.  Accounting
    reconstructs in batch at :meth:`finalize`.
    """

    __slots__ = (
        "_device",
        "_cycle_ns",
        "_t",
        "_lf",
        "_vault_free",
        "_bank_rows",
        "_acts",
        "_codes",
        "_waits",
        "service",
        "mark_fence",
        "_snapshot",
        "_shadow",
        "_finalized",
    )

    def __init__(self, device: HMCDevice, cycle_ns: float, tables: HMCTables):
        self._device = device
        self._cycle_ns = cycle_ns
        self._t = tables
        # Pristine stack (enforced by attach_backend): all timing state
        # starts at zero / closed rows.
        self._vault_free = [0.0] * tables.num_vaults
        self._bank_rows = [-1] * (tables.num_vaults * tables.banks_per_vault)
        self._acts: dict[int, int] = {}
        self._codes: list[int] = []
        self._waits: list[float] = []
        self._shadow: HMCDevice | None = None
        self._finalized = False
        self._lf: list = []
        self.service, self.mark_fence, self._snapshot = _compile_service(
            tables,
            cycle_ns,
            self._lf,
            self._vault_free,
            self._bank_rows,
            self._acts,
            self._codes,
            self._waits,
            self._shadow_service,
        )

    # -- verification --------------------------------------------------------

    def _shadow_service(
        self,
        addr: int,
        payload: int,
        is_write: bool,
        requested: int,
        arrive_ns: float,
        link_free: float,
        vault_free: float,
        prev_row: int,
    ) -> tuple[float, bool, int]:
        """Re-serve one packet on a shadow device with injected state.

        The shadow runs the *real* ``HMCDevice._service_core`` against
        a null registry; only the timing state it will read (link free
        time, the target vault's free time, the target bank's open
        row) is injected, so its prediction is exactly what the object
        engine would have produced at this point of the run.
        """
        shadow = self._shadow
        if shadow is None:
            shadow = self._shadow = HMCDevice(self._device.config)
        t = self._t
        v = (addr // t.block_bytes) % t.num_vaults
        b = (addr // t.bank_stride) % t.banks_per_vault
        shadow.link.free_at_ns = link_free
        vault = shadow.vaults[v]
        vault.free_at_ns = vault_free
        vault.banks[b].open_row = None if prev_row < 0 else prev_row
        return shadow._service_core(
            addr, payload, bool(is_write), arrive_ns, requested
        )

    # -- whole-batch replay (no-feedback path) -------------------------------

    def replay_batch(
        self,
        addrs: list[int],
        payloads: list[int],
        writes: list[int],
        ats: list[int],
    ) -> list[int]:
        """Re-time a whole serviced column set in one NumPy pass.

        The feedback-free twin of :attr:`service` for verification
        sweeps and differential tests: vault/bank/row decomposition,
        FLIT schedules and transfer times resolve as columns
        (``np.take``), the open-row outcome via a grouped segmented
        scan over the stable per-bank subsequences, and only the
        irreducible link/vault recurrence runs per element -- in the
        exact object-engine float order, continuing the live timing
        state.  Does **not** record accounting (bank activation counts
        ride along with the row-state evolution); completion cycles
        are returned, and the timing state advances exactly as
        repeated :attr:`service` calls would advance it.
        """
        k = len(addrs)
        if not k:
            return []
        t = self._t
        cycle_ns = self._cycle_ns
        addr = np.array(addrs, dtype=np.int64)
        payload = np.array(payloads, dtype=np.int64)
        iw = np.array(writes, dtype=np.int64)
        at = np.array(ats, dtype=np.int64)
        arrive_l = (at.astype(np.float64) * cycle_ns).tolist()
        block = addr // t.block_bytes
        vault = block % t.num_vaults
        gbank = (addr // t.bank_stride) % t.banks_per_vault + vault * (
            t.banks_per_vault
        )
        row = addr // t.row_stride
        pidx = (payload >> 4) - 1
        li = pidx + t.n_payloads * iw
        tt_l = np.take(t.np_total, li).tolist()
        rt_l = np.take(t.np_req, li).tolist()
        xf_l = np.take(t.np_xfer, pidx).tolist()
        bank_rows = self._bank_rows
        acts = self._acts
        if t.closed_page:
            dram_l = [t.closed_ns] * k
            groups, counts = np.unique(gbank, return_counts=True)
            for g, c in zip(groups.tolist(), counts.tolist()):
                acts[g] = acts.get(g, 0) + c
        else:
            # Grouped segmented scan: within each bank's stable
            # subsequence the previously open row is the prior
            # element's row, except at segment heads where it is the
            # carried-in bank state.
            order = np.argsort(gbank, kind="stable")
            gs = gbank[order]
            rs = row[order]
            firsts = np.empty(k, dtype=bool)
            firsts[0] = True
            np.not_equal(gs[1:], gs[:-1], out=firsts[1:])
            prev_sorted = np.empty(k, dtype=np.int64)
            prev_sorted[1:] = rs[:-1]
            fidx = np.nonzero(firsts)[0]
            prev_sorted[fidx] = [bank_rows[g] for g in gs[fidx].tolist()]
            hit_sorted = prev_sorted == rs
            hits = np.empty(k, dtype=bool)
            hits[order] = hit_sorted
            dram_l = np.where(hits, t.hit_ns, t.miss_ns).tolist()
            # Final open row per touched bank = the row of its last
            # access (the lasts mask avoids unspecified duplicate-index
            # fancy assignment); activations count the misses per bank.
            lasts = np.empty(k, dtype=bool)
            lasts[:-1] = firsts[1:]
            lasts[-1] = True
            lidx = np.nonzero(lasts)[0]
            for g, r in zip(gs[lidx].tolist(), rs[lidx].tolist()):
                bank_rows[g] = r
            miss_sorted = ~hit_sorted
            if miss_sorted.any():
                seg = np.cumsum(firsts) - 1
                miss_counts = np.bincount(seg[miss_sorted], minlength=len(fidx))
                for g, c in zip(gs[fidx].tolist(), miss_counts.tolist()):
                    if c:
                        acts[g] = acts.get(g, 0) + c
        vault_l = vault.tolist()

        half = t.half_serdes
        snapshot, sync_link = self._lf
        link_free = snapshot()[0]
        vault_free = self._vault_free
        out: list[int] = [0] * k
        for j in range(k):
            a = arrive_l[j]
            v = vault_l[j]
            tt = tt_l[j]
            start = a if a > link_free else link_free
            link_free = start + tt
            av = (start + rt_l[j]) + half
            vf = vault_free[v]
            sv = av if av > vf else vf
            done = (sv + dram_l[j]) + xf_l[j]
            vault_free[v] = done
            complete = done + half
            cycles = int((complete - a) / cycle_ns)
            out[j] = ats[j] + (cycles if cycles > 1 else 1)
        sync_link(link_free)
        return out

    # -- finalization --------------------------------------------------------

    def finalize(self) -> None:
        """Reconstruct and apply all batch accounting to the device.

        Runs once, at the coalescing kernel's own finalize; the
        driver's ``apply_deferred_metrics()`` then publishes the
        device's series exactly as after an object-engine run.
        Counter-style totals decode from the packed code column; the
        latency total is the service closure's running sum, and every
        other float statistic is a sequential left fold replayed by
        ``np.cumsum`` (the same IEEE additions in the same order,
        zero-seeded like the pristine stack it attached to).
        """
        if self._finalized:
            return
        self._finalized = True
        device = self._device
        t = self._t
        link_free, last_complete, requested_sum, latency = self._snapshot()
        n = len(self._codes)
        if n:
            codes = np.array(self._codes, dtype=np.int64)
            waits = np.array(self._waits, dtype=np.float64)
            hit_col = codes & 1
            v_col = (codes >> 1) & 0x7FF
            li_col = codes >> 12
            pidx_col = li_col % t.n_payloads
            payload_col = (pidx_col + 1) << 4
            writes = int((li_col >= t.n_payloads).sum())
            hits = int(hit_col.sum())
            payload_sum = int(payload_col.sum())
            flits_sum = int(np.take(t.np_flits, li_col).sum())
            link_busy = float(np.cumsum(np.take(t.np_total, li_col))[-1])
            # dram + xfer per packet, the exact addend Vault.service
            # folds into its busy accumulators.
            if t.closed_page:
                dram_col = np.full(n, t.closed_ns)
            else:
                dram_col = np.where(hit_col.astype(bool), t.hit_ns, t.miss_ns)
            dxf = dram_col + np.take(t.np_xfer, pidx_col)
        else:
            writes = hits = payload_sum = flits_sum = 0
            link_busy = 0.0
        reads = n - writes
        misses = n - hits
        control = n * REQUEST_CONTROL_BYTES

        s = device.stats
        s.requests += n
        s.reads += reads
        s.writes += writes
        s.payload_bytes += payload_sum
        s.requested_bytes += requested_sum
        s.control_bytes += control
        s.row_hits += hits
        s.row_misses += misses
        s.total_latency_ns = latency
        s.last_complete_ns = last_complete
        if n:
            hist = s.size_histogram
            sizes, counts = np.unique(payload_col, return_counts=True)
            for size, count in zip(sizes.tolist(), counts.tolist()):
                hist[size] = hist.get(size, 0) + count

        link = device.link
        ls = link.stats
        ls.transactions += n
        ls.flits += flits_sum
        ls.payload_bytes += payload_sum
        ls.control_bytes += control
        ls.busy_ns = link_busy

        for v, vault in enumerate(device.vaults):
            if n:
                mask = v_col == v
                v_req = int(mask.sum())
            else:
                v_req = 0
            if v_req:
                v_hits = int(hit_col[mask].sum())
                v_busy = float(np.cumsum(dxf[mask])[-1])
                v_waits_col = waits[mask]
                v_queued = float(np.cumsum(v_waits_col)[-1])
                v_waits = v_waits_col.tolist()
            else:
                v_hits = 0
                v_busy = v_queued = 0.0
                v_waits = []
            vs = vault.stats
            vs.requests += v_req
            vs.row_hits += v_hits
            vs.row_misses += v_req - v_hits
            vs.busy_ns = v_busy
            vs.queued_ns = v_queued
            vault._waits.extend(v_waits)

        bpv = t.banks_per_vault
        for g, count in self._acts.items():
            device.vaults[g // bpv].banks[g % bpv].activations += count

        bank_rows = self._bank_rows
        device.import_timing_state(
            (
                link_free,
                list(self._vault_free),
                [
                    [
                        None if bank_rows[v * bpv + b] < 0
                        else bank_rows[v * bpv + b]
                        for b in range(bpv)
                    ]
                    for v in range(t.num_vaults)
                ],
            )
        )
