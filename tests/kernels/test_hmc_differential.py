"""Differential suite for the batched HMC back-end timing kernel.

Two layers of properties:

* **Unit differential** -- random packet streams (Hypothesis owns the
  randomness) run through the object engine's ``service_time`` closure
  on one device and through :class:`BatchedHMCBackend.service` on
  another; per-packet completion cycles, every stats dataclass, bank
  activation counts and the flattened metrics registry must be
  bit-identical after the end-of-run publish.  Streams cover row-hit/miss
  boundaries (same-bank row ping-pong), vault-queue saturation (every
  packet on one vault) and both page policies; ``replay_batch`` -- the
  feedback-free whole-batch NumPy pass -- must advance the timing
  state exactly like repeated ``service`` calls.

* **End-to-end differential** -- scripted access streams (with fences
  pinned next to flush boundaries) run under the object and vector
  engines; the vector run must engage the HMC back end (no silent
  delegation) and produce a bit-identical :func:`result_digest`.  A
  forced verification miss checks the fallback contract: the run falls
  back to the object engine whole, the miss is counted, and the result
  is still bit-identical.
"""

from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import CoalescerConfig
from repro.core.request import Access, CoalescedRequest, RequestType
from repro.hmc.device import HMCDevice
from repro.hmc.timing import HMCTimingConfig
from repro.kernels import hmc as hk
from repro.kernels.hmc import (
    BatchedHMCBackend,
    HMCKernelError,
    hmc_constant_tables,
)
from repro.obs import MetricsRegistry
from repro.perf.digest import result_digest
from repro.sim.driver import PlatformConfig, _make_service_time, run_benchmark
from repro.workloads.base import Workload

_CYCLE_NS = 1.0

#: Small-capacity config so generated addresses stay dense per bank.
_OPEN = HMCTimingConfig()
_CLOSED = replace(_OPEN, page_policy="closed")


def _flat(registry: MetricsRegistry) -> dict:
    out: dict = {}
    for metric in registry.metrics():
        if metric.kind == "histogram":
            out[metric.name] = sorted(
                (
                    tuple(sorted(labels.items())),
                    series.count,
                    series.sum,
                    tuple(series.counts),
                )
                for labels, series in metric.samples()
            )
        else:
            out[metric.name] = sorted(
                (tuple(sorted(labels.items())), value)
                for labels, value in metric.samples()
            )
    return out


# -- packet stream strategies ------------------------------------------------
#
# Rows are (block, line offset, num_lines selector, write, cycle gap);
# addresses are line-aligned and clamped so no packet crosses its 256 B
# block (the object engine's envelope).

_ROWS = st.lists(
    st.tuples(
        st.integers(0, 4095),  # block index (spans vaults, banks, rows)
        st.integers(0, 3),  # line offset within the block
        st.sampled_from((1, 2, 4)),  # lines -> 64/128/256 B payloads
        st.booleans(),  # store?
        st.integers(0, 6),  # issue-cycle gap
    ),
    min_size=30,
    max_size=220,
)


def _requests(rows, *, block_of=None):
    """Materialize (request, issue_cycle) pairs from strategy rows."""
    out = []
    at = 0
    for block, off, lines, write, gap in rows:
        if block_of is not None:
            block = block_of(block)
        if off + lines > 4:
            off = 4 - lines
        at += gap
        out.append(
            (
                CoalescedRequest(
                    addr=block * 256 + off * 64,
                    num_lines=lines,
                    rtype=RequestType.STORE if write else RequestType.LOAD,
                ),
                at,
            )
        )
    return out


def _object_run(config, stream):
    """Drive the object engine; returns (cycles, device)."""
    device = HMCDevice(config, registry=MetricsRegistry())
    service_time = _make_service_time(device, _CYCLE_NS)
    cycles = [at + service_time(req, at) for req, at in stream]
    device.apply_deferred_metrics()
    return cycles, device


def _backend_run(config, stream):
    """Drive the batched back end; returns (cycles, device, backend)."""
    device = HMCDevice(config, registry=MetricsRegistry())
    backend = BatchedHMCBackend(
        device, _CYCLE_NS, hmc_constant_tables(config, _CYCLE_NS)
    )
    cycles = [backend.service(req, at) for req, at in stream]
    backend.finalize()
    device.apply_deferred_metrics()
    return cycles, device, backend


def _assert_devices_match(obj: HMCDevice, vec: HMCDevice):
    assert vec.stats == obj.stats
    assert vec.link.stats == obj.link.stats
    assert vec.link.free_at_ns == obj.link.free_at_ns
    for ov, vv in zip(obj.vaults, vec.vaults):
        assert vv.stats == ov.stats
        assert vv.free_at_ns == ov.free_at_ns
        for ob, vb in zip(ov.banks, vv.banks):
            assert vb.open_row == ob.open_row
            assert vb.activations == ob.activations
    assert _flat(vec.registry) == _flat(obj.registry)


@settings(max_examples=40, deadline=None)
@given(rows=_ROWS)
def test_random_streams_match_object_engine(rows):
    stream = _requests(rows)
    obj_cycles, obj_dev = _object_run(_OPEN, stream)
    vec_cycles, vec_dev, _ = _backend_run(_OPEN, stream)
    assert vec_cycles == obj_cycles
    _assert_devices_match(obj_dev, vec_dev)


@settings(max_examples=25, deadline=None)
@given(rows=_ROWS)
def test_closed_page_matches_object_engine(rows):
    stream = _requests(rows)
    obj_cycles, obj_dev = _object_run(_CLOSED, stream)
    vec_cycles, vec_dev, _ = _backend_run(_CLOSED, stream)
    assert vec_cycles == obj_cycles
    _assert_devices_match(obj_dev, vec_dev)


@settings(max_examples=25, deadline=None)
@given(rows=_ROWS, rowbit=st.integers(0, 3))
def test_row_boundary_ping_pong_matches(rows, rowbit):
    """Same bank, two rows: hit/miss boundaries on every toggle.

    Blocks are pinned to bank 0 of vault 0 and alternate between two
    rows selected by one strategy-chosen block bit, so consecutive
    packets exercise exactly the open-row transitions.
    """
    num_vaults = _OPEN.num_vaults
    banks = _OPEN.banks_per_vault
    row_blocks = num_vaults * banks * max(1, _OPEN.row_bytes // _OPEN.block_bytes)
    stream = _requests(
        rows, block_of=lambda b: ((b >> rowbit) & 1) * row_blocks
    )
    obj_cycles, obj_dev = _object_run(_OPEN, stream)
    vec_cycles, vec_dev, _ = _backend_run(_OPEN, stream)
    assert vec_cycles == obj_cycles
    _assert_devices_match(obj_dev, vec_dev)


@settings(max_examples=25, deadline=None)
@given(rows=_ROWS)
def test_vault_queue_saturation_matches(rows):
    """Every packet on vault 0: the FIFO backlog dominates timing."""
    num_vaults = _OPEN.num_vaults
    stream = _requests(rows, block_of=lambda b: (b // num_vaults) * num_vaults)
    obj_cycles, obj_dev = _object_run(_OPEN, stream)
    vec_cycles, vec_dev, _ = _backend_run(_OPEN, stream)
    assert vec_cycles == obj_cycles
    assert obj_dev.vaults[0].stats.requests == len(stream)
    _assert_devices_match(obj_dev, vec_dev)


@settings(max_examples=20, deadline=None)
@given(rows=_ROWS, split=st.integers(0, 220), closed=st.booleans())
def test_replay_batch_advances_state_like_service(rows, split, closed):
    """The whole-batch NumPy pass is timing-equivalent to service().

    A prefix runs through ``service`` on both backends (building up
    arbitrary link/vault/bank state), then the suffix runs per-packet
    on one and as a single ``replay_batch`` on the other: completion
    cycles and the resulting timing state must be identical.
    """
    config = _CLOSED if closed else _OPEN
    stream = _requests(rows)
    split = min(split, len(stream))
    _, _, scalar = _backend_run(config, stream[:split])
    _, _, batched = _backend_run(config, stream[:split])
    tail = stream[split:]
    scalar_cycles = [scalar.service(req, at) for req, at in tail]
    batch_cycles = batched.replay_batch(
        [req.addr for req, _ in tail],
        [req.num_lines * 64 for req, _ in tail],
        [1 if req.rtype is RequestType.STORE else 0 for req, _ in tail],
        [at for _, at in tail],
    )
    assert batch_cycles == scalar_cycles
    assert batched._vault_free == scalar._vault_free
    assert batched._bank_rows == scalar._bank_rows
    assert batched._acts == scalar._acts


def test_envelope_violation_raises_kernel_error():
    device = HMCDevice(_OPEN, registry=MetricsRegistry())
    backend = BatchedHMCBackend(
        device, _CYCLE_NS, hmc_constant_tables(_OPEN, _CYCLE_NS)
    )
    bad = CoalescedRequest(
        addr=_OPEN.capacity_bytes, num_lines=1, rtype=RequestType.LOAD
    )
    before = hk.kernel_counters()["fallbacks"]
    try:
        backend.service(bad, 0)
    except HMCKernelError:
        pass
    else:  # pragma: no cover - the raise is the contract
        raise AssertionError("expected HMCKernelError")
    assert hk.kernel_counters()["fallbacks"] == before + 1


def test_warm_device_delegates():
    """attach_backend refuses anything but a pristine stack."""
    from repro.kernels.coalesce import BatchedCoalescer  # noqa: F401

    device = HMCDevice(_OPEN, registry=MetricsRegistry())
    device.service(0, 64)  # warm it up
    fn = _make_service_time(device, _CYCLE_NS)

    class _Host:
        _service_time = staticmethod(fn)

    before = hk.kernel_counters()["delegated"]
    assert hk.attach_backend(_Host()) is None
    assert hk.kernel_counters()["delegated"] == before + 1


# -- end-to-end: scripted workloads through the replay driver ----------------


class _Scripted(Workload):
    """Replays a fixed access list (hypothesis owns the randomness)."""

    name = "ScriptedHMCDifferential"

    def __init__(self, events, num_threads: int = 4):
        super().__init__(num_threads=num_threads)
        self._events = events

    def thread_phases(self, tid, n, rng):  # pragma: no cover - unused
        raise NotImplementedError

    def accesses(self, total_accesses: int, *, burst: int = 1):
        yield from self._events[:total_accesses]


def _platform(accesses: int) -> PlatformConfig:
    base = PlatformConfig(accesses=accesses)
    return replace(
        base,
        hierarchy=replace(
            base.hierarchy, l1_size=1024, l2_size=2048, llc_size=4096
        ),
        coalescer=CoalescerConfig(),
    )


def _events(rows, fence_offset=None):
    out = []
    for fence_sel, line, off, size, rtype_sel, tid in rows:
        if fence_sel == 9 and fence_offset is None:
            out.append(Access(addr=0, size=0, rtype=RequestType.FENCE))
        else:
            out.append(
                Access(
                    addr=line * 64 + off * 16,
                    size=size,
                    rtype=(
                        RequestType.STORE
                        if rtype_sel == 2
                        else RequestType.LOAD
                    ),
                    thread_id=tid,
                )
            )
    if fence_offset is not None:
        width = CoalescerConfig().sorter_width
        for pos in range(width + fence_offset, len(out), width):
            out[pos] = Access(addr=0, size=0, rtype=RequestType.FENCE)
    return out


_EVENT_ROWS = st.lists(
    st.tuples(
        st.integers(0, 9),
        st.integers(0, 63),
        st.integers(0, 3),
        st.sampled_from((1, 4, 8, 16, 32)),
        st.integers(0, 2),
        st.integers(0, 3),
    ),
    min_size=100,
    max_size=240,
)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(rows=_EVENT_ROWS, fence_offset=st.none() | st.integers(-1, 1))
def test_end_to_end_engages_backend_and_matches(rows, fence_offset):
    """Vector replay with the HMC back end is digest-identical.

    ``fence_offset`` (when drawn) pins fences one row before, on, or
    after flush-width multiples, so verification fires on the packet
    after each fence drain -- the windows where stale timing state
    would surface first.
    """
    events = _events(rows, fence_offset)
    workload = _Scripted(events)
    platform = _platform(len(events))
    obj = run_benchmark(workload, platform=platform, engine="object")
    before = hk.kernel_counters()
    vec = run_benchmark(workload, platform=platform, engine="vector")
    after = hk.kernel_counters()
    assert after["engaged"] == before["engaged"] + 1
    assert after["fallbacks"] == before["fallbacks"]
    assert result_digest(vec) == result_digest(obj)


def test_verification_miss_falls_back_whole_run(monkeypatch):
    """A shadow mismatch discards the run and re-runs the object engine.

    The fallback is counted once, by the HMC kernel that raised it; the
    coalescing kernel's counters do not move.
    """
    from repro.kernels import coalesce as ck

    rows = [(i % 9, (i * 13) % 64, i % 4, 8, i % 3, i % 4) for i in range(240)]
    events = _events(rows)
    workload = _Scripted(events)
    platform = _platform(len(events))
    obj = run_benchmark(workload, platform=platform, engine="object")

    monkeypatch.setattr(
        BatchedHMCBackend,
        "_shadow_service",
        lambda self, *args: (-1.0, False, -1),
    )
    before = hk.kernel_counters()
    coalesce_before = ck.kernel_counters()
    vec = run_benchmark(workload, platform=platform, engine="vector")
    after = hk.kernel_counters()
    assert after["fallbacks"] == before["fallbacks"] + 1
    assert (
        after["fallback_reasons"]["hmc-verify-miss"]
        == before["fallback_reasons"].get("hmc-verify-miss", 0) + 1
    )
    assert ck.kernel_counters()["fallbacks"] == coalesce_before["fallbacks"]
    assert result_digest(vec) == result_digest(obj)
