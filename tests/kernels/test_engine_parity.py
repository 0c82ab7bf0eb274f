"""Engine parity: object and vector engines are bit-identical.

The kernel engine contract (``docs/architecture.md``): engine choice
is an execution concern that must never change a result.  These tests
compare full-run :func:`result_digest` values -- the serialized result
plus every metric value -- across engines, per coalescer config, against
pinned absolute digests for every benchmark x figure config, and
across the trace store in both capture/replay directions, plus raw
trace-buffer bytes for the capture kernel on its own.  Whether a
coalescer records its per-request streams is an execution concern
too: it must not change a stat or a metric on either engine.  Hostile
trace rows (misaligned addresses, no requested bytes) either replay
equally on both engines or fail with a typed error.
"""

from dataclasses import replace

import pytest

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.tracer import MemoryTracer
from repro.core.coalescer import MemoryCoalescer
from repro.core.request import Access, RequestType
from repro.hmc.device import HMCDevice
from repro.kernels import coalesce as coalesce_kernel
from repro.kernels import hmc as hmc_kernel
from repro.kernels import resolve_engine
from repro.kernels.capture import batch_capture, supports_vector_capture
from repro.kernels.replay import vector_replay
from repro.obs import MetricsRegistry
from repro.perf.digest import result_digest
from repro.sim.driver import (
    PlatformConfig,
    _make_service_time,
    _replay_benchmark,
    run_benchmark,
)
from repro.sim.sweep import FIGURE_CONFIGS
from repro.trace import TraceBuffer, TraceStore, replay_trace, trace_key
from repro.trace.buffer import TraceError
from repro.workloads import BENCHMARKS, get_workload
from repro.workloads.base import Workload


def _object_capture(workload, platform):
    """The live path's capture: a tracer run teed into a buffer."""
    hierarchy = CacheHierarchy(platform.hierarchy)
    tracer = MemoryTracer(
        hierarchy, cycles_per_access=platform.cycles_per_access
    )
    buffer = TraceBuffer()
    for record in tracer.trace(workload.accesses(platform.accesses)):
        buffer.append_record(record)
    return buffer, tracer.stats.cpu_accesses, hierarchy.secondary_misses


#: ``result_digest`` of every benchmark x figure config at 1000 accesses
#: on the default platform.  Engine agreement alone cannot catch a
#: change that moves both engines the same way; these absolute pins
#: can.  Regenerate only for a change meant to alter results, and say
#: why in CHANGES.md.
PINNED_DIGESTS = {
    ("SG", "uncoalesced"): "a0d4303f80b66339eaea8ecb6e8ba815009d3f076d07587996d9707ad3daa4f3",
    ("SG", "mshr_only"): "225629ffc2affcbf6b07cb2d0fe42470e892a45039e91ffb03872749e7f23848",
    ("SG", "dmc_only"): "a2f2859bcf06e42fe4c41f5661a702e1209ab17d3c33fda97da728935a037005",
    ("SG", "combined"): "671354f2fba7913db0e14a5ee55bda860df03a1f7acf5646f78797e223a78e79",
    ("HPCG", "uncoalesced"): "bc5c5e1297014f00ca70f76d9677e9b66009bc74e23ca7110ce3f2a6b816cd53",
    ("HPCG", "mshr_only"): "ee2ab778d8296c59a13c1ec5ca502417a718c0af3c82561a8ac13809a5d91645",
    ("HPCG", "dmc_only"): "8202c0570b2099c5cc48510718d425fd782f9da4523e7c49bcd96a470e13b632",
    ("HPCG", "combined"): "d80cf4daf74a9cc1430fad2965027a7b507afa199d8b543c6645c3eecafdc20b",
    ("SSCA2", "uncoalesced"): "b56340efd4f4fdcf442fe6eab3aab4878b5c5746cfc78539cbd6e6b184e515e6",
    ("SSCA2", "mshr_only"): "e24648c84776ae7393e4a2fe8928794e0eed11c475d36236fe38db728a7277aa",
    ("SSCA2", "dmc_only"): "465d1a1c7f188719a85f44e7a3e1d3aee5593987c1e023faf6bc1082fbfe804b",
    ("SSCA2", "combined"): "dab6a47efbe3399abbcf655b8c5e8337c098cb6306e7e2fdbd3e32e050b294b0",
    ("STREAM", "uncoalesced"): "769f6ad2b800ce3df6e7653bd7510bbde3472ba7c4d9f7d6917f033ed0a306d8",
    ("STREAM", "mshr_only"): "107bd62a15c1938adc9de17aba8da81e737e4643dfeaed9aa0e83f5a3ba8ba61",
    ("STREAM", "dmc_only"): "c42c5cb5061f0a7498f64564599977767099d1f257f041c2708c60b3e7b7f83d",
    ("STREAM", "combined"): "aeee40daa5f7dd0e7cbfcf2c46e726ad0de710310afffb46e3d6b2884213f3ab",
    ("Sort", "uncoalesced"): "90ca4bd6fcbc2d5d42572e3bd26ca1fbfb23c4a82f2aa7e02c230e81e6d5f616",
    ("Sort", "mshr_only"): "d047194261aef47b38fdeb81ad87a812557fd25693fe007677842d5523f73fb5",
    ("Sort", "dmc_only"): "1371ea861177002be54f306d3e5c3ea13808a2f4b922c3b33c780e01a57dac6e",
    ("Sort", "combined"): "f98c745609f770a943d2f05045c98722468fae05e6b8286190aba2db5c0c0306",
    ("SparseLU", "uncoalesced"): "b10541d82f0d866a4887258df8b7b73535fb750ba36ffb026bc0387ddc6d17c0",
    ("SparseLU", "mshr_only"): "400dce447692a48f6a0726c79526821aefc13f27bd0de70111619fee76fe1696",
    ("SparseLU", "dmc_only"): "a89707cd53a45017eb07a562d374eb0d05da8befa4538c31e87656ea34adb6ae",
    ("SparseLU", "combined"): "c2cb0ae6a1a44d317e9a310e687d2efd9463ecadfe649d93d9429675f463c8fd",
    ("EP", "uncoalesced"): "704125250d86b06af096af281c3ab9db50b17042a604224293bd82a13d27aa84",
    ("EP", "mshr_only"): "e5f7c8fd2e7dc8f19b42653d0af28d9bd02adb1369df78ae40af466b5bb6314e",
    ("EP", "dmc_only"): "6a4966c8f8507f6eb09b7fdc08931659acdc2bfb15ffdf8588e50f6953cd5fd5",
    ("EP", "combined"): "623497b5b6c861f4f36bd2ba85f2295c0cc89365c75c5bc06f8ce56f7318d9e2",
    ("FT", "uncoalesced"): "5f3576fa37ddb8d67f6ee053fb4d57c99d59fc9afed674353e40693a098366ee",
    ("FT", "mshr_only"): "f78aefc24efc19ac1987332fe4cbbd648d4e8536a4d1df1682420c1d47cf2ade",
    ("FT", "dmc_only"): "247eb20ce5714a11a70fec6dd104d5f47bbba4e0e312687c9e499e2b1be19a43",
    ("FT", "combined"): "a17209927b29be9b3299a5712585e4d64650a8b224cd5aa29079bf3c1bff8516",
    ("LU", "uncoalesced"): "3d65d70b0e6579b65c8ee2dc1ab717139271acbf739b9c39586c53b571b83c63",
    ("LU", "mshr_only"): "2649ec529f7eba00b7f482c70c082fb39d5af02813297e5e81e450d26c31600a",
    ("LU", "dmc_only"): "aca1b9b4c0b82472bdd75f7295897fa68d0d4e74375e4d60c7ae41d25eeb853a",
    ("LU", "combined"): "b491daffa8c0aeadb198c93e2063abfbe10a7c9807b8082d58c1967113d6f41b",
    ("SP", "uncoalesced"): "a3feedf116a13268365475450235d138deee547bb4c4d1e0f46932acad3a1e3d",
    ("SP", "mshr_only"): "c105c00e8282e8bb295629407a506a21686514adfc74b3197a0b54b655e7a667",
    ("SP", "dmc_only"): "cbc88ab77a6d52906037f55c7d48b641522989fc290fb6413f0d69708d0d177e",
    ("SP", "combined"): "0d524319724398d03529ae92b9cc167251ff603d35f19f4bb5b005b937e5bd1f",
    ("CG", "uncoalesced"): "0d4160dd5fef44af3452fc74e6cc613df52d7814712cab509bba9884e0205a39",
    ("CG", "mshr_only"): "80aafd4590d68970c319e334adfdffafbd6e5cb37fbd72ffde5b7c074b4c8538",
    ("CG", "dmc_only"): "d098b05972304e594f84ca0555500bfc5698864b38615485c5b81930ef904bab",
    ("CG", "combined"): "b69e47b7fd35c7dd9f5c68e8fcbba82da0e5479d8bad13502518b48713e34ddc",
    ("MG", "uncoalesced"): "0a875696e2f84115851d39fb29d324e3a6de4fec3e6fad705ea4be46f202fd88",
    ("MG", "mshr_only"): "5dfc280b3ce228417167f52aa3cd3962c1871f860ae184e279a0736994e9c9f8",
    ("MG", "dmc_only"): "c5f7a1b2ebd95e461cfde79e3d532244179f5205c0776fe3d76055e01cd5c2e9",
    ("MG", "combined"): "345ddbf8e1349cc224fe813a6e6548a71bb4706a5e8c606c8302ef7efda595d2",
}


@pytest.mark.parametrize("config", tuple(FIGURE_CONFIGS))
@pytest.mark.parametrize("bench", tuple(BENCHMARKS))
def test_engine_digest_parity(bench, config):
    platform = PlatformConfig(accesses=1000)
    coalescer = FIGURE_CONFIGS[config]
    obj = run_benchmark(
        bench, platform=platform, coalescer=coalescer, engine="object"
    )
    kernels = (coalesce_kernel, hmc_kernel)
    before = [k.kernel_counters() for k in kernels]
    vec = run_benchmark(
        bench, platform=platform, coalescer=coalescer, engine="vector"
    )
    after = [k.kernel_counters() for k in kernels]
    assert result_digest(obj) == PINNED_DIGESTS[bench, config]
    assert result_digest(vec) == PINNED_DIGESTS[bench, config]
    # Every figure config, with or without the DMC unit, runs on the
    # coalescing kernel and the HMC back end behind it.
    for b, a in zip(before, after):
        assert a["engaged"] == b["engaged"] + 1
        assert a["delegated"] == b["delegated"]
        assert a["fallbacks"] == b["fallbacks"]


@pytest.mark.parametrize("bench", ("SG", "STREAM", "SparseLU"))
def test_batch_capture_buffer_is_byte_identical(bench):
    platform = PlatformConfig(accesses=1500)
    workload = get_workload(
        bench, num_threads=platform.num_threads, seed=platform.seed
    )
    ref, ref_accesses, ref_secondary = _object_capture(workload, platform)
    vec, vec_accesses, vec_secondary = batch_capture(workload, platform)
    assert vec_accesses == ref_accesses
    assert vec_secondary == ref_secondary
    assert vec.to_bytes() == ref.to_bytes()


class _FencedStrides(Workload):
    """Custom iterator with fences: exercises the generic column path."""

    name = "FencedStrides"

    def thread_phases(self, tid, n, rng):  # pragma: no cover - unused
        raise NotImplementedError

    def accesses(self, total_accesses, *, burst: int = 1):
        for i in range(total_accesses):
            if i % 9 == 8:
                yield Access(addr=0, size=0, rtype=RequestType.FENCE)
            else:
                yield Access(
                    addr=64 * ((i * 37) % 211) + (i % 48),
                    size=8 + (i % 3) * 16,
                    rtype=RequestType.STORE if i % 3 == 1 else RequestType.LOAD,
                    thread_id=i % self.num_threads,
                )


def test_batch_capture_handles_custom_workloads_with_fences():
    platform = PlatformConfig(accesses=800)
    workload = _FencedStrides(num_threads=platform.num_threads)
    ref, ref_accesses, ref_secondary = _object_capture(workload, platform)
    vec, vec_accesses, vec_secondary = batch_capture(workload, platform)
    assert vec_accesses == ref_accesses
    assert vec_secondary == ref_secondary
    assert vec.to_bytes() == ref.to_bytes()


@pytest.mark.parametrize(
    "capture_engine,replay_engine", [("object", "vector"), ("vector", "object")]
)
def test_store_interplay_across_engines(tmp_path, capture_engine, replay_engine):
    """A trace captured by either engine replays bit-exactly on the other."""
    platform = PlatformConfig(accesses=900)
    store = TraceStore(tmp_path)
    captured = run_benchmark(
        "FT", platform=platform, trace_store=store, engine=capture_engine
    )
    replayed = run_benchmark(
        "FT", platform=platform, trace_store=store, engine=replay_engine
    )
    assert store.misses == 1 and store.hits == 1
    assert result_digest(captured) == result_digest(replayed)


_STREAM_BENCHES = ("SG", "FT", "STREAM")


@pytest.fixture(scope="module")
def stored_traces():
    """One stored 2000-access capture per benchmark, shared by configs."""
    platform = PlatformConfig(accesses=2000)
    store = TraceStore()
    for bench in _STREAM_BENCHES:
        run_benchmark(bench, platform=platform, trace_store=store)
    return platform, {
        bench: store.get(trace_key(bench, platform)) for bench in _STREAM_BENCHES
    }


@pytest.mark.parametrize("engine", ("object", "vector"))
@pytest.mark.parametrize("config", tuple(FIGURE_CONFIGS))
@pytest.mark.parametrize("bench", _STREAM_BENCHES)
def test_stream_recording_changes_no_stat_or_metric(
    stored_traces, bench, config, engine
):
    """``record_streams`` only decides whether the per-request streams
    are kept: a recording and a non-recording stack replaying one trace
    report equal stats and registries, on either engine."""
    platform, buffers = stored_traces
    replay = vector_replay if engine == "vector" else replay_trace

    def replayed(record: bool):
        registry = MetricsRegistry()
        device = HMCDevice(platform.hmc, registry)
        coal = MemoryCoalescer(
            FIGURE_CONFIGS[config],
            service_time=_make_service_time(device, platform.cycle_ns),
            registry=registry,
            record_streams=record,
        )
        replay(buffers[bench], coalescer=coal)
        coal.publish_metrics()
        device.apply_deferred_metrics()
        return coal, device, registry

    rec, rec_device, rec_registry = replayed(True)
    bare, bare_device, bare_registry = replayed(False)
    stats = rec.stats()
    assert bare.stats() == stats
    assert bare_device.stats == rec_device.stats
    assert bare_registry.as_flat_dict() == rec_registry.as_flat_dict()
    assert bare.issued == [] and bare.serviced == []
    assert len(rec.issued) == stats.hmc_requests
    assert len(rec.serviced) == stats.llc_requests


def _stock_coalescer(platform, config):
    device = HMCDevice(platform.hmc, MetricsRegistry())
    return MemoryCoalescer(
        config,
        service_time=_make_service_time(device, platform.cycle_ns),
        record_streams=False,
    )


@pytest.mark.parametrize("config", ("uncoalesced", "combined"))
def test_misaligned_trace_row_fails_at_decode(stored_traces, config):
    """A non-fence row off a line boundary is hostile input, also when
    the address is a multiple of the row's own size.  The vector engine
    rejects it while decoding the columns, before any kernel state
    exists, with a TraceError naming the row; the object engine raises
    the request's own ValueError when it gets there."""
    platform, buffers = stored_traces
    cfg = FIGURE_CONFIGS[config]
    # The row keeps its line size, then takes a size its shifted
    # address is a multiple of.
    for size in (None, 8):
        hostile = TraceBuffer.from_bytes(buffers["SG"].to_bytes())
        row = next(
            i
            for i in range(len(hostile) // 2, len(hostile))
            if hostile.flags[i] & 0b11 != int(RequestType.FENCE)
        )
        hostile.addrs[row] += 8
        if size is not None:
            hostile.sizes[row] = size

        coal = _stock_coalescer(platform, cfg)
        engaged = coalesce_kernel.COUNTERS.engaged
        with pytest.raises(TraceError, match=f"trace row {row}:"):
            vector_replay(hostile, coalescer=coal)
        assert coalesce_kernel.COUNTERS.engaged == engaged
        assert coal.mshrs.stats.offered == 0 and coal.crq.stats.pushes == 0

        with pytest.raises(ValueError, match="MemoryRequest .* not line aligned"):
            replay_trace(hostile, coalescer=_stock_coalescer(platform, cfg))


@pytest.mark.parametrize("config", tuple(FIGURE_CONFIGS))
def test_zero_requested_bytes_replay_equal_on_both_engines(
    stored_traces, config
):
    """Rows that record no requested bytes count as their line size on
    both engines: the object engine normalizes each request, the
    vector engine the whole column at decode."""
    platform, buffers = stored_traces
    hostile = TraceBuffer.from_bytes(buffers["SG"].to_bytes())
    for i in range(0, len(hostile), 3):
        hostile.requested[i] = 0
    platform = platform.with_coalescer(FIGURE_CONFIGS[config])
    digests = {
        engine: result_digest(
            _replay_benchmark(
                hostile, platform=platform, profiler=None, engine=engine
            )
        )
        for engine in ("object", "vector")
    }
    assert digests["object"] == digests["vector"]


def test_prefetch_platforms_fall_back_to_the_object_path():
    platform = PlatformConfig(accesses=900)
    platform = replace(
        platform, hierarchy=replace(platform.hierarchy, llc_prefetch=True)
    )
    assert not supports_vector_capture(platform)
    obj = run_benchmark("STREAM", platform=platform, engine="object")
    vec = run_benchmark("STREAM", platform=platform, engine="vector")
    assert result_digest(obj) == result_digest(vec)


@pytest.mark.parametrize("config", ("uncoalesced", "combined"))
def test_non_stock_stacks_delegate_to_the_object_machinery(monkeypatch, config):
    """A stack outside the kernel envelope (here the reference MSHR
    file) delegates, with or without the DMC unit: the whole trace
    replays once on the object replay loop."""
    import repro.core.coalescer as coalescer_module
    from repro.core.mshr_reference import ReferenceMSHRFile
    from repro.kernels import replay as replay_module

    object_replays = []
    object_replay = replay_module.replay_trace

    def counted(*args, **kwargs):
        object_replays.append(args)
        return object_replay(*args, **kwargs)

    platform = PlatformConfig(accesses=900)
    coalescer = FIGURE_CONFIGS[config]
    obj = run_benchmark(
        "FT", platform=platform, coalescer=coalescer, engine="object"
    )
    monkeypatch.setattr(
        coalescer_module, "DEFAULT_MSHR_FACTORY", ReferenceMSHRFile
    )
    monkeypatch.setattr(replay_module, "replay_trace", counted)
    before = coalesce_kernel.kernel_counters()
    vec = run_benchmark(
        "FT", platform=platform, coalescer=coalescer, engine="vector"
    )
    after = coalesce_kernel.kernel_counters()
    assert after["engaged"] == before["engaged"]
    assert after["delegated"] == before["delegated"] + 1
    assert len(object_replays) == 1
    assert result_digest(vec) == result_digest(obj)


def test_resolve_engine_contract():
    assert resolve_engine(None) in ("object", "vector")
    assert resolve_engine("object") == "object"
    assert resolve_engine("vector") == "vector"
    with pytest.raises(ValueError):
        resolve_engine("gpu")
