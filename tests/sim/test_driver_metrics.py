"""Driver-level observability tests.

Each stage counts its events once, in its ``*Stats`` dataclass (plus
small tallies), and its publish method writes the registry series from
those counts at the end of the run.  These tests run one real
benchmark and check every series against its ``*Stats`` field, which
catches a publish method that drifts from the stats it exports, and
check request conservation from those counts on every figure-grid
cell, on both engines.
"""

import json

import pytest

from repro.obs import MetricsRegistry, PhaseProfiler
from repro.obs.export import registry_from_json_lines, registry_to_json_lines
from repro.sim.driver import PlatformConfig, run_benchmark
from repro.sim.sweep import FIGURE_CONFIGS
from repro.workloads import BENCHMARKS

SMALL = PlatformConfig(accesses=6_000)


@pytest.fixture(scope="module")
def result():
    return run_benchmark("HPCG", platform=SMALL)


@pytest.fixture(scope="module")
def reg(result) -> MetricsRegistry:
    assert result.metrics is not None
    return result.metrics


class TestRegistryAgreesWithLegacyStats:
    def test_tracer(self, result, reg):
        t = result.tracer
        assert reg.counter("tracer_cpu_accesses_total").total() == t.cpu_accesses
        assert reg.counter("tracer_llc_requests_total").total() == t.llc_requests
        assert (
            reg.counter("tracer_requested_bytes_total").total()
            == t.requested_bytes
        )

    def test_sorter(self, result, reg):
        p = result.coalescer.pipeline
        seq = reg.counter("sorter_sequences_total")
        assert seq.total() == p.sequences
        assert seq.value(reason="full") == p.flushes_full
        assert seq.value(reason="timeout") == p.flushes_timeout
        assert seq.value(reason="fence") == p.flushes_fence
        assert seq.value(reason="drain") == p.flushes_drain
        assert reg.counter("sorter_requests_total").total() == p.requests_sorted
        assert reg.counter("sorter_padding_slots_total").total() == p.padding_slots
        assert reg.counter("sorter_comparator_ops_total").total() == p.comparator_ops
        assert reg.counter("sorter_fence_slots_total").total() == p.fence_slots
        assert (
            reg.counter("sorter_stages_skipped_total").total() == p.stages_skipped
        )
        assert (
            reg.get("sorter_sort_latency_cycles").total()
            == p.total_sort_latency_cycles
        )
        assert (
            reg.get("sorter_wait_cycles").total() == p.total_wait_latency_cycles
        )
        assert reg.get("sorter_occupancy").count() == p.sequences

    def test_dmc(self, result, reg):
        d = result.coalescer.dmc
        assert reg.counter("dmc_sequences_total").total() == d.sequences
        assert reg.counter("dmc_requests_in_total").total() == d.requests_in
        assert reg.counter("dmc_packets_out_total").total() == d.packets_out
        assert reg.counter("dmc_comparisons_total").total() == d.comparisons
        assert reg.counter("dmc_merges_total").total() == d.merges
        assert (
            reg.counter("dmc_latency_cycles_total").total()
            == d.total_latency_cycles
        )
        lines_hist = reg.get("dmc_packet_lines")
        for lines, count in d.packets_by_lines.items():
            idx = lines_hist.buckets.index(float(lines))
            assert lines_hist.bucket_counts()[idx] == count

    def test_crq(self, result, reg):
        c = result.coalescer.crq
        assert reg.counter("crq_pushes_total").total() == c.pushes
        assert reg.counter("crq_pops_total").total() == c.pops
        assert reg.counter("crq_fills_total").total() == c.fills
        assert reg.get("crq_fill_cycles").total() == c.total_fill_cycles
        assert reg.gauge("crq_max_occupancy").value() == c.max_occupancy
        assert reg.get("crq_depth").count() == c.pushes

    def test_mshr(self, result, reg):
        m = result.coalescer.mshr
        outcomes = reg.counter("mshr_outcomes_total")
        assert reg.counter("mshr_offers_total").total() == m.offered
        assert outcomes.value(case="allocated") == m.allocated
        assert outcomes.value(case="merged_full") == m.merged_full
        assert outcomes.value(case="merged_partial") == m.merged_partial
        assert outcomes.value(case="rejected_full") == m.rejected_full
        assert reg.counter("mshr_subentries_total").total() == m.subentries_added
        assert (
            reg.counter("mshr_remainder_packets_total").total()
            == m.remainder_packets
        )
        assert reg.counter("mshr_completions_total").total() == m.completions

    def test_coalescer_front_end(self, result, reg):
        s = result.coalescer
        assert (
            reg.counter("coalescer_llc_requests_total").total() == s.llc_requests
        )
        assert reg.counter("coalescer_bypass_total").total() == s.bypassed_requests
        assert (
            reg.counter("coalescer_hmc_requests_total").total() == s.hmc_requests
        )

    def test_hmc_device(self, result, reg):
        h = result.hmc
        requests = reg.counter("hmc_requests_total")
        assert requests.total() == h.requests
        assert requests.value(op="read") == h.reads
        assert requests.value(op="write") == h.writes
        assert reg.counter("hmc_payload_bytes_total").total() == h.payload_bytes
        assert (
            reg.counter("hmc_requested_bytes_total").total() == h.requested_bytes
        )
        assert reg.counter("hmc_control_bytes_total").total() == h.control_bytes
        rows = reg.counter("hmc_row_accesses_total")
        assert rows.value(outcome="hit") == h.row_hits
        assert rows.value(outcome="miss") == h.row_misses
        assert reg.get("hmc_packet_bytes").count() == h.requests

    def test_hmc_packet_size_histogram_matches(self, result, reg):
        hist = reg.get("hmc_packet_bytes")
        for size, count in result.hmc.size_histogram.items():
            idx = hist.buckets.index(float(size))
            assert hist.bucket_counts()[idx] == count

    def test_vaults_and_link(self, result, reg):
        # The per-vault series must sum to the device totals.
        assert (
            reg.counter("vault_requests_total").total() == result.hmc.requests
        )
        assert (
            reg.counter("vault_bank_conflicts_total").total()
            == result.hmc.row_misses
        )
        assert (
            reg.counter("link_transactions_total").total() == result.hmc.requests
        )
        link_bytes = reg.counter("link_bytes_total")
        assert link_bytes.value(kind="payload") == result.hmc.payload_bytes

    def test_derived_gauges_published(self, result, reg):
        assert reg.gauge("sim_coalescing_efficiency").value() == pytest.approx(
            result.coalescing_efficiency
        )
        assert reg.gauge("sim_bandwidth_efficiency").value() == pytest.approx(
            result.bandwidth_efficiency
        )
        assert reg.gauge("sim_runtime_ns").value() == pytest.approx(
            result.runtime_ns
        )
        assert reg.gauge("sim_trace_cycles").value() == result.trace_cycles


@pytest.mark.parametrize("engine", ("vector", "object"))
@pytest.mark.parametrize("config", tuple(FIGURE_CONFIGS))
@pytest.mark.parametrize("bench", tuple(BENCHMARKS))
def test_conservation_across_stages(bench, config, engine):
    """Request conservation on every figure-grid cell, from the run's
    own counts (no per-request stream needed)."""
    coalescer = FIGURE_CONFIGS[config]
    result = run_benchmark(
        bench,
        platform=PlatformConfig(accesses=2_000),
        coalescer=coalescer,
        engine=engine,
    )
    reg = result.metrics
    # Every request entering the coalescer leaves as a bypass or enters
    # the next stage: the sorter behind the DMC unit, else the CRQ as a
    # single-line packet.
    next_stage = (
        "sorter_requests_total" if coalescer.enable_dmc else "crq_pushes_total"
    )
    assert (
        reg.counter("coalescer_llc_requests_total").total()
        == reg.counter("coalescer_bypass_total").total()
        + reg.counter(next_stage).total()
    )
    # Every HMC packet came from the coalescer.
    assert (
        reg.counter("coalescer_hmc_requests_total").total()
        == reg.counter("hmc_requests_total").total()
    )
    # Every LLC request waits in exactly one MSHR subentry, and every
    # issued packet holds one entry, which retires once.
    mshr = result.coalescer.mshr
    assert mshr.subentries_added == result.coalescer.llc_requests
    assert mshr.completions == mshr.allocated == result.hmc.requests


class TestTimelineAndExport:
    def test_timeline_has_sorter_events(self, reg):
        launches = list(reg.timeline.iter_events(stage="sorter"))
        assert launches
        cycles = [e.cycle for e in launches]
        assert cycles == sorted(cycles)

    def test_full_run_round_trips_through_json(self, reg):
        lines = list(registry_to_json_lines(reg))
        assert all(json.loads(l) for l in lines)
        rebuilt = registry_from_json_lines(lines)
        assert rebuilt.as_flat_dict() == reg.as_flat_dict()


class TestProfiler:
    def test_run_benchmark_with_profiler(self):
        # The object engine charges phases per event, so call counts
        # line up with simulated quantities.
        profiler = PhaseProfiler()
        result = run_benchmark(
            "STREAM",
            platform=PlatformConfig(accesses=2_000),
            profiler=profiler,
            engine="object",
        )
        # Workloads round the access budget down to whole chunks.
        assert 0 < result.tracer.cpu_accesses <= 2_000
        assert set(profiler.phases()) == {"trace", "coalesce", "flush"}
        assert profiler.calls("coalesce") == result.coalescer.llc_requests
        assert profiler.total() > 0

    def test_run_benchmark_with_profiler_vector_engine(self):
        # The vector engine charges the same phases at bulk grain: the
        # names and totals survive, per-event call counts do not.
        profiler = PhaseProfiler()
        result = run_benchmark(
            "STREAM",
            platform=PlatformConfig(accesses=2_000),
            profiler=profiler,
            engine="vector",
        )
        assert 0 < result.tracer.cpu_accesses <= 2_000
        assert set(profiler.phases()) == {"trace", "coalesce", "flush"}
        assert profiler.total() > 0


class TestDerivedComparisons:
    def test_saved_bytes_methods(self):
        from repro.core.config import UNCOALESCED_CONFIG
        from repro.hmc.packet import REQUEST_CONTROL_BYTES

        platform = PlatformConfig(accesses=4_000)
        coal = run_benchmark("STREAM", platform=platform)
        base = run_benchmark(
            "STREAM", platform=platform.with_coalescer(UNCOALESCED_CONFIG)
        )
        saved_requests = coal.requests_saved_vs(base)
        assert saved_requests == base.hmc.requests - coal.hmc.requests
        assert saved_requests > 0
        assert (
            coal.control_bytes_saved_vs(base)
            == saved_requests * REQUEST_CONTROL_BYTES
        )
        assert coal.transfer_bytes_saved_vs(base) == (
            base.transferred_bytes - coal.transferred_bytes
        )
        assert coal.runtime_improvement_over(base) == pytest.approx(
            (base.runtime_ns - coal.runtime_ns) / base.runtime_ns
        )
