"""Tests for the per-figure experiment runners."""

import pytest

from repro.sim.driver import PlatformConfig
from repro.sim.experiments import (
    BENCHMARK_ORDER,
    Session,
    fig1_bandwidth_efficiency,
    fig2_control_overhead,
    fig14_timeout_sweep,
)
from repro.sim.sweep import FIGURE_CONFIGS


@pytest.fixture(scope="module")
def session():
    """One short-trace session shared by every figure runner below."""
    return Session(accesses=4_000)


class TestAnalyticFigures:
    def test_fig1_matches_paper_exactly(self):
        data = fig1_bandwidth_efficiency()
        by_size = {r[0]: r[1] for r in data.rows}
        assert by_size[16] == pytest.approx(0.3333, abs=1e-4)
        assert by_size[64] == pytest.approx(0.6667, abs=1e-4)
        assert by_size[256] == pytest.approx(0.8889, abs=1e-4)

    def test_fig1_rows_monotone(self):
        data = fig1_bandwidth_efficiency()
        effs = [r[1] for r in data.rows]
        assert effs == sorted(effs)

    def test_fig2_ratio_is_16x(self):
        data = fig2_control_overhead()
        assert data.summary["ratio_16B_vs_256B"] == pytest.approx(16.0)

    def test_fig2_monotone_in_total(self):
        data = fig2_control_overhead()
        col16 = [r[1] for r in data.rows]
        assert col16 == sorted(col16)


class TestSuiteCaching:
    def test_run_is_cached(self):
        """A figure cell runs once, is labelled by its config name, and
        is the entry a structurally equal ``run`` reads."""
        local = Session(accesses=1_500)
        first = local.fig12_dmc_latency()
        (entry,) = {k for k in local.cache_keys() if k.benchmark == "STREAM"}
        assert entry.config == "combined"
        assert len(local.cache_keys()) == len(BENCHMARK_ORDER)
        assert local.fig12_dmc_latency() == first
        assert len(local.cache_keys()) == len(BENCHMARK_ORDER)
        cell = local.peek("STREAM", entry.digest)
        assert cell is local.run("STREAM", coalescer=FIGURE_CONFIGS["combined"])


class TestTraceFigures:
    def test_fig8_structure_and_ordering(self, session):
        data = session.fig8_coalescing_efficiency()
        assert [r[0] for r in data.rows] == list(BENCHMARK_ORDER)
        for row in data.rows:
            name, mshr, dmc, combined = row
            assert 0 <= mshr <= 1 and 0 <= dmc <= 1 and 0 <= combined <= 1
            # Two-phase coalescing never loses to either single phase.
            assert combined >= max(mshr, dmc) - 0.02, name
        assert data.summary["avg_combined"] >= data.summary["avg_dmc_only"] - 0.02

    def test_fig9_coalesced_beats_raw(self, session):
        data = session.fig9_bandwidth_efficiency()
        assert data.summary["avg_coalesced"] > data.summary["avg_raw"]
        for name, raw, coal in data.rows:
            assert coal >= raw - 1e-9, name

    def test_fig10_shares_sum_to_one(self, session):
        data = session.fig10_request_distribution("STREAM")
        shares = [r[3] for r in data.rows]
        assert sum(shares) == pytest.approx(1.0)
        assert data.summary["total_requests"] > 0

    def test_fig10_hpcg_dominated_by_16B(self, session):
        data = session.fig10_request_distribution("HPCG")
        assert data.summary["share_16B_loads"] > 0.25

    def test_fig11_savings_positive_for_coalescable(self, session):
        data = session.fig11_bandwidth_saving()
        by_name = {r[0]: r[2] for r in data.rows}
        assert by_name["STREAM"] > 0
        assert by_name["FT"] > 0

    def test_fig12_latency_range(self, session):
        data = session.fig12_dmc_latency()
        for name, ns in data.rows:
            assert 0 < ns < 30, name

    def test_fig13_fill_hides_in_memory_latency(self, session):
        data = session.fig13_crq_fill_time()
        for name, ns in data.rows:
            assert 0 < ns < 100, name  # far below ~100 ns HMC access

    def test_fig15_improvement_bounds(self, session):
        data = session.fig15_performance()
        for name, imp in data.rows:
            assert -0.1 < imp < 0.6, name
        assert data.summary["avg_improvement"] > 0


class TestTimeoutSweep:
    def test_fig14_shape(self):
        data = fig14_timeout_sweep(
            timeouts=(8, 16, 24),
            platform=PlatformConfig(accesses=3_000),
            benchmarks=("STREAM",),
        )
        assert data.headers == ["benchmark", "T=8", "T=16", "T=24"]
        (row,) = data.rows
        assert all(v > 0 for v in row[1:])
        # A starved timeout (8 < pipeline interval) congests the
        # sorter; adequate timeouts are far cheaper.
        assert row[1] > row[2]


class TestBenchmarkOrder:
    def test_order_is_papers_twelve(self):
        assert len(BENCHMARK_ORDER) == 12
        assert BENCHMARK_ORDER[0] == "SG"
