"""Tests for the stable public surface (repro.api.Session)."""

import pytest

import repro
from repro import CoalescerConfig, PlatformConfig, Session
from repro.core.config import UNCOALESCED_CONFIG
from repro.sim import driver


class TestExports:
    def test_session_reexported_from_package_root(self):
        assert repro.Session is Session
        for name in ("SweepSpec", "SweepResult", "RunKey", "run_sweep"):
            assert name in repro.__all__

    def test_api_module_is_importable_surface(self):
        from repro.api import Session as ApiSession

        assert ApiSession is Session


class TestSession:
    @pytest.fixture(scope="class")
    def session(self):
        return Session(accesses=1_500)

    def test_accesses_seed_conveniences(self):
        s = Session(accesses=1_234, seed=7)
        assert s.platform.accesses == 1_234
        assert s.platform.seed == 7

    def test_run_is_cached(self, session):
        assert session.run("STREAM") is session.run("STREAM")

    def test_structurally_equal_configs_share_cache_entry(self, session):
        a = session.run("STREAM", coalescer=CoalescerConfig())
        b = session.run("STREAM", coalescer=CoalescerConfig())
        assert a is b
        # ...and a config equal to the platform default hits that entry too
        assert session.run("STREAM") is a

    def test_distinct_configs_get_distinct_runs(self, session):
        a = session.run("STREAM")
        b = session.run("STREAM", coalescer=CoalescerConfig(timeout_cycles=8))
        assert a is not b

    def test_baseline_is_uncoalesced(self, session):
        base = session.baseline("STREAM")
        assert base.coalescing_efficiency == 0.0
        assert base is session.run("STREAM", coalescer=UNCOALESCED_CONFIG)

    def test_improvement_consistent_with_runs(self, session):
        imp = session.improvement("STREAM")
        base, coal = session.baseline("STREAM"), session.run("STREAM")
        expected = (base.runtime_ns - coal.runtime_ns) / base.runtime_ns
        assert imp == pytest.approx(expected)

    def test_sweep_populates_session_cache(self, tmp_path):
        s = Session(accesses=1_500, checkpoint_dir=tmp_path / "ck")
        sweep = s.sweep(
            benchmarks=("STREAM",),
            configs={"combined": CoalescerConfig()},
        )
        assert sweep.ok and len(sweep.results) == 1
        # the sweep's run is now a cache hit, not a re-simulation
        assert s.run("STREAM").runtime_ns == sweep.get(
            "STREAM", "combined"
        ).runtime_ns

    def test_session_checkpoint_dir_resumes(self, tmp_path):
        kwargs = dict(
            benchmarks=("STREAM",), configs={"combined": CoalescerConfig()}
        )
        first = Session(accesses=1_500, checkpoint_dir=tmp_path).sweep(**kwargs)
        second = Session(accesses=1_500, checkpoint_dir=tmp_path).sweep(**kwargs)
        assert first.completed == 1
        assert second.completed == 0 and second.skipped == 1


class TestDeprecationShims:
    """The positional call shapes the driver once accepted with a
    warning are gone: they now fail with Python's own TypeError."""

    def test_positional_and_keyword_platform_rejected(self):
        platform = PlatformConfig(accesses=1_500)
        with pytest.raises(TypeError):
            driver.run_benchmark("STREAM", platform, platform=platform)

    def test_keyword_form_requires_coalescer(self):
        with pytest.raises(TypeError, match="coalescer"):
            driver.run_trace_through_coalescer([])
