"""Unit tests for the perf harness (measurement, report, comparison)."""

from __future__ import annotations

import json

import pytest

from repro.perf import (
    PerfCase,
    calibration_seconds,
    compare_reports,
    get_suite,
    load_report,
    run_suite,
    save_report,
)
from repro.perf.harness import SCHEMA, run_case

TINY = PerfCase("STREAM", "combined", 800)


def test_calibration_is_positive_and_stable():
    a = calibration_seconds(repeats=2)
    assert a > 0
    # Best-of-N of a fixed workload should land in the same decade.
    b = calibration_seconds(repeats=2)
    assert 0.1 < a / b < 10


def test_get_suite_names_and_unknown():
    assert get_suite("smoke")
    assert set(get_suite("smoke")) <= set(get_suite("full"))
    with pytest.raises(ValueError, match="unknown perf suite"):
        get_suite("nope")


def test_run_case_measures_and_digests():
    measured = run_case(TINY, repeats=2)
    assert measured.wall_seconds > 0
    assert len(measured.wall_seconds_all) == 2
    assert measured.wall_seconds == min(measured.wall_seconds_all)
    assert measured.llc_requests > 0
    assert measured.requests_per_second > 0
    assert len(measured.digest) == 64
    assert measured.phases  # PhaseProfiler attributed at least one phase


def test_run_case_digest_is_deterministic():
    assert run_case(TINY, repeats=1).digest == run_case(TINY, repeats=1).digest


def test_report_roundtrip(tmp_path):
    report = run_suite([TINY], repeats=1, suite_name="tiny")
    assert report["schema"] == SCHEMA
    assert report["calibration_seconds"] > 0
    entry = report["cases"][TINY.name]
    assert entry["normalized_throughput"] > 0
    path = save_report(report, tmp_path / "BENCH_perf.json")
    assert load_report(path) == json.loads(path.read_text()) == report


def test_run_suite_rejects_empty_case_list():
    # A zero-match --filter must error out, not write an empty report.
    with pytest.raises(ValueError, match="no cases to run"):
        run_suite([])


def test_vector_replay_case_records_kernel_stats():
    pair = [
        PerfCase("STREAM", "combined", 800, kind="trace_replay"),
        PerfCase("STREAM", "combined", 800, kind="vector_replay"),
    ]
    report = run_suite(pair, repeats=1, suite_name="tiny")
    twin = report["cases"][pair[0].name]
    entry = report["cases"][pair[1].name]
    # The fallback rate is a first-class report number (docs/performance.md),
    # for the coalescing kernel and for the HMC back end behind it.
    kernel = entry["kernel"]
    for stats in (kernel, kernel["hmc"]):
        assert stats["engaged"] >= 1
        assert stats["delegated"] == 0
        assert stats["fallbacks"] == 0
        assert stats["fallback_rate"] == 0.0
        assert stats["engagement_rate"] == 1.0
    assert "kernel" not in twin  # object twin carries no kernel block
    assert entry["digest"] == twin["digest"]
    derived = report["derived"]
    assert derived["vector_replay_speedup:STREAM/combined@800"] > 0
    assert derived["vector_replay_coalesce_speedup:STREAM/combined@800"] > 0


def test_sorter_override_applies_to_replay_kinds_only():
    replay = dict(benchmark="SG", config="combined", accesses=800)
    wide = PerfCase(
        **replay, kind="vector_replay", sorter_width=32, sorter_arch="single_phase"
    )
    assert wide.name == "vector_replay:SG/combined@800/w32/single_phase"
    assert PerfCase(**replay, kind="trace_replay", sorter_width=32)
    with pytest.raises(ValueError, match="only apply to"):
        PerfCase(**replay, sorter_width=32)
    with pytest.raises(ValueError, match="needs an explicit sorter_width"):
        PerfCase(**replay, kind="trace_replay", sorter_arch="two_phase")


def test_load_report_rejects_unknown_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": 99, "cases": {}}))
    with pytest.raises(ValueError, match="unsupported perf report schema"):
        load_report(path)


def _fake_report(norm: float, digest: str = "d0") -> dict:
    return {
        "schema": SCHEMA,
        "cases": {
            "SG/combined@6000": {
                "benchmark": "SG",
                "config": "combined",
                "accesses": 6000,
                "seed": 0,
                "wall_seconds": 0.5,
                "normalized_throughput": norm,
                "digest": digest,
            }
        },
    }


def test_compare_flags_regression_beyond_threshold():
    comparisons = compare_reports(
        _fake_report(70.0), _fake_report(100.0), threshold=0.25
    )
    assert [c.regressed for c in comparisons] == [True]
    ok = compare_reports(_fake_report(80.0), _fake_report(100.0), threshold=0.25)
    assert [c.regressed for c in ok] == [False]


def test_compare_flags_digest_mismatch():
    same = compare_reports(_fake_report(100.0), _fake_report(100.0))
    assert [c.digest_match for c in same] == [True]
    diff = compare_reports(
        _fake_report(100.0, digest="other"), _fake_report(100.0)
    )
    assert [c.digest_match for c in diff] == [False]


def test_compare_skips_digest_when_params_differ():
    current = _fake_report(100.0, digest="other")
    current["cases"]["SG/combined@6000"]["accesses"] = 12000
    comparisons = compare_reports(current, _fake_report(100.0))
    assert [c.digest_match for c in comparisons] == [None]


def test_compare_ignores_cases_missing_from_current():
    comparisons = compare_reports({"schema": SCHEMA, "cases": {}}, _fake_report(100.0))
    assert comparisons == []


def test_compare_gates_throughput_only_between_equal_worker_counts():
    def sweep_report(norm: float, effective_jobs: int) -> dict:
        report = _fake_report(norm)
        report["cases"]["SG/combined@6000"].update(
            kind="sweep_throughput", jobs=4, effective_jobs=effective_jobs
        )
        return report

    same = compare_reports(sweep_report(50.0, 2), sweep_report(100.0, 2))
    assert [(c.regressed, c.throughput_comparable) for c in same] == [
        (True, True)
    ]
    # A baseline recorded where the four requested workers were clamped
    # to one says nothing about a two-worker run: not gated, either way,
    # while the digests are still compared.
    other = compare_reports(sweep_report(50.0, 2), sweep_report(100.0, 1))
    assert [
        (c.regressed, c.throughput_comparable, c.digest_match) for c in other
    ] == [(False, False, True)]
