"""Shared fixtures for the figure-reproduction benchmark harness.

A single pytest-session-scoped :class:`repro.Session` backs all figure
benches, so each (benchmark, configuration) simulation runs exactly
once regardless of how many figures consume it.
"""

import pytest

from repro import Session
from repro.analysis.report import format_figure
from repro.sim.driver import PlatformConfig

#: Trace length for the benchmark harness: long enough for stable
#: percentages, short enough that the full suite finishes in minutes.
BENCH_ACCESSES = 8_000


def pytest_addoption(parser):
    parser.addoption(
        "--metrics-out",
        default=None,
        help="write every simulated run's metrics registry to this "
        "JSON-lines file (one {'kind': 'run', ...} header per run)",
    )


@pytest.fixture(scope="session")
def suite(request) -> Session:
    instance = Session(accesses=BENCH_ACCESSES)
    yield instance
    out = request.config.getoption("--metrics-out")
    if out:
        from repro.obs.export import write_json_lines

        first = True
        for benchmark, config, result in instance.cached_runs():
            if result.metrics is None:
                continue
            write_json_lines(
                result.metrics,
                out,
                include_timeline=False,
                header={"benchmark": benchmark, "config": config},
                append=not first,
            )
            first = False
        if not first:
            print(f"\nwrote metrics registries to {out}")


@pytest.fixture(scope="session")
def platform() -> PlatformConfig:
    return PlatformConfig(accesses=BENCH_ACCESSES)


def print_figure(data) -> None:
    """Render a FigureData as ``repro figures`` does, via stdout."""
    print()
    print(format_figure(data))
