"""repro.perf: the simulator's own performance harness.

The simulated timing model measures the modelled hardware; this
package measures the *simulator* — wall time and simulated
requests/second per figure benchmark — so performance PRs ship with
before/after evidence and CI can catch throughput regressions.

``python -m repro perf`` runs a case suite (``repro.perf.cases``),
writes its report to ``--out`` (default the untracked
``BENCH_perf.local.json``; the checked-in ``BENCH_perf.json`` changes
only when named) and compares against the checked-in
``benchmarks/perf/baseline.json``; every case also carries
a :func:`repro.perf.digest.result_digest` so a perf run doubles as a
bit-exactness check.  See ``docs/performance.md``.
"""

from repro.perf.cases import (
    FULL_SUITE,
    SMOKE_SUITE,
    TRACE_SUITE,
    PerfCase,
    get_suite,
)
from repro.perf.digest import result_digest
from repro.perf.harness import (
    CaseResult,
    calibration_seconds,
    compare_reports,
    derive_speedups,
    load_report,
    run_suite,
    save_report,
)

__all__ = [
    "CaseResult",
    "FULL_SUITE",
    "PerfCase",
    "SMOKE_SUITE",
    "TRACE_SUITE",
    "calibration_seconds",
    "compare_reports",
    "derive_speedups",
    "get_suite",
    "load_report",
    "result_digest",
    "run_suite",
    "save_report",
]
