"""Call-count guard for the vector replay conveyor.

Wall time on a shared host drifts too much to gate a per-request
regression, but the number of Python calls a replay makes does not:
for a given trace and config it is a pure function of the code.  This
guard replays one warm stored SG trace (2,000 accesses) under each
figure config and counts, with :func:`sys.setprofile`, the Python-level
calls into code under ``src/repro`` per LLC request.

Only ``repro`` code objects count, so stdlib and dataclass-generated
frames (``__init__`` of a slots dataclass, enum lookups) stay out and
the count should not depend on the interpreter.  Comprehension frames
are skipped too: Python 3.12 inlines them (PEP 709).

Each count must stay within 5% of :data:`CALLS_PER_LLC_REQUEST`.  A
change that means to add per-request work re-records the table and
says why; a change that removes work lowers it.

Run as a script to print the current counts as JSON::

    PYTHONPATH=src python tests/kernels/test_call_counts.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import repro
from repro.core.coalescer import MemoryCoalescer
from repro.hmc.device import HMCDevice
from repro.kernels.replay import vector_replay
from repro.obs import MetricsRegistry
from repro.sim.driver import PlatformConfig, _make_service_time, run_benchmark
from repro.sim.sweep import FIGURE_CONFIGS
from repro.trace import TraceStore, trace_key

BENCHMARK = "SG"
ACCESSES = 2000

#: Python calls into ``src/repro`` per LLC request, per figure config,
#: on the warm replay below.  Before the kernel's saturated step the
#: counts were 11.29 / 15.24 / 10.52 / 14.37.
CALLS_PER_LLC_REQUEST = {
    "uncoalesced": 5.6246,
    "mshr_only": 5.7803,
    "dmc_only": 5.9436,
    "combined": 6.2845,
}
#: Allowed rise over the recorded count before the guard fails.
TOLERANCE = 0.05

_PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_SKIPPED = frozenset(("<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"))


def _count_calls(fn) -> int:
    """Python calls into ``repro`` code made while running ``fn()``."""
    calls = 0
    seen: dict = {}

    def profile(frame, event, arg):
        nonlocal calls
        if event != "call":
            return
        code = frame.f_code
        counted = seen.get(code)
        if counted is None:
            counted = seen[code] = (
                code.co_filename.startswith(_PACKAGE_DIR)
                and code.co_name not in _SKIPPED
            )
        if counted:
            calls += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def _replay(buffer, platform: PlatformConfig) -> MemoryCoalescer:
    """One vector replay on a stack built as the driver builds it."""
    registry = MetricsRegistry()
    device = HMCDevice(platform.hmc, registry)
    coalescer = MemoryCoalescer(
        platform.coalescer,
        service_time=_make_service_time(device, platform.cycle_ns),
        registry=registry,
        record_streams=False,
    )
    vector_replay(buffer, coalescer=coalescer)
    return coalescer


def measure_calls_per_llc_request(root: str | Path) -> dict[str, float]:
    """Calls per LLC request for each figure config, on a warm trace.

    The SG trace is captured into a disk store under ``root``, then
    loaded back as a memory-mapped entry, as figure runs read it.  Each
    config replays it once uncounted (decoded columns, device tables
    and sorter schedules are cached by then), then once counted.
    """
    platform = PlatformConfig(accesses=ACCESSES)
    run_benchmark(
        BENCHMARK,
        platform=platform,
        trace_store=TraceStore(root),
        engine="vector",
    )
    buffer = TraceStore(root, mmap=True).get(trace_key(BENCHMARK, platform))
    assert buffer is not None
    counts = {}
    for name, config in FIGURE_CONFIGS.items():
        cell = platform.with_coalescer(config)
        _replay(buffer, cell)
        box = []
        calls = _count_calls(lambda: box.append(_replay(buffer, cell)))
        llc_requests = box[0].stats().llc_requests
        counts[name] = round(calls / llc_requests, 4)
    return counts


def test_calls_per_llc_request_within_recorded_bound(tmp_path):
    counts = measure_calls_per_llc_request(tmp_path)
    assert counts.keys() == CALLS_PER_LLC_REQUEST.keys()
    over = {
        name: (count, CALLS_PER_LLC_REQUEST[name])
        for name, count in counts.items()
        if count > CALLS_PER_LLC_REQUEST[name] * (1 + TOLERANCE)
    }
    assert not over, f"calls per LLC request above the recorded bound: {over}"
    # A second measurement in the same process repeats exactly.
    assert measure_calls_per_llc_request(tmp_path / "again") == counts


def test_call_counts_do_not_depend_on_the_hash_seed(tmp_path):
    """The counts are equal under PYTHONHASHSEED 0, 1 and 2."""
    src = os.path.dirname(_PACKAGE_DIR.rstrip(os.sep))
    results = []
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        out = subprocess.run(
            [sys.executable, __file__, str(tmp_path / seed)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        results.append(json.loads(out.stdout))
    assert results[0] == results[1] == results[2]


if __name__ == "__main__":
    if len(sys.argv) > 1:
        print(json.dumps(measure_calls_per_llc_request(sys.argv[1])))
    else:
        with tempfile.TemporaryDirectory() as root:
            print(json.dumps(measure_calls_per_llc_request(root), indent=1))
