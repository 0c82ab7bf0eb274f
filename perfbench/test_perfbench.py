"""The benchmark's own tests, on short runs of each workload.

    python3 -m pytest -q perfbench

Short mode: smaller simulated runs (``--accesses``), one cold set-up
(two on grid_replay, to run the fresh-interpreter round) and a
sub-second timed phase, so each workload still runs end to end on a
non-default seed, with references computed after the timed phase.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

sys.path.insert(0, str(common.SRC))

import inproc  # noqa: E402
import serve_open  # noqa: E402

SHORT = {"seconds": 0.5, "accesses": 1500, "setup_rounds": 1}
SEED = 7  # not the pinned default


def short_args(seed: int = SEED) -> argparse.Namespace:
    return argparse.Namespace(seed=seed, **SHORT)


# -- statistics --------------------------------------------------------------


def test_tail_guard_refuses_thin_tails():
    for n in range(1, 20):
        with pytest.raises(common.TailTooThin):
            common.tail([float(i) for i in range(n)])
    for n in (20, 21, 48, 100, 180, 1000):
        values = [float(i) for i in range(n)]
        q, value, beyond = common.tail(values)
        assert beyond >= common.TAIL_BEYOND
        assert sum(v > value for v in values) == beyond
        # The next percentile up would leave fewer than ten beyond it.
        assert q == 99 or common.beyond_count(n, q + 1) < common.TAIL_BEYOND


# -- schedules ---------------------------------------------------------------


def test_schedules_are_pure_functions_of_the_seed():
    assert inproc.grid_cells() == inproc.grid_cells()
    assert len(set(inproc.grid_cells())) == 48
    ops = inproc.fresh_round(3)
    assert ops == inproc.fresh_round(3) and len(ops) == 48
    seeds = [s for _, s in ops] + [s for _, s in inproc.fresh_warmup_ops(3)]
    assert len(set(seeds)) == len(seeds)
    assert serve_open.schedule(3, 15) == serve_open.schedule(3, 15)
    assert serve_open.schedule(3, 15) != serve_open.schedule(4, 15)


def test_serve_seeds_share_one_design_point_mix():
    mixes = {
        tuple(sorted((b, w, t) for b, _, w, t in serve_open.design_order(seed, 60)))
        for seed in range(6)
    }
    assert len(mixes) == 1
    for blocks in (60, 110, 240):
        news = serve_open.design_order(0, blocks)
        assert len(set(news)) == len(news)
        assert not set(serve_open.setup_keys(0, blocks)) & set(news)
    # Pinned references of the longest pinned run cover shorter runs.
    assert serve_open.design_order(0, 110)[:60] == serve_open.design_order(0, 60)


# -- short runs --------------------------------------------------------------


def run_cli(workload: str, *extra: str, setup_rounds: int = 1) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SHORT["seconds"]),
         "--accesses", str(SHORT["accesses"]), "--setup-rounds", str(setup_rounds), *extra],
        cwd=common.ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["grid_replay", "fresh_capture", "serve_open"])
def test_every_end_to_end_metric_prints_with_name_and_unit(workload):
    rounds = 2 if workload == "grid_replay" else 1
    lines, doc = run_cli(workload, "--trace", "0", setup_rounds=rounds)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 20
    assert doc["metrics"] == {
        name: {"value": doc["metrics"][name]["value"], "unit": unit}
        for name, unit in common.unit_table("end_to_end").items()
    }
    for name, metric in doc["metrics"].items():
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name
        assert any(line.split()[:1] == [name] and metric["unit"] in line for line in lines)
    assert any(line.startswith("op_p50_s and op_tail_s are over") and "op_tail_s is p" in line
               for line in lines)
    assert any(line.startswith("host (context") and "host.ref_loop_s" in line for line in lines)
    # Each cold set-up runs from process start, imports included.
    cold = next(line for line in lines if line.startswith("cold set-ups"))
    values = [float(v) for v in cold.split(": ")[1].rstrip(" s").split(", ")]
    assert len(values) == rounds and all(v > 0.1 for v in values)


def test_traced_run_prints_every_per_layer_metric():
    lines, doc = run_cli("fresh_capture", "--trace", "1")
    assert set(doc["metrics"]) == set(common.unit_table("per_layer"))
    assert doc["correct"]
    assert any(line.startswith("tracing overhead:") for line in lines)
    assert not any("DISAGREES" in line for line in lines)


def test_tampered_reference_fails_in_process_workloads():
    # A pinned reference is checked on the spot; a wrong one is a
    # failed op, and only that op fails.
    args = short_args()
    outcome = inproc.execute(
        "grid_replay", args, {"STREAM/combined": "0" * 64}, traced=False
    )
    passes = outcome.attempted // 48
    assert outcome.failed == passes
    b, s = inproc.fresh_op(args.seed, 0)
    outcome = inproc.execute("fresh_capture", args, {f"{b}/{s}": "0" * 64}, traced=False)
    rounds = outcome.attempted // 48
    assert outcome.failed == rounds >= 1


@pytest.mark.parametrize("workload", ["grid_replay", "fresh_capture"])
def test_in_process_percentiles_are_over_per_op_means(workload):
    # Whole cycles of 48 distinct ops; one mean latency per op.
    outcome = inproc.execute(workload, short_args(), {}, traced=False)
    assert outcome.ops % 48 == 0 and outcome.ops == outcome.attempted
    assert len(outcome.samples) == 48
    assert common.tail(outcome.samples)[0] == 79


def test_tampered_reference_fails_serve_open():
    args = short_args()
    key = serve_open.setup_keys(args.seed, 1)[0]
    pinned = {serve_open.ref_key(args.accesses, key): "0" * 64}
    outcome = serve_open.execute(args, pinned, traced=True)
    tampered = sum(
        1 for slot in serve_open.schedule(args.seed, args.seconds) if slot.key == key
    )
    assert outcome.failed == tampered > 0
    # op_p50_s and op_tail_s rank the run-starting submissions only.
    slots = serve_open.schedule(args.seed, args.seconds)
    runs = [s for s in slots if s.kind == "new" and s.key != key]
    assert len(outcome.samples) == len(runs) >= 2 * common.TAIL_BEYOND
    # Client-side segments partition each op's latency.
    for op in {s["op"] for s in outcome.traced["spans"]}:
        spans = [s for s in outcome.traced["spans"] if s["op"] == op]
        wall = sum(s["end"] - s["start"] for s in spans if s["name"] == "op")
        assert math.isclose(sum(s["self_s"] for s in spans), wall, abs_tol=1e-9)


def test_traced_self_times_and_unattributed_sum_to_op_wall():
    outcome = inproc.execute("grid_replay", short_args(), {}, traced=True)
    rec = outcome.traced["recorder"]
    assert math.isclose(sum(rec.self_times().values()), rec.op_wall(), rel_tol=1e-9)
    layers = outcome.layers
    parts = sum(layers[k] for k in common.SELF_TIMES)
    assert math.isclose(parts, layers["op_wall_s"], rel_tol=1e-9)
    assert layers["core.replay_s"] > 0 and layers["capture.self_s"] == 0
    assert outcome.failed == 0


def test_tracing_restores_every_wrapped_entry_point():
    import repro.sim.driver as sim
    from repro.trace.buffer import TraceBuffer

    before = (sim.replay_trace, sim.vector_replay, TraceBuffer.__dict__["load"])
    rec = inproc.Recorder()
    rec.install()
    assert sim.replay_trace is not before[0]
    rec.uninstall()
    assert (sim.replay_trace, sim.vector_replay, TraceBuffer.__dict__["load"]) == before


def test_fails_cleanly_without_the_program():
    # A directory holding only the benchmark: no result, non-zero exit.
    bare = common.fresh_dir(common.WORK / "bare")
    (bare / "perfbench").mkdir()
    for path in HERE.iterdir():
        if path.is_file():
            (bare / "perfbench" / path.name).write_bytes(path.read_bytes())
    (bare / "BENCHMARK.json").write_text((common.ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid_replay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
