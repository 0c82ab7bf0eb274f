"""Benchmark of the HMC coalescing reproduction: one command, three workloads.

    python3 perfbench/run.py --workload grid_replay --seed 3 --seconds 25 --trace 0

Run from the root of a checkout.  The program is imported from the
checkout's ``src/``; nothing is installed.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: with ``--trace 0`` the end-to-end metrics of
``BENCHMARK.json``, with ``--trace 1`` its per-layer metrics from a
separate traced phase.  Earlier lines are a human-readable report
(tail percentile and its op count, the cold set-up rounds, host-speed
context, failures, and in traced runs the per-layer table and tracing
overhead).  Every time is in this host's seconds.  Spans and a
JSON report land in ``.bench_work/``.

``--pin-refs`` recomputes ``refs.json``, the object-engine reference
digests of the default seed's schedules.  See ``README.md`` for why
each workload exists and which layer each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402  (after the path tweak)

WORKLOADS = ("grid_replay", "fresh_capture", "serve_open")
REFS = Path(__file__).resolve().parent / "refs.json"

#: Pinned references cover the default seed's whole grid, its
#: fresh_capture round, and its serve_open runs of up to 55 s (110
#: blocks; as many as ten traces serve without repeating a design
#: point).  Longer runs check their later ops like any other seed's.
PINNED_SERVE_BLOCKS = 110


def parse(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Short mode for the benchmark's own tests; runs with a non-default
    # size never use the pinned references.
    p.add_argument("--accesses", type=int, default=common.ACCESSES, help=argparse.SUPPRESS)
    p.add_argument("--setup-rounds", type=int, default=common.SETUP_ROUNDS, help=argparse.SUPPRESS)
    # One cold set-up round in this fresh interpreter, then exit.
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--pin-refs", action="store_true", help="rewrite refs.json")
    args = p.parse_args(argv)
    if not args.pin_refs and args.workload is None:
        p.error("--workload is required")
    return args


def import_program(tmp: str):
    """Import the program from source; ``None`` when it is not there."""
    os.environ["TMPDIR"] = str(common.fresh_dir(common.WORK / tmp))
    sys.path.insert(0, str(common.SRC))
    try:
        import repro
        import inproc
        import serve_open
    except ImportError as exc:
        print(f"error: cannot import the program from {common.SRC}: {exc}", file=sys.stderr)
        return None
    if common.SRC not in Path(repro.__file__).resolve().parents:
        # Measure the checkout's source, never an installed copy.
        print(f"error: repro imported from {repro.__file__}, not {common.SRC}", file=sys.stderr)
        return None
    return inproc, serve_open


def pinned_refs(args) -> dict[str, str]:
    if args.seed != common.DEFAULT_SEED or args.accesses != common.ACCESSES:
        return {}
    return json.loads(REFS.read_text())[args.workload]


def pin_refs() -> int:
    import inproc
    import serve_open

    seed, acc = common.DEFAULT_SEED, common.ACCESSES
    fresh = inproc.fresh_round(seed)
    blocks = PINNED_SERVE_BLOCKS
    serve_keys = serve_open.setup_keys(seed, blocks) + serve_open.design_order(seed, blocks)
    doc = {
        "seed": seed,
        "accesses": acc,
        "grid_replay": inproc.grid_references(seed, acc),
        "fresh_capture": inproc.fresh_references(fresh, acc),
        "serve_open": serve_open.serve_references(acc, serve_keys),
    }
    REFS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFS} ({sum(len(v) for v in doc.values() if isinstance(v, dict))} digests)")
    return 0


def cold_setup(args) -> float:
    """One more cold set-up round, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--accesses", str(args.accesses), "--setup-only"],
        cwd=common.ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cold set-up failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def host_context() -> dict[str, float]:
    from repro.perf.harness import calibration_seconds

    return {
        "host.ref_loop_s": common.reference_loop_s(),
        "host.calibration_s": calibration_seconds(),
    }


def overhead(untraced: dict[str, float], traced: dict[str, float]) -> dict[str, float]:
    return {
        f"overhead.{name}": traced[name] / untraced[name] - 1.0
        for name in ("op_p50_s", "op_tail_s", "ops_per_s", "llc_req_per_s")
        if untraced.get(name)
    }


def layer_report(outcome, layers: dict[str, float]) -> list[str]:
    """The per-layer table: self time per op and its share of op wall."""
    lines = [f"per-layer ({outcome.workload}, traced phase):"]
    if outcome.workload == "serve_open":
        # Where each op's latency went, from the server's stamps.
        spans = outcome.traced["spans"]
        ops = sum(1 for s in spans if s["name"] == "op")
        times: dict[str, float] = {}
        for s in spans:
            name = "unattributed_s" if s["name"] == "op" else s["name"] + "_s"
            times[name] = times.get(name, 0.0) + s["self_s"] / ops
        wall = statistics.fmean(outcome.traced["latencies"])  # every submission
    else:
        times = {k: v for k, v in layers.items() if k in common.SELF_TIMES}
        wall = layers["op_wall_s"]
    for name, value in sorted(times.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {name:28s} {value * 1e3:10.3f} ms/op  {value / wall:7.1%} of op wall")
    lines.append(f"  {'op wall':28s} {wall * 1e3:10.3f} ms/op")
    return lines


def split_checks(workload: str, layers: dict[str, float], outcome) -> list[str]:
    """Does the measured split match the one the workload was chosen for?"""
    out = []

    def verdict(ok, text):
        out.append(f"split {'agrees' if ok else 'DISAGREES'}: {text}")

    if workload == "serve_open":
        # The ops op_p50_s is the median of: submissions that start a run.
        spans = outcome.traced["spans"]
        runs = [s for s in spans if s["name"] == "op" and s["kind"] == "new"]
        lat = sorted(s["end"] - s["start"] for s in runs)
        lo, hi = lat[int(0.4 * len(lat))], lat[int(0.6 * len(lat))]
        ops = {s["op"] for s in runs if lo <= s["end"] - s["start"] <= hi}
        total = sum(s["end"] - s["start"] for s in spans if s["name"] == "op" and s["op"] in ops)
        server = sum(s["end"] - s["start"] for s in spans
                     if s["op"] in ops and s["name"] not in ("op", "serve.gen_late"))
        verdict(server / total > 0.5, f"serve-side spans are {server / total:.0%} of the median ops")
        return out
    wall = layers["op_wall_s"]
    selfs = {k: layers[k] for k in common.SELF_TIMES}
    if workload == "grid_replay":
        biggest = max(selfs, key=selfs.get)
        verdict(biggest == "core.replay_s", f"largest layer is {biggest} ({selfs[biggest] / wall:.0%})")
        verdict(selfs["capture.self_s"] == 0.0, "no capture in timed ops")
    else:
        kernels = sum(v for k, v in selfs.items() if k.startswith("kernels."))
        verdict(selfs["core.replay_s"] == 0.0, "object replay loop absent")
        verdict(selfs["capture.self_s"] / wall >= 0.15,
                f"capture is {selfs['capture.self_s'] / wall:.0%} of op wall")
        verdict(kernels / wall > 0.5, f"kernels.* are {kernels / wall:.0%} of op wall")
    return out


def main(argv=None) -> int:
    args = parse(argv)
    modules = import_program("tmp-setup" if args.setup_only else "tmp")
    if modules is None:
        return 2
    if args.pin_refs:
        return pin_refs()
    inproc, serve_open = modules
    if args.setup_only:
        if args.workload == "serve_open":
            setup_s = serve_open.setup_only(args)
        else:
            setup_s = inproc.setup_only(args.workload, args)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    pinned = pinned_refs(args)
    traced = bool(args.trace)
    if args.workload == "serve_open":
        outcome = serve_open.execute(args, pinned, traced)
    else:
        outcome = inproc.execute(args.workload, args, pinned, traced)
    # The run's own set-up was cold; so is each further round, each in
    # a fresh interpreter started after the timed phase.
    outcome.setup_rounds += [cold_setup(args) for _ in range(args.setup_rounds - 1)]
    host = host_context()
    host["host.slice_s"] = statistics.median(outcome.slices)

    e2e = outcome.end_to_end()
    lines = [f"{outcome.workload} seed {args.seed}: {outcome.ops} timed ops, "
             f"{outcome.attempted} checked, {outcome.failed} failed "
             f"(failed_share {outcome.failed / max(1, outcome.attempted):.4f})",
             outcome.tail_note(),
             "cold set-ups (process start to first timed op): "
             + ", ".join(f"{r:.3f}" for r in outcome.setup_rounds) + " s",
             "host (context, not applied to any metric): "
             + ", ".join(f"{k} {v:.6f}" for k, v in host.items()),
             *outcome.notes]
    report = {"workload": outcome.workload, "seed": args.seed, "end_to_end": e2e,
              "setup_rounds": outcome.setup_rounds, "host": host, "model": outcome.model,
              "notes": outcome.notes}
    if traced:
        t = outcome.traced
        traced_e2e = common.end_to_end(t["samples"], t["ops"], t["wall_s"], outcome.setup_s,
                                       outcome.rss_mb, {"llc_req_per_s": t["llc_req_per_s"]})
        layers = dict(outcome.layers)
        layers.update(host)
        layers.update(overhead(e2e, traced_e2e))
        lines += layer_report(outcome, layers)
        lines += split_checks(outcome.workload, layers, outcome)
        lines.append("tracing overhead: " + ", ".join(
            f"{k[9:]} {v:+.1%}" for k, v in layers.items() if k.startswith("overhead.")))
        spans_path = common.WORK / "out" / f"spans-{outcome.workload}-{args.seed}.jsonl"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text("".join(json.dumps(s) + "\n" for s in t["spans"]))
        lines.append(f"spans written to {spans_path.relative_to(common.ROOT)}")
        report["layers"] = layers
        section, values = "per_layer", layers
    else:
        section, values = "end_to_end", e2e
    units = common.unit_table(section)
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    lines += [f"  {name:28s} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    out = common.WORK / "out" / f"report-{outcome.workload}-{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1, sort_keys=True, default=str))
    print("\n".join(lines))
    print(json.dumps({"correct": outcome.failed == 0, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
