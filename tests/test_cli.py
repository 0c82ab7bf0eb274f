"""Tests for the ``python -m repro`` command-line interface."""

import os

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "STREAM"])
        args.accesses == 24_000
        assert args.benchmark == "STREAM"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("SG", "HPCG", "STREAM", "FT", "SparseLU"):
            assert name in out

    def test_run_small(self, capsys):
        assert main(["run", "STREAM", "--accesses", "3000"]) == 0
        out = capsys.readouterr().out
        assert "coalescing efficiency" in out
        assert "runtime improvement" in out

    def test_disasm(self, capsys):
        assert main(["disasm", "vector_add"]) == 0
        out = capsys.readouterr().out
        assert "ld" in out and "sd" in out
        assert "ecall" in out

    def test_disasm_unknown_kernel(self, capsys):
        assert main(["disasm", "nope"]) == 2
        assert "unknown kernel" in capsys.readouterr().err

    def test_trace_write_and_summary(self, tmp_path, capsys):
        trace_file = str(tmp_path / "t.trace")
        assert main(["trace", "SG", trace_file, "--accesses", "2000"]) == 0
        out = capsys.readouterr().out
        assert "LLC requests" in out
        assert main(["trace", "--summary", "ignored", trace_file]) == 0
        out = capsys.readouterr().out
        assert "loads" in out and "stores" in out

    def test_stats_table(self, capsys):
        assert main(["stats", "STREAM", "--accesses", "2000"]) == 0
        out = capsys.readouterr().out
        assert "STREAM metrics" in out
        for name in (
            "sorter_sequences_total",
            "dmc_merges_total",
            "crq_pushes_total",
            "mshr_offers_total",
            "vault_requests_total",
        ):
            assert name in out

    def test_stats_json_lines_are_valid(self, capsys):
        import json

        assert main(["stats", "STREAM", "--accesses", "2000", "--json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        docs = [json.loads(line) for line in lines]
        names = {d["name"] for d in docs if "name" in d}
        # One doc per stage family, as the acceptance criterion requires.
        for required in (
            "sorter_sequences_total",
            "dmc_packet_lines",
            "crq_depth",
            "mshr_outcomes_total",
            "vault_requests_total",
            "hmc_requests_total",
        ):
            assert required in names
        assert any(d.get("kind") == "timeline" for d in docs)

    def test_stats_no_timeline(self, capsys):
        import json

        assert (
            main(
                ["stats", "STREAM", "--accesses", "2000", "--json", "--no-timeline"]
            )
            == 0
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(json.loads(l).get("kind") != "timeline" for l in lines)

    def test_stats_out_file_round_trips(self, tmp_path, capsys):
        from repro.obs.export import registry_from_json_lines

        out_file = tmp_path / "m.jsonl"
        assert (
            main(["stats", "STREAM", "--accesses", "2000", "--out", str(out_file)])
            == 0
        )
        assert "wrote" in capsys.readouterr().out
        reg = registry_from_json_lines(out_file.read_text())
        assert reg.counter("tracer_cpu_accesses_total").total() > 0

    def test_profile(self, capsys):
        assert main(["profile", "STREAM", "--accesses", "2000"]) == 0
        out = capsys.readouterr().out
        assert "simulator profile" in out
        assert "trace" in out and "coalesce" in out
        assert "total" in out

    def test_serve_run_timeout_needs_process_executor(self, capsys, monkeypatch):
        def no_server(*args, **kwargs):  # a started server would never return
            raise AssertionError("server started despite the unenforceable timeout")

        monkeypatch.setattr("repro.serve.server.ReproServer", no_server)
        assert main(["serve", "--run-timeout", "60"]) == 2
        assert "run_timeout" in capsys.readouterr().err

    def test_serve_load_test_run_timeout_needs_process_executor(
        self, tmp_path, capsys
    ):
        out = tmp_path / "serve.json"
        argv = ["serve", "--load-test", "1", "--run-timeout", "0.5"]
        assert main(argv + ["--out", str(out), "--quiet"]) == 2
        assert "run_timeout needs executor='process'" in capsys.readouterr().err
        assert not out.exists()


class TestSweepCommand:
    ARGS = [
        "sweep",
        "--accesses",
        "1500",
        "--benchmarks",
        "STREAM,SG",
        "--configs",
        "uncoalesced,combined",
        "--quiet",
    ]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.jobs == 1
        assert args.accesses == 12_000
        assert not args.resume

    def test_sweep_writes_checkpoints(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        assert main(self.ARGS + ["--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "4 run, 0 resumed, 0 failed" in out
        assert len(list(out_dir.glob("*.jsonl"))) == 4

    def test_sweep_resume_skips_completed(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        assert main(self.ARGS + ["--out", str(out_dir)]) == 0
        capsys.readouterr()
        assert main(self.ARGS + ["--out", str(out_dir), "--resume"]) == 0
        assert "0 run, 4 resumed, 0 failed" in capsys.readouterr().out

    def test_sweep_filter(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        assert main(self.ARGS + ["--out", str(out_dir), "--filter", "SG/"]) == 0
        assert "2 run" in capsys.readouterr().out

    def test_sweep_unknown_config_rejected(self, capsys):
        assert main(["sweep", "--configs", "bogus"]) == 2
        assert "unknown config" in capsys.readouterr().err

    def test_sweep_unknown_executor_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--executor", "fork"])
        assert exc.value.code == 2
        assert "invalid choice: 'fork'" in capsys.readouterr().err

    def test_sweep_summarize(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        assert main(self.ARGS + ["--out", str(out_dir)]) == 0
        capsys.readouterr()
        assert main(["sweep", "--summarize", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "STREAM" in out and "uncoalesced" in out

    def test_sweep_summarize_empty_dir(self, tmp_path, capsys):
        assert main(["sweep", "--summarize", str(tmp_path)]) == 2
        assert "no checkpoints" in capsys.readouterr().err

    def test_figures_jobs_flag_parses(self):
        args = build_parser().parse_args(["figures", "--jobs", "3"])
        assert args.jobs == 3
        # Without the flag, figures use every core.
        args = build_parser().parse_args(["figures"])
        assert args.jobs == (os.cpu_count() or 1)


class TestTraceStoreCommands:
    """The ``repro trace ls/info/gc`` store-maintenance verbs."""

    def _populate(self, trace_dir):
        from repro.sim.driver import PlatformConfig, run_benchmark
        from repro.trace import TraceStore

        run_benchmark(
            "STREAM",
            platform=PlatformConfig(accesses=600),
            trace_store=TraceStore(trace_dir),
        )

    def test_ls_lists_captures(self, tmp_path, capsys):
        self._populate(tmp_path)
        assert main(["trace", "ls", "--trace-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "STREAM" in out and ".rtrace" in out

    def test_ls_empty_dir(self, tmp_path, capsys):
        assert main(["trace", "ls", "--trace-dir", str(tmp_path)]) == 0
        assert "no traces" in capsys.readouterr().out

    def test_info_prints_key_payload(self, tmp_path, capsys):
        self._populate(tmp_path)
        name = next(tmp_path.glob("*.rtrace")).name
        assert main(["trace", "info", name, "--trace-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "records" in out and "key.benchmark" in out

    def test_info_missing_file(self, tmp_path, capsys):
        assert main(["trace", "info", "nope.rtrace", "--trace-dir", str(tmp_path)]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_info_requires_file_argument(self, capsys):
        assert main(["trace", "info"]) == 2
        assert "requires" in capsys.readouterr().err

    def test_gc_removes_corrupt_entries_only(self, tmp_path, capsys):
        self._populate(tmp_path)
        (tmp_path / "bad.rtrace").write_bytes(b"junk")
        assert main(["trace", "gc", "--trace-dir", str(tmp_path)]) == 0
        assert "bad.rtrace" in capsys.readouterr().out
        assert not (tmp_path / "bad.rtrace").exists()
        assert len(list(tmp_path.glob("*.rtrace"))) == 1

    def test_gc_all(self, tmp_path, capsys):
        self._populate(tmp_path)
        assert main(["trace", "gc", "--all", "--trace-dir", str(tmp_path)]) == 0
        assert not list(tmp_path.glob("*.rtrace"))

    def test_gc_requires_trace_dir(self, capsys):
        assert main(["trace", "gc"]) == 2
        assert "--trace-dir" in capsys.readouterr().err

    def test_capture_requires_file_argument(self, capsys):
        assert main(["trace", "STREAM"]) == 2
        assert "requires" in capsys.readouterr().err

    def test_sweep_trace_dir_populates_store(self, tmp_path, capsys):
        sweep_args = [
            "sweep", "--accesses", "900", "--benchmarks", "STREAM",
            "--configs", "uncoalesced,combined", "--quiet",
            "--trace-dir", str(tmp_path / "traces"),
        ]
        assert main(sweep_args) == 0
        # Both configs share one capture of the front end.
        assert len(list((tmp_path / "traces").glob("*.rtrace"))) == 1


class TestPerfUpdateBaseline:
    """The digest gate of ``perf --update-baseline``."""

    @staticmethod
    def _case(digest, wall=0.1):
        return {
            "benchmark": "STREAM",
            "config": "combined",
            "accesses": 600,
            "seed": 0,
            "kind": "sim",
            "digest": digest,
            "wall_seconds": wall,
            "requests_per_second": 1000.0,
            "normalized_throughput": 50.0,
        }

    def _report(self, digest, name="STREAM/combined@600"):
        return {
            "schema": 1,
            "suite": "test",
            "calibration_seconds": 0.05,
            "cases": {name: self._case(digest)},
        }

    def _args(self, path, force=False):
        import argparse

        return argparse.Namespace(baseline=str(path), force=force, threshold=0.25)

    def test_refuses_on_digest_change_without_force(self, tmp_path, capsys):
        from repro.__main__ import _update_baseline
        from repro.perf import save_report

        baseline = tmp_path / "baseline.json"
        save_report(self._report("aaa"), baseline)
        assert _update_baseline(self._report("bbb"), self._args(baseline)) == 1
        err = capsys.readouterr().err
        assert "refusing" in err and "--force" in err
        from repro.perf import load_report

        assert load_report(baseline)["cases"]["STREAM/combined@600"]["digest"] == "aaa"

    def test_force_overwrites_changed_digest(self, tmp_path, capsys):
        from repro.__main__ import _update_baseline
        from repro.perf import load_report, save_report

        baseline = tmp_path / "baseline.json"
        save_report(self._report("aaa"), baseline)
        assert _update_baseline(
            self._report("bbb"), self._args(baseline, force=True)
        ) == 0
        assert load_report(baseline)["cases"]["STREAM/combined@600"]["digest"] == "bbb"

    def test_merge_keeps_cases_not_rerun(self, tmp_path, capsys):
        from repro.__main__ import _update_baseline
        from repro.perf import load_report, save_report

        baseline = tmp_path / "baseline.json"
        save_report(self._report("aaa"), baseline)
        update = self._report("ccc", name="SG/combined@600")
        update["cases"]["SG/combined@600"]["benchmark"] = "SG"
        assert _update_baseline(update, self._args(baseline)) == 0
        cases = load_report(baseline)["cases"]
        assert set(cases) == {"STREAM/combined@600", "SG/combined@600"}

    def test_merge_keeps_the_baseline_header(self, tmp_path, capsys):
        from repro.__main__ import _update_baseline
        from repro.perf import load_report, save_report

        baseline = tmp_path / "baseline.json"
        old = self._report("aaa")
        old.update(suite="smoke", repeats=5, calibration_seconds=0.007)
        save_report(old, baseline)
        update = self._report("ccc", name="SG/combined@600")
        update.update(suite="sweep", repeats=3, calibration_seconds=0.002)
        assert _update_baseline(update, self._args(baseline)) == 0
        merged = load_report(baseline)
        assert (
            merged["suite"], merged["repeats"], merged["calibration_seconds"]
        ) == ("smoke", 5, 0.007)
        assert merged["cases"]["SG/combined@600"]["digest"] == "ccc"

    def test_filtered_update_leaves_the_checked_in_report(
        self, tmp_path, monkeypatch, capsys
    ):
        """A local re-record writes its report to an untracked path by
        default; a ``BENCH_perf.json`` in the working directory (the
        name CI's smoke step writes) changes only when ``--out`` names
        it."""
        import repro.perf
        from repro.perf import load_report, save_report

        monkeypatch.chdir(tmp_path)
        ci_report = tmp_path / "BENCH_perf.json"
        save_report(self._report("aaa"), ci_report)
        before = ci_report.read_bytes()
        baseline = tmp_path / "baseline.json"
        save_report(self._report("aaa"), baseline)
        monkeypatch.setattr(
            repro.perf,
            "run_suite",
            lambda cases, **kwargs: self._report("aaa", name=cases[0].name),
        )
        argv = [
            "perf", "--suite", "smoke", "--filter", "vector_replay:*",
            "--update-baseline", "--baseline", str(baseline), "--quiet",
        ]
        assert main(argv) == 0
        assert ci_report.read_bytes() == before
        assert load_report(tmp_path / "BENCH_perf.local.json")["cases"]

    def test_creates_baseline_when_absent(self, tmp_path, capsys):
        from repro.__main__ import _update_baseline
        from repro.perf import load_report

        baseline = tmp_path / "baseline.json"
        assert _update_baseline(self._report("aaa"), self._args(baseline)) == 0
        assert load_report(baseline)["cases"]
