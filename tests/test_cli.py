"""Command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_window_parsing(self):
        args = build_parser().parse_args(
            ["estimate", "--window", "2012.0:2013.0"]
        )
        assert args.window.start == 2012.0 and args.window.end == 2013.0

    def test_bad_window_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["estimate", "--window", "bogus"])

    def test_scale_default(self):
        args = build_parser().parse_args(["simulate"])
        assert args.scale_log2 == -12

    def test_store_flag_default_off(self):
        args = build_parser().parse_args(["estimate"])
        assert args.store is None

    def test_size_and_age_suffixes(self):
        args = build_parser().parse_args(
            ["store", "gc", "x", "--max-bytes", "2g", "--max-age", "7d"]
        )
        assert args.max_bytes == 2 * 1024**3
        assert args.max_age == 7 * 86400.0

    def test_bad_size_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["store", "gc", "x", "--max-bytes", "lots"]
            )

    def test_store_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["store"])

    def test_workers_zero_is_a_parse_error(self, capsys):
        for argv in (["windows", "--workers", "0"],
                     ["campaign", "submit", "--workers", "0"]):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(argv)
            assert excinfo.value.code == 2
            assert "must be >= 1" in capsys.readouterr().err

    def test_out_of_range_fault_tolerance_is_a_parse_error(self, capsys):
        for argv, message in (
            (["--retries", "-1", "windows"], "--retries must be >= 0"),
            (["--retries", "-1", "campaign", "submit"], "--retries must be >= 0"),
            (["--task-timeout", "0", "windows"], "--task-timeout must be > 0"),
            (["--task-timeout", "-5", "windows"], "--task-timeout must be > 0"),
        ):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(argv)
            assert excinfo.value.code == 2
            assert message in capsys.readouterr().err

    def test_workers_help_not_duplicated(self, capsys):
        # One canonical --workers definition via the shared parent
        # parser: each command's help shows the flag exactly once in
        # the usage line and once in the options list, never more.
        for command in ("windows", ("campaign", "submit")):
            argv = [command] if isinstance(command, str) else list(command)
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv + ["--help"])
            help_text = capsys.readouterr().out
            assert help_text.count("--workers") == 2, command

    def test_leave_one_out_commands_take_no_workers(self, capsys):
        # Their folds and drops are one batched stage, not a fan-out.
        for command in ("crossval", "sensitivity"):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args([command, "--workers", "2"])
            assert excinfo.value.code == 2
            assert "unrecognized arguments: --workers" in capsys.readouterr().err

    def test_campaign_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign"])

    def test_query_what_choices(self):
        args = build_parser().parse_args(["query", "--what", "growth"])
        assert args.what == "growth" and args.campaign_id is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "--what", "everything"])


class TestCommands:
    """Each command runs end to end on a very small Internet."""

    ARGS = ["--scale-log2", "-14", "--seed", "3"]

    def test_simulate(self, capsys):
        assert main(self.ARGS + ["simulate"]) == 0
        out = capsys.readouterr().out
        assert "routed" in out and "used addrs" in out

    def test_estimate(self, capsys):
        assert main(self.ARGS + ["estimate"]) == 0
        out = capsys.readouterr().out
        assert "estimated" in out and "est/ping" in out

    def test_crossval(self, capsys):
        assert main(self.ARGS + ["crossval"]) == 0
        out = capsys.readouterr().out
        assert "held-out" in out and "IPING" in out

    def test_supply(self, capsys):
        assert main(self.ARGS + ["supply"]) == 0
        out = capsys.readouterr().out
        assert "World" in out and "runout" in out

    def test_sensitivity(self, capsys):
        assert main(self.ARGS + ["sensitivity"]) == 0
        out = capsys.readouterr().out
        assert "dropped source" in out and "robust" in out

    def test_churn(self, capsys):
        assert main(self.ARGS + ["churn", "--clients", "5000"]) == 0
        out = capsys.readouterr().out
        assert "post-saturation" in out


class TestEstimateFiles:
    def make_files(self, tmp_path, rng):
        import numpy as np

        from repro.ipspace.addresses import format_addr

        pop = rng.choice(2**30, 4000, replace=False).astype(np.uint32)
        paths = []
        for name, p in [("alpha", 0.5), ("beta", 0.45), ("gamma", 0.4)]:
            seen = pop[rng.random(4000) < p]
            path = tmp_path / f"{name}.txt"
            path.write_text("\n".join(format_addr(a) for a in seen) + "\n")
            paths.append(str(path))
        return paths

    def test_estimate_files(self, capsys, tmp_path, rng):
        paths = self.make_files(tmp_path, rng)
        assert main(["estimate-files", *paths]) == 0
        out = capsys.readouterr().out
        assert "parsed datasets" in out and "estimate:" in out

    def test_estimate_files_needs_two(self, capsys, tmp_path, rng):
        paths = self.make_files(tmp_path, rng)
        assert main(["estimate-files", paths[0]]) == 2


class TestObservability:
    """--trace / --metrics-out and the `report` renderer."""

    ARGS = ["--scale-log2", "-14", "--seed", "3"]

    def test_trace_writes_ledger_and_report_renders(self, capsys, tmp_path):
        run_dir = tmp_path / "run"
        assert main(self.ARGS + ["--trace", str(run_dir), "estimate"]) == 0
        out = capsys.readouterr().out
        assert "run ledger written" in out
        for name in ("run.json", "trace.jsonl", "metrics.json",
                     "metrics.prom", "events.jsonl", "report.json"):
            assert (run_dir / name).exists(), name
        assert main(["report", str(run_dir)]) == 0
        report = capsys.readouterr().out
        assert "per-stage timings" in report
        assert "fit kernel:" in report
        assert "slowest spans" in report

    @pytest.mark.parametrize(
        "command, stage", [("crossval", "crossval"), ("supply", "stratified")]
    )
    def test_failed_stage_exits_1_and_keeps_its_ledger(
        self, capsys, tmp_path, command, stage
    ):
        run_dir = tmp_path / "run"
        code = main(self.ARGS + [
            "--trace", str(run_dir), "--inject-faults", f"{stage}:error:0:9",
            command,
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"stage {stage} failed: FaultInjected: "
            f"injected error at {stage}[0] attempt 1"
        ]
        for name in ("run.json", "report.json", "trace.jsonl"):
            assert (run_dir / name).exists(), name
        assert main(["report", str(run_dir)]) == 0
        report = capsys.readouterr().out
        assert f"failed stage {stage}: 1 resolution(s)" in report

    def test_metrics_out_alone(self, capsys, tmp_path):
        import json

        path = tmp_path / "metrics.json"
        assert main(self.ARGS + ["--metrics-out", str(path), "estimate"]) == 0
        assert "metrics written" in capsys.readouterr().out
        payload = json.loads(path.read_text())
        names = {c["name"] for c in payload["counters"]}
        assert "cache_misses_total" in names
        assert any(n.startswith("fit_") for n in names)

    def test_report_into_a_closed_pipe_exits_quietly(self, tmp_path):
        """``repro report RUN | head``: a reader that leaves before the
        report is written ends the run with exit 1 and no traceback,
        whether stdout is buffered or not."""
        run_dir = tmp_path / "run"
        assert main(self.ARGS + ["--trace", str(run_dir), "estimate"]) == 0
        for unbuffered in (True, False):
            env = dict(os.environ, PYTHONPATH=str(SRC))
            env.pop("PYTHONUNBUFFERED", None)
            if unbuffered:
                env["PYTHONUNBUFFERED"] = "1"
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                done = subprocess.run(
                    [sys.executable, "-m", "repro", "report", str(run_dir)],
                    stdout=write_end, stderr=subprocess.PIPE, env=env,
                    text=True, timeout=300,
                )
            finally:
                os.close(write_end)
            assert "Traceback" not in done.stderr, unbuffered
            assert "BrokenPipeError" not in done.stderr, unbuffered
            assert done.returncode == 1, unbuffered

    def test_report_on_missing_directory_fails_cleanly(self, capsys, tmp_path):
        assert main(["report", str(tmp_path / "nope")]) == 2
        assert "no run directory" in capsys.readouterr().err

    def test_default_run_has_no_observability_output(self, capsys):
        assert main(self.ARGS + ["estimate"]) == 0
        out = capsys.readouterr().out
        assert "run ledger" not in out
        assert "metrics written" not in out


class TestCampaignCli:
    """The service verbs end to end on a very small Internet."""

    ARGS = ["--scale-log2", "-14", "--seed", "3"]

    def submit(self, tmp_path, capsys):
        service = str(tmp_path / "campaigns")
        assert main(self.ARGS + [
            "campaign", "submit", "--service", service,
            "--window", "2013.0:2014.0", "--window", "2013.5:2014.5",
            "--drop", "SWIN",
        ]) == 0
        out = capsys.readouterr().out
        campaign_id = out.split("campaign ", 1)[1].split(":", 1)[0]
        return service, campaign_id, out

    def test_submit_runs_to_completion(self, capsys, tmp_path):
        _, campaign_id, out = self.submit(tmp_path, capsys)
        assert campaign_id.startswith("c") and len(campaign_id) == 17
        assert "completed" in out
        assert "4 done" in out

    def test_status_results_and_query(self, capsys, tmp_path):
        from repro.core import fitkernel

        service, campaign_id, _ = self.submit(tmp_path, capsys)
        assert main(["campaign", "status", campaign_id,
                     "--service", service]) == 0
        assert "completed" in capsys.readouterr().out
        assert main(["campaign", "results", campaign_id,
                     "--service", service]) == 0
        results = capsys.readouterr().out
        assert "window sweep" in results
        assert "Jun 2014" in results
        assert "sensitivity grid" in results
        # Every query kind answers from the ledger: zero fit delta.
        before = fitkernel.snapshot().fits
        for what in ("totals", "growth", "windows", "sensitivity"):
            assert main(["query", campaign_id, "--what", what,
                         "--service", service]) == 0
            out = capsys.readouterr().out
            assert "served from query ledger" in out
        assert fitkernel.snapshot().fits == before

    def test_query_defaults_to_latest_campaign(self, capsys, tmp_path):
        service, campaign_id, _ = self.submit(tmp_path, capsys)
        assert main(["query", "--service", service]) == 0
        out = capsys.readouterr().out
        assert campaign_id in out
        assert "totals" in out

    def test_resubmission_served_from_ledger(self, capsys, tmp_path):
        from repro.core import fitkernel

        service, _, _ = self.submit(tmp_path, capsys)
        before = fitkernel.snapshot().fits
        assert main(self.ARGS + [
            "campaign", "submit", "--service", service,
            "--window", "2013.0:2014.0", "--window", "2013.5:2014.5",
            "--drop", "SWIN",
        ]) == 0
        assert "already complete" in capsys.readouterr().out
        assert fitkernel.snapshot().fits == before

    def test_unknown_campaign_exits_2(self, capsys, tmp_path):
        service = str(tmp_path / "campaigns")
        assert main(["campaign", "status", "c0000000000000000",
                     "--service", service]) == 2
        assert "no campaign" in capsys.readouterr().err
        assert main(["query", "--service", service]) == 2
        assert "no campaigns" in capsys.readouterr().err


class TestArtifactStoreCli:
    """--store on pipeline commands and the `store` subcommands."""

    ARGS = ["--scale-log2", "-14", "--seed", "3"]

    def warm_store(self, tmp_path, capsys):
        """Two estimate runs against one store; returns their outputs."""
        store = str(tmp_path / "store")
        assert main(self.ARGS + ["--store", store, "estimate"]) == 0
        cold = capsys.readouterr().out
        assert main(self.ARGS + ["--store", store, "estimate"]) == 0
        warm = capsys.readouterr().out
        return store, cold, warm

    def test_warm_run_output_is_identical(self, capsys, tmp_path):
        _, cold, warm = self.warm_store(tmp_path, capsys)
        assert warm == cold
        assert "estimated" in warm

    def test_store_stats_lists_stage_entries(self, capsys, tmp_path):
        store, _, _ = self.warm_store(tmp_path, capsys)
        assert main(["store", "stats", store]) == 0
        out = capsys.readouterr().out
        assert "entries:" in out
        assert "window_result" in out

    def test_store_verify_clean_then_corrupt(self, capsys, tmp_path):
        from pathlib import Path

        store, _, _ = self.warm_store(tmp_path, capsys)
        assert main(["store", "verify", store]) == 0
        assert "corrupt: 0" in capsys.readouterr().out
        victim = next(Path(store).rglob("*.arr"))
        data = bytearray(victim.read_bytes())
        data[-20] ^= 0xFF
        victim.write_bytes(bytes(data))
        assert main(["store", "verify", store]) == 1
        assert "corrupt: 1" in capsys.readouterr().out
        assert main(["store", "verify", store, "--delete"]) == 1
        assert not victim.exists()
        assert main(["store", "verify", store]) == 0

    def test_store_gc_by_age_empties_store(self, capsys, tmp_path):
        store, _, _ = self.warm_store(tmp_path, capsys)
        assert main(["store", "gc", store, "--max-age", "0s"]) == 0
        out = capsys.readouterr().out
        assert "kept:    0 entries" in out
        assert main(["store", "stats", store]) == 0
        assert "entries: 0" in capsys.readouterr().out

    def test_store_commands_on_missing_directory(self, capsys, tmp_path):
        missing = str(tmp_path / "nope")
        # stats treats a missing directory as an empty store ...
        assert main(["store", "stats", missing]) == 0
        assert "entries: 0" in capsys.readouterr().out
        # ... but maintenance on one is a caller mistake.
        for sub in ("gc", "verify"):
            assert main(["store", sub, missing]) == 2
            assert "no store directory" in capsys.readouterr().err

    def test_report_diff_across_runs(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        cold_dir, warm_dir = str(tmp_path / "cold"), str(tmp_path / "warm")
        for run_dir in (cold_dir, warm_dir):
            assert main(
                self.ARGS
                + ["--store", store, "--trace", run_dir, "estimate"]
            ) == 0
            capsys.readouterr()
        assert main(["report", warm_dir, "--diff", cold_dir]) == 0
        out = capsys.readouterr().out
        assert "run diff" in out
        assert "cache hit rate" in out

    def test_report_diff_missing_baseline(self, capsys, tmp_path):
        run_dir = tmp_path / "run"
        assert main(self.ARGS + ["--trace", str(run_dir), "estimate"]) == 0
        capsys.readouterr()
        missing = str(tmp_path / "nope")
        assert main(["report", str(run_dir), "--diff", missing]) == 2
        assert "no run directory" in capsys.readouterr().err
