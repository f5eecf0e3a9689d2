"""Unit tests for the repro-fi command-line interface."""

import json
import os
from pathlib import Path

import pytest

from repro.cli import build_parser, main

PACKAGE_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_campaign_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.op == "gemm"
        assert args.dataflow == "WS"
        assert args.bit == 20

    def test_predict_requires_shape(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["predict", "--row", "0", "--col", "0"])

    def test_jobs_flag_parses_on_campaign_and_study(self):
        assert build_parser().parse_args(["campaign"]).jobs == 1
        assert build_parser().parse_args(["campaign", "-j", "4"]).jobs == 4
        assert build_parser().parse_args(["campaign", "--jobs", "2"]).jobs == 2
        assert build_parser().parse_args(["study", "-j", "3"]).jobs == 3

    def test_resume_and_checkpoint_flags_parse(self):
        args = build_parser().parse_args(
            ["campaign", "--checkpoint", "c.jsonl", "--resume", "c.jsonl"]
        )
        assert args.checkpoint == "c.jsonl"
        assert args.resume == "c.jsonl"

    @pytest.mark.parametrize("bad", ["0", "-2", "two"])
    def test_nonpositive_jobs_rejected(self, bad, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["campaign", "--jobs", bad])
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["campaign", "study"])
    def test_resilience_flags_parse_with_defaults(self, command):
        args = build_parser().parse_args([command])
        assert args.shard_timeout is None
        assert args.max_retries is None
        assert args.on_error == "quarantine"
        args = build_parser().parse_args(
            [command, "--shard-timeout", "30", "--max-retries", "0",
             "--on-error", "abort"]
        )
        assert args.shard_timeout == 30.0
        assert args.max_retries == 0
        assert args.on_error == "abort"

    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "--shard-timeout", "0"],
            ["campaign", "--shard-timeout", "-1.5"],
            ["campaign", "--shard-timeout", "soon"],
            ["campaign", "--max-retries", "-1"],
            ["campaign", "--max-retries", "many"],
            ["campaign", "--on-error", "explode"],
        ],
    )
    def test_bad_resilience_values_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert argv[1] in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["campaign", "study"])
    def test_obs_flags_parse_with_defaults(self, command):
        args = build_parser().parse_args([command])
        assert args.trace is None
        assert args.metrics is None
        assert args.progress is False
        args = build_parser().parse_args(
            [command, "--trace", "t.json", "--metrics", "m.prom",
             "--progress"]
        )
        assert args.trace == "t.json"
        assert args.metrics == "m.prom"
        assert args.progress is True


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.listen == ("127.0.0.1", 8100)
        assert args.state_dir == ".repro-service"
        assert args.resume is False
        assert args.max_queued == 16
        assert args.max_body_bytes == 1024 * 1024
        assert args.io_timeout == 30.0
        assert args.sse_interval == 0.25

    def test_serve_listen_parses_host_port(self):
        args = build_parser().parse_args(["serve", "--listen", "0.0.0.0:0"])
        assert args.listen == ("0.0.0.0", 0)


class TestLeaseHeartbeatValidation:
    """A heartbeat interval at or past the lease duration means every
    lease expires between renewals — rejected at argument-parse time."""

    @pytest.mark.parametrize(
        "heartbeat, lease",
        [("5", "5"), ("6", "5"), ("10.0", "2.5")],
    )
    def test_heartbeat_not_shorter_than_lease_is_a_usage_error(
        self, heartbeat, lease, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "campaign", "--heartbeat-interval", heartbeat,
                "--lease-seconds", lease,
            ])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--heartbeat-interval" in err
        assert "must be shorter than" in err

    def test_valid_pair_reaches_the_handler(self, tmp_path, monkeypatch):
        # A conforming pair parses straight through: the command runs a
        # real (local, serial) campaign and exits 0.
        monkeypatch.chdir(tmp_path)
        code = main([
            "campaign", "--rows", "2", "--cols", "2", "--size", "2",
            "--heartbeat-interval", "1", "--lease-seconds", "5",
        ])
        assert code == 0


class TestCampaignCommand:
    def test_gemm_campaign_summary(self, capsys):
        code = main(
            ["campaign", "--rows", "4", "--cols", "4", "--size", "4",
             "--dataflow", "WS"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "single-column" in out
        assert "experiments : 16" in out

    def test_conv_campaign(self, capsys):
        code = main(
            ["campaign", "--rows", "4", "--cols", "4", "--op", "conv",
             "--size", "6", "--kernel", "3,3,2,3", "--sites", "diagonal"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "single-channel" in out

    def test_bad_kernel_is_an_error(self, capsys):
        code = main(
            ["campaign", "--op", "conv", "--kernel", "nonsense",
             "--rows", "4", "--cols", "4", "--size", "6"]
        )
        assert code == 2
        assert "R,S,C,K" in capsys.readouterr().err

    def test_json_and_dict_outputs(self, tmp_path, capsys):
        json_path = tmp_path / "results.json"
        dict_path = tmp_path / "dict.json"
        code = main(
            ["campaign", "--rows", "4", "--cols", "4", "--size", "4",
             "--json", str(json_path), "--dict", str(dict_path)]
        )
        assert code == 0
        assert json.loads(json_path.read_text())["mesh"] == {"rows": 4, "cols": 4}
        assert len(json.loads(dict_path.read_text())["sites"]) == 16

    def test_random_sites(self, capsys):
        code = main(
            ["campaign", "--rows", "4", "--cols", "4", "--size", "4",
             "--sites", "random", "--num-random", "5"]
        )
        assert code == 0
        assert "experiments : 5" in capsys.readouterr().out

    def test_parallel_smoke_matches_serial(self, capsys):
        """`repro-fi campaign -j 2` on a 4x4 array, byte-identical summary."""
        argv = ["campaign", "--rows", "4", "--cols", "4", "--size", "4"]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["-j", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out
        assert "experiments : 16" in parallel_out

    def test_checkpoint_then_resume(self, tmp_path, capsys):
        path = tmp_path / "campaign.jsonl"
        argv = ["campaign", "--rows", "4", "--cols", "4", "--size", "4"]
        assert main(argv + ["-j", "2", "--checkpoint", str(path)]) == 0
        full_out = capsys.readouterr().out
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 16  # header + one record per MAC
        path.write_text("\n".join(lines[:9]) + "\n")  # killed mid-shard
        assert main(argv + ["-j", "2", "--resume", str(path)]) == 0
        assert capsys.readouterr().out == full_out
        assert len(path.read_text().splitlines()) == 1 + 16

    def test_torn_checkpoint_header_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "campaign.jsonl"
        path.write_text('{"kind": "campaign-ch')  # crashed mid-header
        code = main(
            ["campaign", "--rows", "4", "--cols", "4", "--size", "4",
             "-j", "2", "--checkpoint", str(path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "header" in err
        assert str(path) in err

    def test_resilience_knobs_reach_the_executor(self, capsys):
        """The flags don't change a healthy campaign's output, only its
        failure policy; a smoke run proves they thread through."""
        code = main(
            ["campaign", "--rows", "4", "--cols", "4", "--size", "4",
             "-j", "2", "--shard-timeout", "120", "--max-retries", "1",
             "--on-error", "abort"]
        )
        assert code == 0
        assert "experiments : 16" in capsys.readouterr().out

    def test_resume_missing_file_is_an_error(self, tmp_path, capsys):
        code = main(
            ["campaign", "--rows", "4", "--cols", "4", "--size", "4",
             "--resume", str(tmp_path / "absent.jsonl")]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_obs_artifacts_written_serial(self, tmp_path, capsys):
        from repro.obs import parse_prometheus, validate_chrome_trace

        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.prom"
        code = main(
            ["campaign", "--rows", "4", "--cols", "4", "--size", "4",
             "--trace", str(trace_path), "--metrics", str(metrics_path),
             "--progress"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert validate_chrome_trace(json.loads(trace_path.read_text())) == []
        samples = parse_prometheus(metrics_path.read_text())
        assert samples["repro_sites_completed_total"] == 16.0
        assert "telemetry" in captured.out
        assert "16/16 (100.0%)" in captured.err  # the progress line

    def test_obs_artifacts_written_parallel(self, tmp_path, capsys):
        from repro.obs import validate_chrome_trace

        trace_path = tmp_path / "trace.json"
        code = main(
            ["campaign", "--rows", "4", "--cols", "4", "--size", "4",
             "-j", "2", "--trace", str(trace_path)]
        )
        assert code == 0
        data = json.loads(trace_path.read_text())
        assert validate_chrome_trace(data) == []
        names = {event["name"] for event in data["traceEvents"]}
        assert "shard.run" in names  # worker-side spans made it across

    def test_metrics_json_suffix_writes_snapshot(self, tmp_path, capsys):
        from repro.core.serialize import load_metrics

        metrics_path = tmp_path / "metrics.json"
        code = main(
            ["campaign", "--rows", "4", "--cols", "4", "--size", "4",
             "--metrics", str(metrics_path)]
        )
        assert code == 0
        restored = load_metrics(metrics_path)
        assert restored.value("repro_sites_completed_total") == 16.0

    def test_obs_flags_do_not_change_the_summary_body(self, capsys):
        # Identical summary modulo the telemetry lines and artifact notes.
        argv = ["campaign", "--rows", "4", "--cols", "4", "--size", "4"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--progress"]) == 0
        observed = capsys.readouterr().out
        stripped = "\n".join(
            line for line in observed.splitlines()
            if "telemetry" not in line and "retries" not in line
        )
        assert stripped.strip() == plain.strip()

    @pytest.mark.parametrize(
        "flags, path",
        [
            (["--bit", "99"], "fault"),
            (["--bit", "-1"], "fault.bit"),
            (["--signal", "a_reg", "--bit", "12"], "fault"),
            (["--rows", "0"], "mesh.rows"),
        ],
    )
    def test_bad_flags_fail_with_the_spec_field_path(self, flags, path, capsys):
        code = main(["campaign", "--size", "4", *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {path}: ")
        assert err.count("\n") == 1  # one line, no traceback
        assert "Traceback" not in err

    def test_nonpositive_num_random_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--sites", "random", "--num-random", "0"])
        assert excinfo.value.code == 2
        assert "--num-random" in capsys.readouterr().err


class _Launched(Exception):
    """Raised by a stub executor to capture what the CLI would run."""


#: The flag combinations of TestCampaignCommand, plus a fabric launch.
LAUNCHES = [
    ["--rows", "4", "--cols", "4", "--size", "4", "--dataflow", "WS"],
    ["--rows", "4", "--cols", "4", "--op", "conv", "--size", "6",
     "--kernel", "3,3,2,3", "--sites", "diagonal"],
    ["--rows", "4", "--cols", "4", "--size", "4", "--json", "r.json",
     "--dict", "d.json"],
    ["--rows", "4", "--cols", "4", "--size", "4", "--sites", "random",
     "--num-random", "5"],
    ["--rows", "4", "--cols", "4", "--size", "4", "-j", "2"],
    ["--rows", "4", "--cols", "4", "--size", "4", "-j", "2",
     "--checkpoint", "c.jsonl"],
    ["--rows", "4", "--cols", "4", "--size", "4", "-j", "2",
     "--resume", "c.jsonl"],
    ["--rows", "4", "--cols", "4", "--size", "4", "--checkpoint", "c.jsonl"],
    ["--rows", "4", "--cols", "4", "--size", "4", "-j", "2",
     "--shard-timeout", "120", "--max-retries", "1", "--on-error", "abort"],
    ["--rows", "4", "--cols", "4", "--size", "4", "--trace", "t.json",
     "--metrics", "m.prom", "--progress"],
    ["--rows", "4", "--cols", "4", "--size", "4", "--fabric-listen",
     "127.0.0.1:0", "--fabric-workers", "3", "--lease-seconds", "6",
     "--heartbeat-interval", "1.5", "--join-timeout", "9"],
]


class TestOneLaunchSeam:
    """A CLI launch and an HTTP launch of the same flags are the same
    campaign: the spec document the CLI builds, decoded the way the
    service decodes a request body, re-encodes to what the CLI runs."""

    @pytest.mark.parametrize("flags", LAUNCHES)
    def test_cli_spec_decodes_to_the_cli_campaign(self, flags, monkeypatch):
        import repro.cli as cli
        from repro.core.serialize import (
            decode_campaign_spec,
            encode_campaign_spec,
        )

        class Stub:
            def __init__(self, executor_spec, **wiring):
                self.executor_spec = executor_spec

            def execute(self, campaign):
                raise _Launched(campaign, self.executor_spec)

        monkeypatch.setattr(cli, "build_executor", Stub)
        with pytest.raises(_Launched) as launched:
            main(["campaign", *flags])
        ran, ran_executor = launched.value.args
        args = build_parser().parse_args(["campaign", *flags])
        document = cli._campaign_spec(args)
        body = json.loads(json.dumps(document))  # what an HTTP client sends
        served, served_executor = decode_campaign_spec(body)
        assert encode_campaign_spec(served, served_executor) == (
            encode_campaign_spec(ran, ran_executor)
        )

    @pytest.mark.parametrize(
        "flags, kind",
        [
            (["-j", "1", "--checkpoint", "c.jsonl"],
             {"kind": "parallel", "jobs": 1}),
            (["--resume", "c.jsonl"], {"kind": "parallel", "jobs": 1}),
            (["-j", "3"], {"kind": "parallel", "jobs": 3}),
            ([], {"kind": "serial"}),
        ],
    )
    def test_flags_pick_the_executor_kind(self, flags, kind):
        from repro.cli import _campaign_spec

        args = build_parser().parse_args(["campaign", *flags])
        assert _campaign_spec(args)["executor"] == kind


class TestPredictCommand:
    def test_prediction_rendering(self, capsys):
        code = main(
            ["predict", "--rows", "4", "--cols", "4", "--m", "8", "--k", "4",
             "--n", "8", "--dataflow", "WS", "--row", "0", "--col", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "single-column multi-tile" in out
        assert "#" in out  # the support rendering

    def test_large_output_skips_rendering(self, capsys):
        code = main(
            ["predict", "--m", "112", "--k", "112", "--n", "112",
             "--row", "5", "--col", "9"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "corrupted cells: 784" in out
        assert "#" not in out


class TestStudyCommand:
    def test_fast_study(self, capsys):
        code = main(["study", "--fast"])
        out = capsys.readouterr().out
        assert code == 0
        assert "single-element" in out
        assert "all match analytical prediction : True" in out

    def test_markdown_output(self, tmp_path, capsys):
        path = tmp_path / "report.md"
        code = main(["study", "--fast", "--markdown", str(path)])
        assert code == 0
        assert path.read_text().startswith("# Paper study report")

    def test_obs_artifacts_cover_the_whole_grid(self, tmp_path, capsys):
        from repro.obs import parse_prometheus, validate_chrome_trace

        trace_path = tmp_path / "study.json"
        metrics_path = tmp_path / "study.prom"
        code = main(
            ["study", "--fast", "--trace", str(trace_path),
             "--metrics", str(metrics_path)]
        )
        assert code == 0
        data = json.loads(trace_path.read_text())
        assert validate_chrome_trace(data) == []
        executes = [
            e for e in data["traceEvents"] if e["name"] == "campaign.execute"
        ]
        assert len(executes) > 1  # one per study configuration
        samples = parse_prometheus(metrics_path.read_text())
        assert samples["repro_sites_completed_total"] > 0


class TestZooCommand:
    def test_lenet_table(self, capsys):
        code = main(["zoo", "lenet5"])
        out = capsys.readouterr().out
        assert code == 0
        for layer in ("conv1", "conv2", "fc1", "fc2", "fc3"):
            assert layer in out
        assert "single-channel" in out

    def test_mesh_and_dataflow_flags(self, capsys):
        code = main(
            ["zoo", "resnet18", "--rows", "8", "--cols", "8",
             "--dataflow", "OS"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "8x8 mesh" in out and "OS dataflow" in out

    def test_unknown_network_rejected(self):
        with pytest.raises(SystemExit):
            main(["zoo", "vgg19"])


class TestLintCommand:
    def test_clean_tree_exits_zero(self, capsys):
        code = main(["lint", str(PACKAGE_ROOT), "--no-cache"])
        out = capsys.readouterr().out
        assert code == 0
        assert "no findings" in out

    def test_violation_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "systolic"
        bad.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").touch()
        (bad / "__init__.py").touch()
        target = bad / "drifty.py"
        target.write_text("__all__ = []\nSCALE = 0.5\n")
        code = main(
            ["lint", str(target), "--cache-path", str(tmp_path / "cache.json")]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "bit-accuracy" in out
        assert "finding(s)" in out

    def test_json_output_parses(self, tmp_path, capsys):
        target = tmp_path / "loose.py"
        target.write_text("def orphan():\n    return 1\n")
        code = main(
            ["lint", str(target), "--format", "json",
             "--cache-path", str(tmp_path / "cache.json")]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["count"] == len(payload["findings"]) == 1
        assert payload["findings"][0]["rule"] == "export-hygiene"

    def test_list_rules(self, capsys):
        code = main(["lint", "--list-rules"])
        out = capsys.readouterr().out
        assert code == 0
        for rule_id in (
            "bit-accuracy",
            "signal-literal",
            "unseeded-random",
            "export-hygiene",
            "dataclass-contract",
            "worker-wall-clock",
            "worker-exception-swallow",
            "exception-contract",
            "socket-discipline",
            "array-dtype-closure",
        ):
            assert rule_id in out
        # Severity and scope columns are present, and output is sorted.
        assert "severity" in out and "scope" in out
        assert "whole-program" in out
        ids = [
            line.split()[0]
            for line in out.splitlines()[2:]
            if line.strip()
        ]
        assert ids == sorted(ids)

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        code = main(["lint", str(tmp_path / "nope")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_sarif_output_parses(self, tmp_path, capsys):
        target = tmp_path / "loose.py"
        target.write_text("def orphan():\n    return 1\n")
        code = main(["lint", str(target), "--format", "sarif", "--no-cache"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["version"] == "2.1.0"
        results = doc["runs"][0]["results"]
        assert results[0]["ruleId"] == "export-hygiene"
        rules = doc["runs"][0]["tool"]["driver"]["rules"]
        assert rules[results[0]["ruleIndex"]]["id"] == "export-hygiene"

    def test_baseline_roundtrip(self, tmp_path, capsys):
        target = tmp_path / "loose.py"
        target.write_text("def orphan():\n    return 1\n")
        baseline = tmp_path / "baseline.json"
        code = main(
            ["lint", str(target), "--no-cache",
             "--baseline", str(baseline), "--update-baseline"]
        )
        assert code == 0
        assert "baseline of 1 finding(s)" in capsys.readouterr().out
        # Masked by the baseline on the next run.
        code = main(
            ["lint", str(target), "--no-cache", "--baseline", str(baseline)]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "no findings" in captured.out
        # Fixing the violation makes the entry dangling, reported as a note.
        target.write_text("__all__ = []\n")
        code = main(
            ["lint", str(target), "--no-cache", "--baseline", str(baseline)]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "no longer matches" in captured.err

    def test_update_baseline_requires_baseline_path(self, tmp_path, capsys):
        target = tmp_path / "loose.py"
        target.write_text("__all__ = []\n")
        code = main(["lint", str(target), "--no-cache", "--update-baseline"])
        assert code == 2
        assert "--baseline" in capsys.readouterr().err

    def test_cache_path_flag_writes_cache(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("__all__ = []\n")
        cache = tmp_path / "cache.json"
        code = main(["lint", str(target), "--cache-path", str(cache)])
        assert code == 0
        assert cache.exists()

    def test_jobs_flag_matches_serial_run(self, tmp_path, capsys):
        # Two files with one violation each: -j 2 must report exactly
        # what a serial run reports, in the same order.
        for stem in ("alpha", "beta"):
            (tmp_path / f"{stem}.py").write_text(
                "def orphan():\n    return 1\n"
            )
        code = main(["lint", str(tmp_path), "--no-cache"])
        serial_out = capsys.readouterr().out
        assert code == 1
        code = main(["lint", str(tmp_path), "--no-cache", "-j", "2"])
        parallel_out = capsys.readouterr().out
        assert code == 1
        assert parallel_out == serial_out

    def test_jobs_flag_rejects_zero(self, capsys):
        with pytest.raises(SystemExit):
            main(["lint", "src/repro", "-j", "0"])

    def test_fail_on_new_needs_committed_baseline(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("__all__ = []\n")
        cwd = os.getcwd()
        os.chdir(tmp_path)  # no lint-baseline.json here
        try:
            code = main(["lint", str(target), "--no-cache", "--fail-on", "new"])
        finally:
            os.chdir(cwd)
        assert code == 2
        assert "lint-baseline.json" in capsys.readouterr().err

    def test_fail_on_new_gates_only_new_findings(self, tmp_path, capsys):
        target = tmp_path / "loose.py"
        target.write_text("def orphan():\n    return 1\n")
        cwd = os.getcwd()
        os.chdir(tmp_path)
        try:
            # Freeze the pre-existing finding into the default baseline...
            code = main(
                ["lint", str(target), "--no-cache",
                 "--fail-on", "new", "--update-baseline"]
            )
            assert code == 0
            assert (tmp_path / "lint-baseline.json").is_file()
            # ...after which the run passes: nothing is new.
            code = main(
                ["lint", str(target), "--no-cache", "--fail-on", "new"]
            )
            captured = capsys.readouterr()
            assert code == 0
            assert "no findings" in captured.out
            # A second, new violation still fails the run.
            target.write_text(
                "def orphan():\n    return 1\n\ndef stray():\n    return 2\n"
            )
            code = main(
                ["lint", str(target), "--no-cache", "--fail-on", "new"]
            )
            captured = capsys.readouterr()
        finally:
            os.chdir(cwd)
        assert code == 1
        assert "export-hygiene" in captured.out


class TestLintRuleSelection:
    """``--select`` / ``--skip`` rule subsets."""

    @staticmethod
    def _seeded_kernel(tmp_path):
        # One implicit-dtype violation (array-dtype-closure) and one
        # export-hygiene violation (no __all__) in a scoped module.
        pkg = tmp_path / "repro" / "systolic"
        pkg.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").touch()
        (pkg / "__init__.py").write_text("__all__ = []\n")
        target = pkg / "seeded.py"
        target.write_text(
            "import numpy as np\n"
            "def kernel(n: int):\n"
            "    return np.arange(n)\n"
        )
        return target

    def test_select_runs_only_named_rules(self, tmp_path, capsys):
        self._seeded_kernel(tmp_path)
        code = main(
            ["lint", str(tmp_path), "--select", "array-dtype-closure"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "array-dtype-closure" in out
        assert "export-hygiene" not in out
        assert "1 finding(s)" in out

    def test_skip_removes_named_rules(self, tmp_path, capsys):
        self._seeded_kernel(tmp_path)
        code = main(
            ["lint", str(tmp_path), "--skip",
             "array-dtype-closure,export-hygiene"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "no findings" in out

    def test_select_and_skip_compose(self, tmp_path, capsys):
        self._seeded_kernel(tmp_path)
        code = main(
            ["lint", str(tmp_path),
             "--select", "array-dtype-closure,export-hygiene",
             "--skip", "array-dtype-closure"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "export-hygiene" in out
        assert "array-dtype-closure" not in out

    def test_unknown_rule_id_rejected_with_known_list(
        self, tmp_path, capsys
    ):
        self._seeded_kernel(tmp_path)
        code = main(["lint", str(tmp_path), "--select", "no-such-rule"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown rule id(s): no-such-rule" in err
        # The sorted known-id list rides along for discoverability.
        assert "array-dtype-closure, bit-accuracy" in err
        assert "worker-wall-clock" in err

    def test_unknown_skip_id_rejected(self, tmp_path, capsys):
        self._seeded_kernel(tmp_path)
        code = main(["lint", str(tmp_path), "--skip", "bogus-rule"])
        assert code == 2
        assert "bogus-rule" in capsys.readouterr().err


class TestAtlasAndStatespace:
    def test_atlas_lists_all_gemm_classes(self, capsys):
        assert main(["atlas"]) == 0
        out = capsys.readouterr().out
        for name in (
            "single-element",
            "single-element multi-tile",
            "single-column",
            "single-column multi-tile",
            "single-row",
            "single-row multi-tile",
        ):
            assert f"--- {name} " in out

    def test_statespace(self, capsys):
        assert main(["statespace"]) == 0
        assert "131072" in capsys.readouterr().out
