"""Tests for the CLI entry point."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_with_flags(self):
        args = build_parser().parse_args(["run", "fig09", "--quick", "--json", "x.json"])
        assert args.experiment == "fig09"
        assert args.quick
        assert args.json == "x.json"

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_trace_command_flags(self):
        args = build_parser().parse_args(
            ["trace", "fig12", "--quick", "--audit", "--json", "t.json", "--tail", "5"]
        )
        assert args.command == "trace"
        assert args.experiment == "fig12"
        assert args.audit and args.quick
        assert args.json == "t.json" and args.tail == 5

    def test_run_audit_flag(self):
        args = build_parser().parse_args(["run", "fig12", "--audit"])
        assert args.audit

    def test_run_jobs_flag(self):
        args = build_parser().parse_args(["run", "fig12", "--jobs", "4"])
        assert args.jobs == 4
        assert build_parser().parse_args(["run", "fig12"]).jobs is None


class TestMain:
    def test_list_prints_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig12" in out and "table1" in out

    def test_run_cheap_experiment(self, capsys):
        assert main(["run", "fig09"]) == 0
        out = capsys.readouterr().out
        assert "fig09" in out and "finished in" in out

    def test_run_writes_json(self, tmp_path, capsys):
        path = tmp_path / "result.json"
        assert main(["run", "fig04", "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert "rows" in payload

    def test_unknown_experiment_raises(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            main(["run", "fig99"])

    def test_run_with_audit_reports_clean(self, capsys):
        assert main(["run", "fig04", "--audit"]) == 0
        out = capsys.readouterr().out
        assert "0 violation(s)" in out

    def test_audit_and_faults_context_ends_with_the_run(self, capsys):
        from repro.context import RunContext, current
        from repro.obs import runtime as obs

        argv = ["run", "fig04", "--audit", "--faults", "seed=43,intensity=2"]
        assert main(argv) == 0
        assert "0 violation(s)" in capsys.readouterr().out
        assert obs.sessions(), "--audit reached no platform"
        assert current() == RunContext()
        obs.reset_sessions()

    def test_trace_exports_events(self, tmp_path, capsys):
        json_path = tmp_path / "events.json"
        csv_path = tmp_path / "events.csv"
        assert (
            main(
                [
                    "trace",
                    "fig04",
                    "--audit",
                    "--json",
                    str(json_path),
                    "--csv",
                    str(csv_path),
                    "--tail",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "combined digest" in out
        assert "0 violation(s)" in out
        events = json.loads(json_path.read_text())
        assert events and {"seq", "time", "kind", "subject"} <= set(events[0])
        assert csv_path.read_text().startswith("seq,time,kind,subject")

    def test_run_with_jobs_parallelizes_grid_experiment(self, capsys):
        assert main(["run", "chaos", "--quick", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "chaos" in out and "finished in" in out

    def test_run_with_jobs_on_serial_experiment_says_so(self, capsys):
        assert main(["run", "fig04", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "no parallel sweep grid" in out

    def test_quick_kwargs_applied(self, capsys):
        # fig15 --quick uses a 300 s trace; just assert it completes fast
        # and prints the table.
        assert main(["run", "fig15", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "init_exec_barrier_ms" in out
