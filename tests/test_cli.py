"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from tests.conftest import TINY_SCALE


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_parses_ids_and_scale(self):
        args = build_parser().parse_args(["run", "fig9", "--scale", "small"])
        assert args.ids == ["fig9"]
        assert args.scale == "small"

    def test_rejects_unknown_scale(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig9", "--scale", "gigantic"])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0

    def test_run_parses_resilience_flags(self):
        args = build_parser().parse_args(
            [
                "run",
                "fig9",
                "--fail-fast",
                "--resume",
                "ckpt",
                "--inject-fault",
                "sat:0.05",
                "--inject-fault",
                "relay:0.1,seed:3",
            ]
        )
        assert args.fail_fast
        assert str(args.resume) == "ckpt"
        assert args.inject_fault == ["sat:0.05", "relay:0.1,seed:3"]

    def test_keep_going_and_fail_fast_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig9", "--keep-going", "--fail-fast"])

    def test_run_parses_profile_flag(self):
        args = build_parser().parse_args(["run", "fig2", "--profile"])
        assert args.profile
        assert not build_parser().parse_args(["run", "fig2"]).profile

    def test_run_parses_integrity_flags(self):
        args = build_parser().parse_args(
            ["run", "fig2", "--strict", "--resume", "ck", "--fresh"]
        )
        assert args.strict and args.fresh
        plain = build_parser().parse_args(["run", "fig2"])
        assert not plain.strict and not plain.fresh

    def test_verify_parses_directory(self):
        args = build_parser().parse_args(["verify", "artifacts"])
        assert args.command == "verify"
        assert str(args.directory) == "artifacts"

    def test_fresh_without_resume_exits_2(self, capsys):
        assert main(["run", "fig2", "--fresh"]) == 2
        assert "--resume" in capsys.readouterr().err


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "fig2" in output
        assert "disconnected" in output

    def test_info(self, capsys):
        assert main(["info"]) == 0
        output = capsys.readouterr().out
        assert "starlink" in output
        assert "1584" in output
        assert "full" in output

    def test_scenario_summary(self, capsys):
        assert main(["scenario", "--scale", "small"]) == 0
        output = capsys.readouterr().out
        assert "satellites" in output
        assert "1584" in output

    def test_run_unknown_id(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_run_fig9_with_output_dir(self, capsys, tmp_path, monkeypatch):
        # fig9 is pure geometry: cheap enough for a unit test.
        assert main(["run", "fig9", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "fig9.txt").exists()
        assert "GSO" in capsys.readouterr().out

    def test_run_out_dir_also_writes_json(self, capsys, tmp_path):
        from repro.persistence import load_experiment_result

        assert main(["run", "fig9", "--out", str(tmp_path)]) == 0
        loaded = load_experiment_result(tmp_path / "fig9.json")
        assert loaded.experiment_id == "fig9"
        assert loaded.tables

    def test_run_bad_fault_spec_exits_2(self, capsys):
        assert main(["run", "fig9", "--inject-fault", "warp_core:0.5"]) == 2
        assert "warp_core" in capsys.readouterr().err
        assert main(["run", "fig9", "--inject-fault", "sat:0.1,seed:-1"]) == 2
        assert "seed" in capsys.readouterr().err


class TestFaultTolerantRun:
    @pytest.fixture()
    def registry_with_bomb(self, monkeypatch):
        from repro.experiments.base import ExperimentResult, _REGISTRY

        def bomb(scale=None):
            raise RuntimeError("synthetic experiment failure")

        monkeypatch.setitem(_REGISTRY, "zz_bomb", bomb)
        return _REGISTRY

    def test_keep_going_runs_remaining_and_exits_nonzero(
        self, capsys, registry_with_bomb
    ):
        # The failing experiment comes first; fig9 must still run.
        assert main(["run", "zz_bomb", "fig9"]) == 1
        output = capsys.readouterr().out
        assert "GSO" in output  # fig9 ran despite the earlier failure
        assert "Run summary" in output
        assert "zz_bomb" in output and "FAILED" in output
        assert "synthetic experiment failure" in output

    def test_fail_fast_stops_the_batch(self, capsys, registry_with_bomb):
        assert main(["run", "zz_bomb", "fig9", "--fail-fast"]) == 1
        output = capsys.readouterr().out
        assert "GSO" not in output  # fig9 never ran
        assert "FAILED" in output


class TestReportCommand:
    def test_report_writes_markdown(self, capsys, tmp_path):
        out = tmp_path / "report.md"
        assert main(["report", "fig9", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("# Reproduction report")
        assert "## fig9" in text
        assert "GSO" in text

    def test_report_unknown_id(self, tmp_path):
        with pytest.raises(KeyError):
            main(["report", "fig99", "--out", str(tmp_path / "r.md")])
