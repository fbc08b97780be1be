"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.protocol == "rica"
        assert args.mean_speed == 36.0

    def test_run_flags(self):
        args = build_parser().parse_args(
            ["run", "--protocol", "aodv", "--mean-speed", "72", "--rate", "20"]
        )
        assert args.protocol == "aodv"
        assert args.mean_speed == 72.0
        assert args.rate == 20.0

    def test_run_rreq_aggregation_flag(self):
        args = build_parser().parse_args(["run", "--rreq-aggregation", "0.04"])
        assert args.rreq_aggregation == 0.04
        assert build_parser().parse_args(["run"]).rreq_aggregation == 0.0

    @pytest.mark.parametrize(
        "flag", [["--mobility-backend", "batched"], ["--channel-backend", "scalar"]]
    )
    def test_run_has_no_trajectory_or_fading_store_selector(self, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", *flag])

    def test_figure_requires_valid_id(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_campaign_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.jobs == 1
        assert args.protocols is None
        assert args.speeds == [0.0, 36.0, 72.0]

    def test_campaign_jobs_flag(self):
        args = build_parser().parse_args(
            ["campaign", "--jobs", "4", "--protocols", "rica", "aodv"]
        )
        assert args.jobs == 4
        assert args.protocols == ["rica", "aodv"]

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "rica" in out and "link_state" in out
        assert "fig2a" in out and "fig6b" in out

    def test_run_tiny(self, capsys):
        rc = main(
            [
                "run",
                "--protocol",
                "aodv",
                "--nodes",
                "12",
                "--flows",
                "3",
                "--duration",
                "4",
                "--seed",
                "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "delivery (%)" in out
        assert "aodv" in out

    def test_figure_tiny(self, capsys):
        rc = main(
            [
                "figure",
                "fig5a",
                "--duration",
                "4",
                "--trials",
                "1",
                "--protocols",
                "aodv",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "fig5a" in out
        assert "paper expectation" in out

    def test_campaign_tiny_parallel(self, capsys, tmp_path):
        out_path = tmp_path / "campaign.json"
        rc = main(
            [
                "campaign",
                "--protocols", "aodv",
                "--speeds", "0",
                "--rates", "10",
                "--duration", "2",
                "--nodes", "8",
                "--flows", "2",
                "--jobs", "2",
                "--out", str(out_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "aodv/0/10" in out
        assert out_path.exists()
