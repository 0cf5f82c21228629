"""Tests for the experiment registry and the CLI."""

import pytest

from repro.__main__ import build_parser, main
from repro._version import __version__
from repro.errors import ConfigurationError
from repro.experiments.registry import (
    EXPERIMENTS,
    all_experiments,
    get_experiment,
)


class TestRegistry:
    def test_seventeen_artifacts(self):
        assert len(EXPERIMENTS) == 17
        assert "room" in EXPERIMENTS

    def test_every_experiment_has_run_and_main(self):
        for experiment in all_experiments():
            assert callable(experiment.run)
            assert callable(experiment.main)

    def test_light_filter(self):
        light = all_experiments(include_heavy=False)
        assert all(not e.heavy for e in light)
        assert {"table1", "table2", "table3", "fig01"} <= {
            e.name for e in light
        }

    def test_heavy_experiments_are_the_simulations(self):
        heavy = {e.name for e in all_experiments() if e.heavy}
        assert heavy == {
            "fig03",
            "fig11",
            "fig13",
            "fig14",
            "fig15",
            "faults",
        }

    def test_get_experiment(self):
        assert get_experiment("fig14").heavy

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            get_experiment("fig99")


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig14" in out
        assert "table2" in out

    def test_schedulers(self, capsys):
        assert main(["schedulers"]) == 0
        out = capsys.readouterr().out
        assert "CP" in out.splitlines()

    def test_run_single_artifact(self, capsys):
        assert main(["run", "table2"]) == 0
        out = capsys.readouterr().out
        assert "51.74" in out

    def test_run_light(self, capsys):
        assert main(["run", "--light"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Figure 10" in out

    def test_run_without_names_errors(self, capsys):
        assert main(["run"]) == 2

    def test_run_unknown_artifact_raises(self):
        with pytest.raises(ConfigurationError):
            main(["run", "fig99"])

    @pytest.mark.parametrize(
        "flags,unknown,known",
        [
            (["--schemes", "CF", "NOPE"], "NOPE", "CN"),
            (["--sets", "Nope"], "Nope", "Storage"),
        ],
    )
    def test_sweep_rejects_unknown_names_before_running(
        self, capsys, monkeypatch, flags, unknown, known
    ):
        import repro.sim.runner

        def _run_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before its names were checked")

        monkeypatch.setattr(repro.sim.runner, "run_sweep", _run_sweep)
        assert main(["sweep", "--rows", "1", "--sim-time", "1"] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ")
        assert unknown in line and known in line

    @pytest.mark.parametrize(
        "argv,field",
        [
            (
                ["chaos", "--seed", "0", "--heartbeat-interval", "-1"],
                "heartbeat_interval_s",
            ),
            (
                ["chaos", "--seed", "0", "--heartbeat-interval", "nan"],
                "heartbeat_interval_s",
            ),
            (["chaos", "--seed", "0", "--horizon", "nan"], "horizon_s"),
            (
                ["chaos", "--seed", "0", "--batch-window", "-1"],
                "batch_window_s",
            ),
            (["chaos", "--seed", "0", "--max-batch", "0"], "max_batch"),
            (
                ["serve", "--heartbeat-interval", "-1"],
                "heartbeat_interval_s",
            ),
            (["serve", "--batch-window", "-1"], "batch_window_s"),
            (["serve", "--batch-window", "nan"], "batch_window_s"),
        ],
    )
    def test_fleet_rejects_bad_knobs_before_running(
        self, capsys, monkeypatch, argv, field
    ):
        import repro.fleet

        def _reached(*args, **kwargs):
            raise AssertionError("the fleet ran with an invalid knob")

        monkeypatch.setattr(repro.fleet, "run_chaos", _reached)
        monkeypatch.setattr(repro.fleet, "FleetService", _reached)
        assert main(["fleet"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ")
        assert field in line

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out.strip()
        assert out == f"repro {__version__}"

    def test_version_matches_package(self):
        import repro

        assert repro.__version__ == __version__
