"""Tests for the analytical (non-simulation) experiment modules."""

import pytest

from repro.experiments import (
    fig01_survey,
    fig05_entry_temperature,
    fig06_job_durations,
    fig07_power_performance,
    fig09_heatsinks,
    fig10_model_validation,
    table1_catalog,
    table2_airflow,
    table3_parameters,
)
from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentConfig, format_table
from repro.workloads.benchmark import BenchmarkSet


class TestFormatTable:
    def test_renders_all_rows(self):
        text = format_table(["a", "bb"], [[1, 2], [3, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "bb" in lines[0]

    def test_column_alignment(self):
        text = format_table(["x"], [["longvalue"], ["s"]])
        lines = text.splitlines()
        assert len(lines[2]) >= len("longvalue")


class TestExperimentConfig:
    def test_defaults(self):
        config = ExperimentConfig()
        assert config.n_rows >= 1
        assert config.topology().n_sockets == config.n_rows * 12

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_ROWS", "5")
        assert ExperimentConfig().n_rows == 5

    @pytest.mark.parametrize(
        "name,raw",
        [
            ("REPRO_ROWS", "abc"),
            ("REPRO_WORKERS", "two"),
            ("REPRO_SIM_TIME", "inf"),
            ("REPRO_SIM_TIME", "nan"),
            ("REPRO_SIM_TIME", "soon"),
        ],
    )
    def test_bad_env_knob_rejected(self, monkeypatch, name, raw):
        monkeypatch.setenv(name, raw)
        with pytest.raises(ConfigurationError, match=name):
            ExperimentConfig()

    def test_parameters_seeded(self):
        assert ExperimentConfig(seed=7).parameters().seed == 7


class TestFig01:
    def test_shape(self):
        result = fig01_survey.run()
        assert len(result.stats) == 5
        rows = result.rows()
        assert len(rows) == 5


class TestFig05:
    def test_paper_example(self):
        result = fig05_entry_temperature.run()
        delta = result.mean_entry_delta(15.0, 6.0, 1, 5)
        assert delta == pytest.approx(8.8, abs=1.5)

    def test_cov_monotone_in_degree(self):
        result = fig05_entry_temperature.run()
        series = result.series(15.0, 6.0)
        covs = [cov for _, _, cov in series]
        assert covs == sorted(covs)


class TestFig06:
    def test_cov_in_band(self):
        result = fig06_job_durations.run(samples_per_app=2000)
        for stats in result.stats.values():
            assert 0.24 <= stats.cov <= 0.34

    def test_two_orders_of_magnitude_tails(self):
        result = fig06_job_durations.run(samples_per_app=20000)
        for stats in result.stats.values():
            assert stats.max_over_mean > 20


class TestFig07:
    def test_figure7_anchors(self):
        result = fig07_power_performance.run()
        comp = result.power_w[BenchmarkSet.COMPUTATION]
        assert comp[1900] == pytest.approx(18.0)
        stor = result.power_w[BenchmarkSet.STORAGE]
        assert stor[1900] == pytest.approx(10.5)
        perf = result.performance[BenchmarkSet.COMPUTATION]
        assert perf[1100] == pytest.approx(0.65)

    def test_row_count(self):
        result = fig07_power_performance.run()
        assert len(result.rows()) == 3 * 5


class TestFig09:
    def test_spread_in_paper_band(self):
        result = fig09_heatsinks.run()
        low, high = result.spread_range()
        assert low >= 3.5
        assert high <= 7.5

    def test_sink_advantage_bands(self):
        result = fig09_heatsinks.run()
        advantage = result.sink_advantage()
        assert 2.5 <= advantage["low_power"] <= 5.0
        assert 5.5 <= advantage["high_power"] <= 8.5

    def test_peak_correlated_with_power(self):
        result = fig09_heatsinks.run()
        points = result.for_sink("18-fin")
        temps = [p.max_temperature_c for p in points]
        assert temps == sorted(temps)


class TestFig10:
    def test_within_two_degrees(self):
        result = fig10_model_validation.run()
        assert result.max_abs_error_c <= 2.0

    def test_holds_for_both_sinks(self):
        result = fig10_model_validation.run()
        for sink_name in ("18-fin", "30-fin"):
            errors = [
                abs(p.error_c)
                for p in result.points
                if p.sink_name == sink_name
            ]
            assert max(errors) <= 2.0

    def test_covers_all_apps_both_sinks(self):
        result = fig10_model_validation.run()
        assert len(result.points) == 38


class TestTables:
    def test_table1(self):
        result = table1_catalog.run()
        assert len(result.rows()) == 11
        assert result.max_density == pytest.approx(72.0)
        assert result.max_degree == 11

    def test_table2(self):
        result = table2_airflow.run()
        values = {name: cfm for name, _, cfm in result.rows_data}
        assert values["1U"] == pytest.approx(18.30, abs=0.01)
        assert values["DensityOpt"] == pytest.approx(51.74, abs=0.01)

    def test_table3(self):
        result = table3_parameters.run()
        rendered = dict(result.rows_data)
        assert rendered["Temperature limit"] == "95 C"


class TestMains:
    @pytest.mark.parametrize(
        "module",
        [
            fig01_survey,
            fig05_entry_temperature,
            fig07_power_performance,
            table1_catalog,
            table2_airflow,
            table3_parameters,
        ],
    )
    def test_main_prints(self, module, capsys):
        module.main()
        out = capsys.readouterr().out
        assert len(out) > 50
