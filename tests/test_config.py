"""Tests for repro.config (parameters and presets)."""

import dataclasses

import pytest

from repro.config.parameters import (
    SimulationParameters,
    TABLE_III_ROWS,
    table_iii_rows,
)
from repro.config.presets import paper_faithful, scaled, smoke
from repro.errors import ConfigurationError


class TestSimulationParameters:
    def test_table_iii_defaults(self):
        params = SimulationParameters()
        assert params.temperature_limit_c == 95.0
        assert params.power_manager_interval_s == 0.001
        assert params.chip_tau_s == 0.005
        assert params.socket_tau_s == 30.0
        assert params.inlet_c == 18.0
        assert params.socket_airflow_cfm == 6.35
        assert params.r_int == 0.205
        assert params.sim_time_s == 1800.0

    def test_measured_span(self):
        params = SimulationParameters(sim_time_s=100.0, warmup_s=20.0)
        assert params.measured_span_s == pytest.approx(80.0)

    def test_with_overrides(self):
        params = SimulationParameters().with_overrides(seed=42)
        assert params.seed == 42
        assert params.temperature_limit_c == 95.0

    def test_limit_below_inlet_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationParameters(temperature_limit_c=10.0, inlet_c=18.0)

    def test_boost_threshold_below_inlet_allowed(self):
        """Threshold at/below inlet = boost never grantable (legal)."""
        params = SimulationParameters(boost_chip_temp_limit_c=10.0)
        assert params.boost_chip_temp_limit_c == 10.0

    def test_non_positive_boost_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationParameters(boost_chip_temp_limit_c=0.0)

    def test_warmup_beyond_horizon_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationParameters(sim_time_s=10.0, warmup_s=10.0)

    def test_non_positive_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationParameters(power_manager_interval_s=0.0)

    def test_non_positive_duration_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationParameters(duration_scale=0.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="seed"):
            SimulationParameters(seed=-1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "name",
        [
            spec.name
            for spec in dataclasses.fields(SimulationParameters)
            if spec.type == "float"
        ],
    )
    def test_non_finite_float_field_rejected(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            SimulationParameters(**{name: value})

    def test_frozen(self):
        params = SimulationParameters()
        with pytest.raises(Exception):
            params.seed = 5


class TestTableIIIRendering:
    def test_contains_key_rows(self):
        names = {row[0] for row in TABLE_III_ROWS}
        assert "Temperature limit" in names
        assert "R_Ext 18-fin" in names
        assert "Socket thermal time constant" in names

    def test_values_reflect_parameters(self):
        rows = dict(table_iii_rows(SimulationParameters()))
        assert rows["Temperature limit"] == "95 C"
        assert rows["Server inlet temperature"] == "18 C"
        assert rows["Airflow at sockets"] == "6.35 CFM"
        assert rows["R_Int"] == "0.205 Celsius/Watt"


class TestPresets:
    def test_paper_faithful_is_table_iii(self):
        assert paper_faithful() == SimulationParameters()

    def test_scaled_preserves_regime(self):
        """Job duration << socket tau << horizon must hold."""
        params = scaled()
        mean_job_s = 0.006 * params.duration_scale
        assert mean_job_s * 10 < params.socket_tau_s
        assert params.socket_tau_s * 3 < params.sim_time_s

    def test_scaled_keeps_steady_state_physics(self):
        """Scaling only touches time scales, never temperatures."""
        faithful = paper_faithful()
        fast = scaled()
        assert fast.temperature_limit_c == faithful.temperature_limit_c
        assert fast.inlet_c == faithful.inlet_c
        assert fast.r_int == faithful.r_int
        assert (
            fast.boost_chip_temp_limit_c
            == faithful.boost_chip_temp_limit_c
        )

    def test_smoke_is_fast(self):
        params = smoke()
        assert params.sim_time_s <= 5.0

    def test_seed_passthrough(self):
        assert scaled(seed=9).seed == 9
        assert smoke(seed=9).seed == 9
