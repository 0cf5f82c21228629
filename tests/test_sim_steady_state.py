"""Tests for the closed-form steady-state solver."""

import numpy as np
import pytest

from repro.config.parameters import SimulationParameters
from repro.errors import SimulationError
from repro.sim.steady_state import (
    SteadyStateField,
    solve_steady_state,
    uniform_load_field,
)
from repro.thermal.dynamics import TwoNodeThermalState
from repro.workloads.power_model import leakage_power


PARAMS = SimulationParameters()


class TestUniformLoadField:
    def test_idle_server_near_inlet(self, small_sut):
        field = uniform_load_field(small_sut, PARAMS, 0.0, 0.0)
        # Gated power still warms the air slightly downstream.
        assert field.ambient_c.min() == pytest.approx(18.0)
        assert field.ambient_c.max() < 35.0

    def test_monotone_in_utilization(self, small_sut):
        low = uniform_load_field(small_sut, PARAMS, 0.2, 8.0)
        high = uniform_load_field(small_sut, PARAMS, 0.9, 8.0)
        assert (high.chip_c >= low.chip_c - 1e-9).all()

    def test_downstream_hotter(self, small_sut):
        field = uniform_load_field(small_sut, PARAMS, 0.8, 8.0)
        front = small_sut.front_half_mask()
        assert (
            field.ambient_c[~front].mean()
            > field.ambient_c[front].mean()
        )

    def test_hottest_socket_is_downstream(self, small_sut):
        field = uniform_load_field(small_sut, PARAMS, 0.9, 10.0)
        hottest = field.hottest_socket
        assert small_sut.chain_pos_array[hottest] >= 3

    def test_invalid_inputs_rejected(self, small_sut):
        with pytest.raises(SimulationError):
            uniform_load_field(small_sut, PARAMS, 1.5, 5.0)
        with pytest.raises(SimulationError):
            uniform_load_field(small_sut, PARAMS, 0.5, -1.0)


class TestSolveSteadyState:
    def test_shape_validation(self, small_sut):
        with pytest.raises(SimulationError):
            solve_steady_state(small_sut, PARAMS, np.zeros(3))
        with pytest.raises(SimulationError):
            solve_steady_state(
                small_sut,
                PARAMS,
                np.zeros(small_sut.n_sockets),
                utilization=np.zeros(3),
            )
        with pytest.raises(SimulationError):
            solve_steady_state(
                small_sut,
                PARAMS,
                np.zeros(small_sut.n_sockets),
                utilization=np.full(small_sut.n_sockets, 2.0),
            )

    def test_power_includes_leakage_fixed_point(self, small_sut):
        field = uniform_load_field(small_sut, PARAMS, 1.0, 8.0)
        expected_leak = (
            leakage_power(field.chip_c, 1.0) * small_sut.tdp_array
        )
        np.testing.assert_allclose(
            field.power_w, 8.0 + expected_leak, rtol=0.02
        )

    def test_matches_transient_convergence(self, small_sut):
        """The closed form equals the transient model run to steady
        state with the same (frozen) powers."""
        field = uniform_load_field(small_sut, PARAMS, 1.0, 9.0)
        state = TwoNodeThermalState.at_ambient(
            small_sut.n_sockets, PARAMS.inlet_c, socket_tau_s=0.5
        )
        theta = (
            small_sut.theta_offset_array
            + small_sut.theta_slope_array * field.power_w
        )
        ambient = field.ambient_c
        for _ in range(4000):
            state.step(
                0.01,
                ambient,
                field.power_w,
                PARAMS.r_int,
                small_sut.r_ext_array,
                theta,
            )
        np.testing.assert_allclose(
            state.chip_c, field.chip_c, atol=0.1
        )

    def test_front_loading_heats_back_more_than_back_loading(
        self, small_sut
    ):
        """The asymmetry at the heart of the paper, in closed form."""
        n = small_sut.n_sockets
        front = small_sut.front_half_mask()
        dynamic = np.full(n, 10.0)
        front_only = solve_steady_state(
            small_sut, PARAMS, dynamic, front.astype(float)
        )
        back_only = solve_steady_state(
            small_sut, PARAMS, dynamic, (~front).astype(float)
        )
        # Front-loading raises the mean entry temperature of the OTHER
        # half far more than back-loading does.
        front_harm = front_only.ambient_c[~front].mean()
        back_harm = back_only.ambient_c[front].mean()
        assert front_harm > back_harm + 10.0

