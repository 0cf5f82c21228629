"""Tests for repro.thermal.dynamics (two-node transient model)."""

import numpy as np
import pytest

from repro.errors import ThermalModelError
from repro.thermal.dynamics import TwoNodeThermalState


def step(state, dt_s, *inputs):
    """Advance ``state`` by ``dt_s`` the way the engine does: one
    ``step_decayed`` with the decays ``exp(-dt/tau)`` of its taus."""
    state.step_decayed(
        np.exp(-dt_s / state.socket_tau_s),
        np.exp(-dt_s / state.chip_tau_s),
        *inputs,
    )


def relax(current, target, dt_s, tau_s):
    """One exponential step of a sink node toward ``target``.

    With no power the sink's target is its entry air, so the step moves
    each ``current`` temperature to
    ``target + (current - target) * exp(-dt/tau)``.
    """
    current = np.asarray(current, dtype=float)
    state = TwoNodeThermalState(
        sink_c=current.copy(), chip_c=current.copy(), socket_tau_s=tau_s
    )
    zeros = np.zeros(current.shape)
    step(state, dt_s, target, zeros, zeros, np.ones(current.shape), zeros)
    return state.sink_c


class TestExponentialStep:
    def test_zero_dt_is_identity(self):
        current = np.array([10.0, 50.0])
        target = np.array([90.0, 90.0])
        out = relax(current, target, 0.0, 30.0)
        np.testing.assert_allclose(out, current)

    def test_converges_to_target(self):
        current = np.array([10.0])
        target = np.array([90.0])
        out = relax(current, target, 600.0, 30.0)
        assert out[0] == pytest.approx(90.0, abs=1e-3)

    def test_one_tau_covers_63_percent(self):
        out = relax(np.array([0.0]), np.array([100.0]), 30.0, 30.0)
        assert out[0] == pytest.approx(63.21, abs=0.01)

    def test_never_overshoots(self):
        out = relax(np.array([0.0]), np.array([100.0]), 1e6, 1.0)
        assert out[0] <= 100.0

    def test_step_size_invariance(self):
        """Two half steps equal one full step (exact integrator)."""
        current = np.array([20.0])
        target = np.array([80.0])
        one = relax(current, target, 10.0, 30.0)
        half = relax(current, target, 5.0, 30.0)
        two = relax(half, target, 5.0, 30.0)
        np.testing.assert_allclose(one, two, rtol=1e-12)


class TestTwoNodeThermalState:
    def _constants(self, n):
        return dict(
            r_int=np.full(n, 0.205),
            r_ext=np.full(n, 1.578),
            theta=np.full(n, 3.0),
        )

    def test_at_ambient_equilibrium(self):
        state = TwoNodeThermalState.at_ambient(4, 18.0)
        np.testing.assert_allclose(state.sink_c, 18.0)
        np.testing.assert_allclose(state.chip_c, 18.0)

    def test_zero_power_stays_at_ambient_except_theta(self):
        state = TwoNodeThermalState.at_ambient(2, 18.0)
        consts = self._constants(2)
        for _ in range(100):
            step(
                state,
                1.0,
                np.full(2, 18.0),
                np.zeros(2),
                consts["r_int"],
                consts["r_ext"],
                consts["theta"],
            )
        np.testing.assert_allclose(state.sink_c, 18.0, atol=1e-6)
        # Chip settles theta above the sink even at zero power.
        np.testing.assert_allclose(state.chip_c, 21.0, atol=1e-3)

    def test_steady_state_matches_equation_1(self):
        state = TwoNodeThermalState.at_ambient(
            1, 18.0, socket_tau_s=1.0, chip_tau_s=0.005
        )
        power = np.array([15.0])
        ambient = np.array([25.0])
        consts = self._constants(1)
        for _ in range(20000):
            step(
                state,
                0.01,
                ambient,
                power,
                consts["r_int"],
                consts["r_ext"],
                consts["theta"],
            )
        expected = 25.0 + 15.0 * (0.205 + 1.578) + 3.0
        assert state.chip_c[0] == pytest.approx(expected, abs=0.01)

    def test_chip_faster_than_sink(self):
        state = TwoNodeThermalState.at_ambient(1, 18.0)
        consts = self._constants(1)
        step(
            state,
            0.05,  # 10 chip taus, tiny fraction of the sink tau
            np.array([18.0]),
            np.array([15.0]),
            consts["r_int"],
            consts["r_ext"],
            consts["theta"],
        )
        chip_rise = state.chip_c[0] - 18.0
        sink_rise = state.sink_c[0] - 18.0
        assert chip_rise > 10 * sink_rise

    def test_sink_heat_output_in_steady_state_equals_power(self):
        state = TwoNodeThermalState.at_ambient(1, 18.0, socket_tau_s=0.5)
        power = np.array([12.0])
        ambient = np.array([20.0])
        consts = self._constants(1)
        for _ in range(10000):
            step(
                state,
                0.01,
                ambient,
                power,
                consts["r_int"],
                consts["r_ext"],
                consts["theta"],
            )
        heat = state.sink_heat_output_w(ambient, consts["r_ext"])
        assert heat[0] == pytest.approx(12.0, abs=0.01)

    def test_sink_heat_output_never_negative(self):
        state = TwoNodeThermalState.at_ambient(1, 18.0)
        heat = state.sink_heat_output_w(
            np.array([50.0]), np.array([1.578])
        )
        assert heat[0] == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ThermalModelError):
            TwoNodeThermalState(
                sink_c=np.zeros(3), chip_c=np.zeros(2)
            )

    def test_bad_tau_rejected(self):
        with pytest.raises(ThermalModelError):
            TwoNodeThermalState.at_ambient(1, 18.0, chip_tau_s=0.0)

    def test_zero_sockets_rejected(self):
        with pytest.raises(ThermalModelError):
            TwoNodeThermalState.at_ambient(0, 18.0)
