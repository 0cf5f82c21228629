"""Tests for repro.sim.power_manager."""

import numpy as np
import pytest

from repro.config.parameters import SimulationParameters
from repro.server.processors import X2150_LADDER
from repro.sim.power_manager import dynamic_power, select_frequencies

PARAMS = SimulationParameters()


def _socket_arrays(
    n=1, sink=25.0, chip=30.0, dyn_max=11.4, exp=1.7,
    theta_off=4.41, theta_slope=-0.0896,
):
    return dict(
        ambient_c=np.full(n, sink),
        r_ext=0.0,
        chip_c=np.full(n, chip),
        dyn_max_w=np.full(n, dyn_max),
        dyn_exp=np.full(n, exp),
        tdp_w=np.full(n, 22.0),
        theta_offset=np.full(n, theta_off),
        theta_slope=np.full(n, theta_slope),
    )


class TestDynamicPower:
    def test_max_frequency_full_power(self):
        assert dynamic_power(1900.0, 11.4, 1.7, 1900.0) == pytest.approx(
            11.4
        )

    def test_power_law(self):
        p = dynamic_power(1500.0, 11.4, 1.7, 1900.0)
        assert p == pytest.approx(11.4 * (1500 / 1900) ** 1.7)

    def test_vectorised(self):
        p = dynamic_power(
            np.array([1100.0, 1900.0]), np.array([10.0, 10.0]),
            np.array([1.5, 1.5]), 1900.0,
        )
        assert p.shape == (2,)
        assert p[0] < p[1]


class TestSelectFrequencies:
    def test_cold_socket_gets_top_boost(self):
        arrays = _socket_arrays(sink=20.0, chip=22.0)
        freq = select_frequencies(
            ladder=X2150_LADDER, params=PARAMS, **arrays
        )
        assert freq[0] == 1900.0

    def test_warm_sink_loses_boost_keeps_sustained(self):
        """Above the boost governor threshold: sustained 1500 MHz."""
        arrays = _socket_arrays(sink=50.0, chip=55.0)
        freq = select_frequencies(
            ladder=X2150_LADDER, params=PARAMS, **arrays
        )
        assert freq[0] == 1500.0

    def test_very_hot_sink_deep_throttle(self):
        arrays = _socket_arrays(sink=93.0, chip=94.0)
        freq = select_frequencies(
            ladder=X2150_LADDER, params=PARAMS, **arrays
        )
        assert freq[0] < 1500.0

    def test_minimum_state_always_available(self):
        arrays = _socket_arrays(sink=200.0, chip=200.0)
        freq = select_frequencies(
            ladder=X2150_LADDER, params=PARAMS, **arrays
        )
        assert freq[0] == 1100.0

    def test_monotone_in_sink_temperature(self):
        freqs = []
        for sink in (20.0, 45.0, 70.0, 90.0, 95.0):
            arrays = _socket_arrays(sink=sink, chip=sink + 3)
            freqs.append(
                select_frequencies(
                    ladder=X2150_LADDER, params=PARAMS, **arrays
                )[0]
            )
        assert freqs == sorted(freqs, reverse=True)

    def test_vectorised_mixed_sockets(self):
        arrays = _socket_arrays(n=3)
        arrays["ambient_c"] = np.array([20.0, 50.0, 94.0])
        arrays["chip_c"] = np.array([22.0, 52.0, 95.0])
        freq = select_frequencies(
            ladder=X2150_LADDER, params=PARAMS, **arrays
        )
        assert freq[0] == 1900.0
        assert freq[1] == 1500.0
        assert freq[2] <= 1300.0

    def test_boost_governor_calibration(self):
        """A busy Computation socket at inlet air settles around the
        sustained frequency: boosting pushes its quasi-equilibrium chip
        temperature past the governor threshold, running sustained pulls
        it back under."""
        # Sink at its steady state under sustained operation.
        sustained_power = dynamic_power(1500.0, 11.4, 1.7, 1900.0) + 5.0
        sink_ss = 18.0 + sustained_power * 1.578
        arrays = _socket_arrays(sink=sink_ss, chip=sink_ss + 5)
        freq = select_frequencies(
            ladder=X2150_LADDER, params=PARAMS, **arrays
        )
        assert freq[0] >= 1500.0  # boost or sustained, never throttled

        boost_power = 11.4 + 5.0
        sink_boost_ss = 18.0 + boost_power * 1.578
        arrays = _socket_arrays(sink=sink_boost_ss, chip=sink_boost_ss + 6)
        freq = select_frequencies(
            ladder=X2150_LADDER, params=PARAMS, **arrays
        )
        assert freq[0] == 1500.0  # boost no longer grantable


class TestSelectFrequenciesSteady:
    def test_cool_ambient_allows_boost(self):
        arrays = _socket_arrays(sink=20.0, chip=22.0)
        del arrays["ambient_c"], arrays["r_ext"]
        freq = select_frequencies(
            ambient_c=np.array([18.0]),
            r_ext=np.array([1.578]),
            ladder=X2150_LADDER,
            params=PARAMS,
            **arrays,
        )
        assert freq[0] >= 1500.0

    def test_hot_ambient_throttles(self):
        arrays = _socket_arrays(sink=20.0, chip=60.0)
        del arrays["ambient_c"], arrays["r_ext"]
        freq = select_frequencies(
            ambient_c=np.array([75.0]),
            r_ext=np.array([1.578]),
            ladder=X2150_LADDER,
            params=PARAMS,
            **arrays,
        )
        assert freq[0] < 1500.0

    def test_graded_response_to_ambient(self):
        """Steady prediction steps down gradually with ambient."""
        arrays = _socket_arrays(sink=0.0, chip=60.0)
        del arrays["ambient_c"], arrays["r_ext"]
        freqs = [
            select_frequencies(
                ambient_c=np.array([amb]),
                r_ext=np.array([1.578]),
                ladder=X2150_LADDER,
                params=PARAMS,
                **arrays,
            )[0]
            for amb in np.linspace(18.0, 80.0, 30)
        ]
        assert freqs == sorted(freqs, reverse=True)
        assert len(set(freqs)) >= 3  # several distinct states appear
