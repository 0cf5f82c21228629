"""Regression pins for the model calibration.

These tests freeze the calibrated operating points that the headline
reproduction depends on (docs/architecture.md §2-3).  If a future
change moves one of these numbers, the scheduler comparisons will
silently drift — better to fail here with context.
"""

import numpy as np
import pytest

from repro.config.parameters import SimulationParameters
from repro.server.processors import X2150_LADDER
from repro.server.topology import moonshot_sut
from repro.sim.power_manager import dynamic_power, select_frequencies
from repro.sim.steady_state import uniform_load_field
from repro.thermal.coupling import (
    CARTRIDGE_MIXING_FACTOR,
    DEFAULT_MIXING_FACTOR,
)
from repro.units import AIR_HEATING_CONSTANT
from repro.workloads.power_model import (
    LEAKAGE_TDP_FRACTION,
    leakage_power,
)

PARAMS = SimulationParameters()


def pick_frequency(sink_c, chip_c, dyn_max=11.4, exp=1.7,
                   theta_off=4.41, theta_slope=-0.0896):
    return float(
        select_frequencies(
            ambient_c=np.array([sink_c]),
            r_ext=0.0,
            chip_c=np.array([chip_c]),
            dyn_max_w=np.array([dyn_max]),
            dyn_exp=np.array([exp]),
            tdp_w=np.array([22.0]),
            theta_offset=np.array([theta_off]),
            theta_slope=np.array([theta_slope]),
            ladder=X2150_LADDER,
            params=PARAMS,
        )[0]
    )


class TestCalibrationConstants:
    def test_mixing_factors(self):
        assert CARTRIDGE_MIXING_FACTOR == pytest.approx(1.92)
        assert DEFAULT_MIXING_FACTOR == pytest.approx(3.6)

    def test_boost_governor_threshold(self):
        assert PARAMS.boost_chip_temp_limit_c == pytest.approx(45.0)

    def test_leakage_anchors(self):
        assert LEAKAGE_TDP_FRACTION == pytest.approx(0.30)
        assert leakage_power(90.0, 22.0) == pytest.approx(6.6)

    def test_air_heating_constant(self):
        assert AIR_HEATING_CONSTANT == pytest.approx(1.76)


class TestBoostGovernorOperatingPoints:
    """The BKDG behaviour the governor was calibrated to."""

    def test_fresh_front_socket_boosts(self):
        # Idle-cooled socket at the 18 C inlet.
        assert pick_frequency(sink_c=20.0, chip_c=22.0) == 1900.0

    def test_saturated_front_socket_holds_sustained(self):
        """A socket whose sink reached the boost-power steady state at
        the inlet can no longer boost but holds 1500 MHz — i.e. a fully
        loaded socket 'sustains the highest non-boost state'."""
        leak = float(leakage_power(50.0, 22.0))
        boost_power = 11.4 + leak
        sink_ss = 18.0 + boost_power * 1.578
        freq = pick_frequency(sink_c=sink_ss, chip_c=sink_ss + 6.0)
        assert freq == 1500.0

    def test_hot_downstream_socket_deep_throttles(self):
        assert pick_frequency(sink_c=92.0, chip_c=93.0) < 1500.0


class TestSUTSteadyOperatingPoints:
    """Zone-level steady thermals at the calibrated coupling."""

    def test_full_load_back_half_near_throttle(self):
        topology = moonshot_sut(n_rows=1)
        dyn_sustained = float(
            dynamic_power(1500.0, 11.4, 1.7, 1900.0)
        )
        field = uniform_load_field(
            topology, PARAMS, utilization=1.0,
            dynamic_power_w=dyn_sustained,
        )
        back = ~topology.front_half_mask()
        # The calibrated regime: full sustained load pushes the back
        # half to the edge of (or past) the 95 C limit.
        assert field.chip_c[back].max() > 90.0
        # ...while the front half keeps plenty of headroom.
        front = topology.front_half_mask()
        assert field.chip_c[front].min() < 60.0

    def test_thirty_percent_load_back_loses_boost_headroom(self):
        topology = moonshot_sut(n_rows=1)
        dyn = float(dynamic_power(1900.0, 11.4, 1.7, 1900.0))
        field = uniform_load_field(
            topology, PARAMS, utilization=0.3, dynamic_power_w=dyn
        )
        # Downstream ambients exceed what the boost governor tolerates
        # for a busy socket even at 30% uniform load.
        last_zone = topology.sockets_in_zone(topology.n_zones)
        assert field.ambient_c[last_zone].mean() > 30.0

    def test_idle_chain_gated_heating_small(self):
        topology = moonshot_sut(n_rows=1)
        field = uniform_load_field(
            topology, PARAMS, utilization=0.0, dynamic_power_w=0.0
        )
        # Gated sockets (10% TDP = 2.2 W each) warm the most
        # downstream entry by ~2.2 degC per upwind position at the
        # calibrated coupling: +11 degC at the end of the chain.
        assert field.ambient_c.max() == pytest.approx(29.0, abs=1.0)
