"""Tests for the capacity-planning utilities."""

import pytest

from repro.analysis.capacity import (
    derating_curve,
    max_sustainable_utilization,
    sustained_dynamic_power_w,
    throttle_onset_zone,
)
from repro.config.parameters import SimulationParameters
from repro.errors import ReproError
from repro.server.topology import moonshot_sut, two_socket_system
from repro.workloads.benchmark import BenchmarkSet

PARAMS = SimulationParameters()


class TestSustainedPower:
    def test_ordering_across_sets(self):
        comp = sustained_dynamic_power_w(BenchmarkSet.COMPUTATION)
        gp = sustained_dynamic_power_w(BenchmarkSet.GENERAL_PURPOSE)
        stor = sustained_dynamic_power_w(BenchmarkSet.STORAGE)
        assert comp > gp > stor > 0


class TestMaxSustainableUtilization:
    def test_within_unit_interval(self, small_sut):
        util = max_sustainable_utilization(small_sut, PARAMS)
        assert 0.0 <= util <= 1.0

    def test_sut_throttles_below_full_load(self, small_sut):
        """The calibrated SUT cannot sustain 100% Computation load
        without some chip reaching the 95 C limit."""
        util = max_sustainable_utilization(
            small_sut, PARAMS, BenchmarkSet.COMPUTATION
        )
        assert util < 1.0
        assert util > 0.3

    def test_storage_sustains_more_than_computation(self, small_sut):
        comp = max_sustainable_utilization(
            small_sut, PARAMS, BenchmarkSet.COMPUTATION
        )
        stor = max_sustainable_utilization(
            small_sut, PARAMS, BenchmarkSet.STORAGE
        )
        assert stor >= comp

    def test_uncoupled_system_never_throttles(self):
        """A 2-socket uncoupled server at 18 C inlet has full headroom."""
        topology = two_socket_system(coupled=False)
        util = max_sustainable_utilization(topology, PARAMS)
        assert util == 1.0

    def test_tighter_limit_less_capacity(self, small_sut):
        loose = max_sustainable_utilization(
            small_sut, PARAMS.with_overrides(temperature_limit_c=95.0)
        )
        tight = max_sustainable_utilization(
            small_sut, PARAMS.with_overrides(temperature_limit_c=85.0)
        )
        assert tight <= loose

    def test_impossible_limit_gives_zero(self, small_sut):
        util = max_sustainable_utilization(
            small_sut, PARAMS.with_overrides(temperature_limit_c=19.0)
        )
        assert util == 0.0

    @pytest.mark.parametrize(
        "limit", [float("nan"), float("inf"), float("-inf")]
    )
    def test_non_finite_limit_rejected(self, small_sut, limit):
        """Every ``<=`` against a NaN limit is false, so it would read
        as "nothing is sustainable" (0.0); the parameter set rejects
        a non-finite limit before any bisection sees it."""
        with pytest.raises(ReproError, match="temperature_limit_c"):
            max_sustainable_utilization(
                small_sut, PARAMS.with_overrides(temperature_limit_c=limit)
            )


class TestDeratingCurve:
    def test_monotone_in_inlet(self, small_sut):
        points = derating_curve(
            small_sut, PARAMS, inlets_c=(18.0, 30.0, 45.0)
        )
        utils = [p.max_utilization for p in points]
        assert utils == sorted(utils, reverse=True)

    def test_point_fields(self, small_sut):
        points = derating_curve(small_sut, PARAMS, inlets_c=(25.0,))
        assert points[0].inlet_c == 25.0
        assert 0.0 <= points[0].max_utilization <= 1.0

    def test_empty_inlets_rejected(self, small_sut):
        with pytest.raises(ReproError):
            derating_curve(small_sut, PARAMS, inlets_c=())


class TestThrottleOnsetZone:
    def test_most_downstream_region_throttles_first(self, small_sut):
        zone, util = throttle_onset_zone(small_sut, PARAMS)
        assert zone >= 4  # back half of the 6-zone chain
        assert 0.0 < util < 1.0

    def test_never_throttling_system(self):
        topology = two_socket_system(coupled=False)
        zone, util = throttle_onset_zone(topology, PARAMS)
        assert (zone, util) == (0, 1.0)
