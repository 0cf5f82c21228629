"""Property-based tests (hypothesis) for the thermal substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.thermal.analytical import (
    entry_temperature_profile,
    entry_temperature_statistics,
)
from repro.thermal.chip_model import SimplifiedChipModel, peak_temperature
from repro.thermal.coupling import CouplingChain, CouplingMatrix
from repro.thermal.dynamics import TwoNodeThermalState
from repro.thermal.heatsink import FIN_18, FIN_30
from repro.units import air_temperature_rise, airflow_for_power

powers = st.floats(min_value=0.0, max_value=200.0)
positive_powers = st.floats(min_value=0.1, max_value=200.0)
ambients = st.floats(min_value=-20.0, max_value=80.0)
airflows = st.floats(min_value=0.5, max_value=100.0)
degrees = st.integers(min_value=0, max_value=15)


class TestFirstLawProperties:
    @given(power=positive_powers, delta=st.floats(1.0, 40.0))
    def test_airflow_rise_roundtrip(self, power, delta):
        cfm = airflow_for_power(power, delta)
        assert air_temperature_rise(power, cfm) == pytest.approx(delta)

    @given(power=powers, cfm=airflows)
    def test_rise_non_negative(self, power, cfm):
        assert air_temperature_rise(power, cfm) >= 0.0

    @given(p1=powers, p2=powers, cfm=airflows)
    def test_rise_additive_in_power(self, p1, p2, cfm):
        combined = air_temperature_rise(p1 + p2, cfm)
        separate = air_temperature_rise(p1, cfm) + air_temperature_rise(
            p2, cfm
        )
        assert combined == pytest.approx(separate, rel=1e-9)


class TestEquationOneProperties:
    @given(ambient=ambients, power=powers)
    def test_peak_above_ambient(self, ambient, power):
        assert peak_temperature(ambient, power, FIN_18) >= ambient

    @given(ambient=ambients, power=powers, extra=st.floats(0.1, 50.0))
    def test_monotone_in_power(self, ambient, power, extra):
        assert peak_temperature(
            ambient, power + extra, FIN_18
        ) > peak_temperature(ambient, power, FIN_18)

    @given(ambient=ambients, power=powers, shift=st.floats(0.1, 50.0))
    def test_ambient_shift_is_additive(self, ambient, power, shift):
        base = peak_temperature(ambient, power, FIN_30)
        shifted = peak_temperature(ambient + shift, power, FIN_30)
        assert shifted - base == pytest.approx(shift)

    @given(ambient=ambients, power=positive_powers)
    def test_30_fin_never_hotter(self, ambient, power):
        assert peak_temperature(ambient, power, FIN_30) < peak_temperature(
            ambient, power, FIN_18
        )

    @given(ambient=ambients, limit=st.floats(60.0, 120.0))
    def test_max_power_inversion(self, ambient, limit):
        model = SimplifiedChipModel(FIN_18)
        power = model.max_power_for_limit(ambient, limit)
        if power > 0:
            assert model.peak_temperature(ambient, power) == pytest.approx(
                limit, abs=1e-6
            )


def relax(start, target, dt, tau):
    """One engine step of an unpowered sink node from ``start`` toward
    its entry air ``target``: ``target + (start - target) * exp(-dt/tau)``."""
    state = TwoNodeThermalState(sink_c=[start], chip_c=[start])
    zero = np.zeros(1)
    state.step_decayed(
        np.exp(-dt / tau), 1.0, np.array([target]), zero, zero, np.ones(1), zero
    )
    return float(state.sink_c[0])


class TestExponentialStepProperties:
    @given(
        start=st.floats(-50.0, 150.0),
        target=st.floats(-50.0, 150.0),
        dt=st.floats(0.0, 100.0),
        tau=st.floats(0.001, 100.0),
    )
    def test_stays_between_start_and_target(self, start, target, dt, tau):
        out = relax(start, target, dt, tau)
        low, high = min(start, target), max(start, target)
        assert low - 1e-9 <= out <= high + 1e-9

    @given(
        start=st.floats(-50.0, 150.0),
        target=st.floats(-50.0, 150.0),
        dt1=st.floats(0.001, 10.0),
        dt2=st.floats(0.001, 10.0),
        tau=st.floats(0.01, 100.0),
    )
    def test_semigroup_property(self, start, target, dt1, dt2, tau):
        """step(dt1) then step(dt2) equals step(dt1 + dt2)."""
        a = relax(start, target, dt1 + dt2, tau)
        b = relax(relax(start, target, dt1, tau), target, dt2, tau)
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-10)


class TestCouplingProperties:
    @settings(max_examples=50)
    @given(
        n=st.integers(2, 8),
        heat=st.lists(
            st.floats(0.0, 50.0), min_size=8, max_size=8
        ),
        inlet=st.floats(0.0, 40.0),
    )
    def test_entry_temps_never_below_inlet(self, n, heat, inlet):
        chain = CouplingChain(
            socket_ids=list(range(n)), airflow_cfm=6.35
        )
        matrix = CouplingMatrix(n, [chain])
        temps = matrix.entry_temperatures(
            inlet, np.asarray(heat[:n])
        )
        assert (temps >= inlet - 1e-9).all()

    @settings(max_examples=50)
    @given(
        n=st.integers(2, 8),
        heat=st.lists(st.floats(0.0, 50.0), min_size=8, max_size=8),
    )
    def test_monotone_along_chain_under_uniform_heat(self, n, heat):
        chain = CouplingChain(
            socket_ids=list(range(n)), airflow_cfm=6.35
        )
        matrix = CouplingMatrix(n, [chain])
        uniform = np.full(n, 10.0)
        temps = matrix.entry_temperatures(18.0, uniform)
        assert (np.diff(temps) >= -1e-9).all()

    @settings(max_examples=50)
    @given(
        n=st.integers(2, 6),
        scale=st.floats(0.1, 5.0),
    )
    def test_linearity_in_heat(self, n, scale):
        chain = CouplingChain(
            socket_ids=list(range(n)), airflow_cfm=6.35
        )
        matrix = CouplingMatrix(n, [chain])
        heat = np.linspace(1.0, 10.0, n)
        base = matrix.entry_temperatures(0.0, heat)
        scaled = matrix.entry_temperatures(0.0, heat * scale)
        np.testing.assert_allclose(scaled, base * scale, rtol=1e-9)


class TestAnalyticalModelProperties:
    @given(degree=degrees, power=powers, cfm=airflows)
    def test_profile_monotone(self, degree, power, cfm):
        profile = entry_temperature_profile(degree, power, cfm)
        assert (np.diff(profile) >= -1e-12).all()

    @given(degree=degrees, power=positive_powers, cfm=airflows)
    def test_mean_between_first_and_last(self, degree, power, cfm):
        stats = entry_temperature_statistics(degree, power, cfm)
        profile = entry_temperature_profile(degree, power, cfm)
        assert profile[0] - 1e-9 <= stats.mean_c <= profile[-1] + 1e-9

    @given(
        degree=st.integers(1, 15), power=positive_powers, cfm=airflows
    )
    def test_degree_increase_never_cools(self, degree, power, cfm):
        lower = entry_temperature_statistics(degree, power, cfm)
        higher = entry_temperature_statistics(degree + 1, power, cfm)
        assert higher.mean_c >= lower.mean_c
