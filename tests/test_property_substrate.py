"""Property-based tests for the thermal substrate under the auditor's
invariants: relaxation steps, the two-node model and the coupling chain.

These pin the properties the runtime :class:`repro.sim.invariants.
InvariantAuditor` relies on — no overshoot, monotonicity in the step
size, large-step stability, chip >= sink at steady power, and entry
temperatures non-decreasing along the airflow direction.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.thermal.coupling import CouplingChain, CouplingMatrix
from repro.thermal.dynamics import TwoNodeThermalState

temps = st.floats(-40.0, 150.0)
taus = st.floats(0.001, 100.0)
heats = st.floats(0.0, 60.0)


def decays(state, dt):
    """The engine's per-run decays ``exp(-dt/tau)`` for ``state``."""
    return np.exp(-dt / state.socket_tau_s), np.exp(-dt / state.chip_tau_s)


def relax(start, target, dt, tau):
    """One engine step of an unpowered sink node from ``start`` toward
    its entry air ``target``: ``target + (start - target) * exp(-dt/tau)``."""
    state = TwoNodeThermalState(
        sink_c=[start], chip_c=[start], socket_tau_s=tau
    )
    zero = np.zeros(1)
    state.step_decayed(
        *decays(state, dt), np.array([target]), zero, zero, np.ones(1), zero
    )
    return float(state.sink_c[0])


class TestExponentialStepProperties:
    @given(start=temps, target=temps, dt=st.floats(0.0, 1e6), tau=taus)
    def test_never_overshoots_target(self, start, target, dt, tau):
        out = relax(start, target, dt, tau)
        if start <= target:
            assert start - 1e-9 <= out <= target + 1e-9
        else:
            assert target - 1e-9 <= out <= start + 1e-9

    @given(
        start=temps,
        target=temps,
        dt1=st.floats(0.0, 50.0),
        extra=st.floats(0.0, 50.0),
        tau=taus,
    )
    def test_monotone_in_dt(self, start, target, dt1, extra, tau):
        """A longer step lands at least as close to the target."""
        near = relax(start, target, dt1, tau)
        nearer = relax(start, target, dt1 + extra, tau)
        assert abs(nearer - target) <= abs(near - target) + 1e-9

    @given(start=temps, target=temps, tau=taus)
    def test_stable_for_huge_steps(self, start, target, tau):
        """Steps of thousands of time constants converge, never blow up."""
        out = relax(start, target, 1e9 * tau, tau)
        assert np.isfinite(out)
        assert out == pytest.approx(target, abs=1e-6)


class TestTwoNodeProperties:
    @settings(max_examples=50)
    @given(
        ambient=st.floats(10.0, 45.0),
        power=st.floats(0.5, 30.0),
        n_steps=st.integers(1, 60),
        dt=st.floats(0.001, 2.0),
    )
    def test_chip_at_least_sink_at_steady_power(
        self, ambient, power, n_steps, dt
    ):
        """Under constant non-negative power the chip node never falls
        below the sink node: the internal resistance and the (positive,
        realistic-power) Equation 1 correction only add heat on top."""
        n = 4
        state = TwoNodeThermalState.at_ambient(
            n, ambient, chip_tau_s=0.005, socket_tau_s=1.0
        )
        ambient_arr = np.full(n, ambient)
        power_arr = np.full(n, power)
        r_int = np.full(n, 0.205)
        r_ext = np.full(n, 0.7)
        theta = np.maximum(4.41 - 0.0896 * power_arr, 0.0)
        sink_decay, chip_decay = decays(state, dt)
        for _ in range(n_steps):
            state.step_decayed(
                sink_decay,
                chip_decay,
                ambient_arr,
                power_arr,
                r_int,
                r_ext,
                theta,
            )
            assert (state.chip_c >= state.sink_c - 1e-9).all()

    @settings(max_examples=50)
    @given(
        ambient=st.floats(10.0, 45.0),
        power=st.floats(0.0, 30.0),
        dt=st.floats(0.001, 5.0),
    )
    def test_sink_never_overshoots_steady_target(
        self, ambient, power, dt
    ):
        n = 3
        state = TwoNodeThermalState.at_ambient(n, ambient)
        target = ambient + power * 0.7
        sink_decay, chip_decay = decays(state, dt)
        for _ in range(20):
            state.step_decayed(
                sink_decay,
                chip_decay,
                np.full(n, ambient),
                np.full(n, power),
                np.full(n, 0.205),
                np.full(n, 0.7),
                np.zeros(n),
            )
            assert (state.sink_c <= target + 1e-9).all()
            assert (state.sink_c >= ambient - 1e-9).all()


class TestCouplingMonotonicity:
    @settings(max_examples=100)
    @given(
        n=st.integers(2, 10),
        heat=st.lists(heats, min_size=10, max_size=10),
        inlet=st.floats(0.0, 45.0),
        cfm=st.floats(1.0, 50.0),
        kappa=st.floats(0.5, 6.0),
    )
    def test_entry_temps_monotone_along_airflow(
        self, n, heat, inlet, cfm, kappa
    ):
        """With full excess retention (the calibrated default), entry
        temperatures never decrease downstream for non-negative sink
        heat — even when the heat profile itself is arbitrary."""
        chain = CouplingChain(
            socket_ids=list(range(n)),
            airflow_cfm=cfm,
            mixing_factor=kappa,
        )
        matrix = CouplingMatrix(n, [chain])
        entry = matrix.entry_temperatures(
            inlet, np.asarray(heat[:n])
        )
        assert (np.diff(entry) >= -1e-9).all()
        assert (entry >= inlet - 1e-9).all()

    @settings(max_examples=50)
    @given(
        n=st.integers(2, 8),
        heat=st.lists(heats, min_size=8, max_size=8),
        extra=st.floats(0.1, 40.0),
        position=st.integers(0, 6),
    )
    def test_more_heat_never_cools_downstream(
        self, n, heat, extra, position
    ):
        """Entry temperatures are monotone in every heat input."""
        position = position % n
        chain = CouplingChain(
            socket_ids=list(range(n)), airflow_cfm=6.35
        )
        matrix = CouplingMatrix(n, [chain])
        base_heat = np.asarray(heat[:n])
        bumped = base_heat.copy()
        bumped[position] += extra
        base = matrix.entry_temperatures(18.0, base_heat)
        hotter = matrix.entry_temperatures(18.0, bumped)
        assert (hotter >= base - 1e-12).all()
