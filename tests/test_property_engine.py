"""Property-based tests (hypothesis) for engine-level invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.parameters import SimulationParameters
from repro.config.presets import smoke
from repro.core import get_scheduler
from repro.server.processors import X2150_LADDER
from repro.server.topology import moonshot_sut
from repro.sim.power_manager import select_frequencies
from repro.sim.runner import run_once
from repro.workloads.benchmark import BenchmarkSet

PARAMS = SimulationParameters()


class TestFrequencySelectionProperties:
    @settings(max_examples=60)
    @given(
        sink=st.floats(10.0, 120.0),
        chip=st.floats(10.0, 120.0),
        dyn_max=st.floats(1.0, 16.0),
        exp=st.floats(1.0, 2.5),
    )
    def test_selected_frequency_is_a_ladder_state(
        self, sink, chip, dyn_max, exp
    ):
        freq = select_frequencies(
            ambient_c=np.array([sink]),
            r_ext=0.0,
            chip_c=np.array([chip]),
            dyn_max_w=np.array([dyn_max]),
            dyn_exp=np.array([exp]),
            tdp_w=np.array([22.0]),
            theta_offset=np.array([4.41]),
            theta_slope=np.array([-0.0896]),
            ladder=X2150_LADDER,
            params=PARAMS,
        )
        assert freq[0] in X2150_LADDER.states_mhz

    @settings(max_examples=40)
    @given(
        sink=st.floats(10.0, 120.0),
        dyn_max=st.floats(1.0, 16.0),
    )
    def test_hotter_sink_never_faster(self, sink, dyn_max):
        def pick(s):
            return select_frequencies(
                ambient_c=np.array([s]),
                r_ext=0.0,
                chip_c=np.array([s + 3.0]),
                dyn_max_w=np.array([dyn_max]),
                dyn_exp=np.array([1.7]),
                tdp_w=np.array([22.0]),
                theta_offset=np.array([4.41]),
                theta_slope=np.array([-0.0896]),
                ladder=X2150_LADDER,
                params=PARAMS,
            )[0]

        assert pick(sink + 10.0) <= pick(sink)


class TestEngineInvariantsOverSeeds:
    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 50),
        load=st.sampled_from([0.2, 0.5, 0.8]),
        scheme=st.sampled_from(["CF", "HF", "CP", "Random"]),
    )
    def test_invariants_hold(self, seed, load, scheme):
        topology = moonshot_sut(n_rows=2)
        params = smoke(seed=seed)
        result = run_once(
            topology,
            params,
            get_scheduler(scheme),
            BenchmarkSet.GENERAL_PURPOSE,
            load,
        )
        # Every completed job expanded by at least 1 and at most the
        # worst-case ladder expansion.
        worst = 1.0 / 0.75  # GP at 1100 MHz
        for job in result.completed_jobs:
            assert 1.0 - 1e-9 <= job.runtime_expansion <= worst + 0.02
        # Busy time per socket bounded by the window.
        assert (
            result.busy_time_s <= result.measured_span_s + 1e-9
        ).all()
        # Energy consistent with power bounds.
        n = topology.n_sockets
        min_power = (0.1 * 22.0) * n * 0.9
        max_power = 22.0 * n
        assert (
            min_power
            <= result.average_power_w
            <= max_power
        )
        # Utilisation in [0, 1].
        assert 0.0 <= result.utilization <= 1.0
