"""Tests for repro.core.prediction."""

import numpy as np
import pytest

from repro.core.prediction import (
    predict_downwind_slowdown,
    predict_job_frequency,
    predicted_job_power,
)
from repro.sim.state import SimulationState
from repro.workloads.job import Job
from repro.workloads.pcmark import PCMARK_APPS, app_by_name


@pytest.fixture
def state(small_sut, smoke_params):
    return SimulationState(small_sut, smoke_params)


def make_job(app_name="video-transcode"):
    return Job(
        job_id=0, app=app_by_name(app_name), arrival_s=0.0, work_ms=5.0
    )


class TestPredictJobFrequency:
    def test_cold_sockets_predict_boost(self, state):
        freq = predict_job_frequency(
            state, np.array([0, 1, 2]), make_job()
        )
        assert (freq == 1900.0).all()

    def test_warm_sink_predicts_sustained(self, state):
        state.thermal.sink_c[4] = 60.0
        state.thermal.chip_c[4] = 62.0
        freq = predict_job_frequency(state, np.array([4]), make_job())
        assert freq[0] == 1500.0

    def test_hot_sink_predicts_throttle(self, state):
        state.thermal.sink_c[4] = 93.0
        state.thermal.chip_c[4] = 94.0
        freq = predict_job_frequency(state, np.array([4]), make_job())
        assert freq[0] < 1500.0

    def test_hotter_sink_predicts_lower_frequency(self, state):
        state.thermal.sink_c[0] = 20.0
        freq_cold = predict_job_frequency(state, np.array([0]), make_job())
        state.thermal.sink_c[0] = 90.0
        freq_hot = predict_job_frequency(state, np.array([0]), make_job())
        assert freq_cold[0] > freq_hot[0]

    def test_storage_job_predicts_higher_than_computation(self, state):
        """Lower power jobs fit under the limit at hotter sockets."""
        state.thermal.sink_c[0] = 91.0
        state.thermal.chip_c[0] = 92.0
        comp = predict_job_frequency(
            state, np.array([0]), make_job("video-transcode")
        )
        stor = predict_job_frequency(
            state, np.array([0]), make_job("file-copy")
        )
        assert stor[0] >= comp[0]


class TestPredictedJobPower:
    def test_power_grows_with_frequency(self, state):
        job = make_job()
        low = predicted_job_power(state, 0, job, 1100.0)
        high = predicted_job_power(state, 0, job, 1900.0)
        assert high > low

    def test_includes_leakage(self, state):
        job = make_job()
        state.thermal.chip_c[0] = 90.0
        hot = predicted_job_power(state, 0, job, 1500.0)
        state.thermal.chip_c[0] = 30.0
        cold = predicted_job_power(state, 0, job, 1500.0)
        assert hot > cold


class TestPredictDownwindSlowdown:
    def test_no_downwind_no_slowdown(self, state):
        last = int(
            np.nonzero(
                state.topology.chain_pos_array
                == state.topology.chain_length - 1
            )[0][0]
        )
        assert predict_downwind_slowdown(state, last, 18.0) == 0.0

    def test_idle_downwind_no_slowdown(self, state):
        assert predict_downwind_slowdown(state, 0, 18.0) == 0.0

    def test_busy_marginal_downwind_slows(self, state):
        topo = state.topology
        lane0 = [
            s.socket_id
            for s in topo.sites
            if s.row == 0 and s.lane == 0
        ]
        victim = lane0[1]
        state.assign(
            Job(
                job_id=1,
                app=PCMARK_APPS[0],
                arrival_s=0.0,
                work_ms=100.0,
            ),
            victim,
        )
        state.busy_ema[victim] = 1.0
        state.ambient_c[victim] = 66.0  # near a steady-state threshold
        slow = predict_downwind_slowdown(state, lane0[0], 18.0)
        assert slow > 0.0

    def test_slowdown_scaled_by_utilisation(self, state):
        topo = state.topology
        lane0 = [
            s.socket_id
            for s in topo.sites
            if s.row == 0 and s.lane == 0
        ]
        victim = lane0[1]
        state.assign(
            Job(
                job_id=1,
                app=PCMARK_APPS[0],
                arrival_s=0.0,
                work_ms=100.0,
            ),
            victim,
        )
        state.ambient_c[victim] = 66.0
        state.busy_ema[victim] = 1.0
        full = predict_downwind_slowdown(state, lane0[0], 18.0)
        state.busy_ema[victim] = 0.25
        quarter = predict_downwind_slowdown(state, lane0[0], 18.0)
        assert quarter == pytest.approx(0.25 * full)

    def test_more_power_more_slowdown(self, state):
        topo = state.topology
        lane0 = [
            s.socket_id
            for s in topo.sites
            if s.row == 0 and s.lane == 0
        ]
        for victim in lane0[1:]:
            state.assign(
                Job(
                    job_id=victim,
                    app=PCMARK_APPS[0],
                    arrival_s=0.0,
                    work_ms=100.0,
                ),
                victim,
            )
            state.busy_ema[victim] = 1.0
            state.ambient_c[victim] = 55.0 + 3 * victim % 10
        small = predict_downwind_slowdown(state, lane0[0], 8.0)
        large = predict_downwind_slowdown(state, lane0[0], 22.0)
        assert large >= small
