"""Unit tests for every scheduling policy."""

import numpy as np
import pytest

from repro.config.presets import smoke
from repro.core import (
    AdaptiveRandom,
    Balanced,
    BalancedLocations,
    CoolestFirst,
    CoolestNeighbors,
    CouplingPredictor,
    HottestFirst,
    MinHR,
    Predictive,
    RandomPolicy,
    Scheduler,
    all_scheduler_names,
    get_scheduler,
    register_scheduler,
)
from repro.core.neighbors import _build_neighbor_lists
from repro.errors import SchedulingError
from repro.sim.state import SimulationState
from repro.workloads.job import Job
from repro.workloads.pcmark import PCMARK_APPS


@pytest.fixture
def state(small_sut, smoke_params):
    return SimulationState(small_sut, smoke_params)


def make_job():
    return Job(job_id=0, app=PCMARK_APPS[0], arrival_s=0.0, work_ms=5.0)


def reset(policy, state, seed=0):
    policy.reset(state, np.random.default_rng(seed))
    return policy


class TestRegistry:
    def test_paper_policies_registered(self):
        paper_policies = {
            "A-Random",
            "Balanced",
            "Balanced-L",
            "CF",
            "CN",
            "CP",
            "HF",
            "MinHR",
            "Predictive",
            "Random",
        }
        assert paper_policies <= set(all_scheduler_names())

    def test_classical_baselines_registered(self):
        assert {"FirstFit", "RoundRobin", "LRU"} <= set(
            all_scheduler_names()
        )

    def test_get_scheduler_returns_fresh_instances(self):
        a = get_scheduler("CF")
        b = get_scheduler("CF")
        assert a is not b

    def test_unknown_name_rejected(self):
        with pytest.raises(SchedulingError):
            get_scheduler("LIFO")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(SchedulingError):

            @register_scheduler
            class Clone(CoolestFirst):
                name = "CF"

    def test_non_scheduler_registration_rejected(self):
        with pytest.raises(SchedulingError):
            register_scheduler(int)


class TestCoolestHottestFirst:
    def test_cf_picks_coolest(self, state):
        state.thermal.chip_c[:] = 50.0
        state.thermal.chip_c[7] = 20.0
        policy = reset(CoolestFirst(), state)
        idle = state.idle_socket_ids()
        assert policy.select_socket(make_job(), idle, state) == 7

    def test_hf_picks_hottest(self, state):
        state.thermal.chip_c[:] = 50.0
        state.thermal.chip_c[3] = 80.0
        policy = reset(HottestFirst(), state)
        idle = state.idle_socket_ids()
        assert policy.select_socket(make_job(), idle, state) == 3

    def test_cf_respects_idle_set(self, state):
        state.thermal.chip_c[:] = 50.0
        state.thermal.chip_c[7] = 20.0
        policy = reset(CoolestFirst(), state)
        idle = np.array([1, 2, 3])  # 7 not offered
        assert policy.select_socket(make_job(), idle, state) in idle

    def test_empty_idle_rejected(self, state):
        policy = reset(CoolestFirst(), state)
        with pytest.raises(SchedulingError):
            policy.select_socket(make_job(), np.array([], dtype=int), state)


class TestRandomPolicies:
    def test_random_uniform_coverage(self, state):
        policy = reset(RandomPolicy(), state)
        idle = state.idle_socket_ids()
        picks = {
            policy.select_socket(make_job(), idle, state)
            for _ in range(300)
        }
        assert len(picks) > state.n_sockets // 2

    def test_random_deterministic_given_rng(self, state):
        picks_a = [
            reset(RandomPolicy(), state, seed=5).select_socket(
                make_job(), state.idle_socket_ids(), state
            )
            for _ in range(3)
        ]
        picks_b = [
            reset(RandomPolicy(), state, seed=5).select_socket(
                make_job(), state.idle_socket_ids(), state
            )
            for _ in range(3)
        ]
        assert picks_a == picks_b

    def test_arandom_prefers_cool_history(self, state):
        state.thermal.chip_c[:] = 30.0
        state.history_c[:] = 60.0
        state.history_c[4] = 20.0  # only socket with cool history
        policy = reset(AdaptiveRandom(), state)
        idle = state.idle_socket_ids()
        assert policy.select_socket(make_job(), idle, state) == 4

    def test_arandom_filters_by_current_first(self, state):
        state.thermal.chip_c[:] = 60.0
        state.thermal.chip_c[2] = 20.0
        state.history_c[:] = 20.0  # history ties everywhere
        policy = reset(AdaptiveRandom(), state)
        idle = state.idle_socket_ids()
        assert policy.select_socket(make_job(), idle, state) == 2


class TestMinHR:
    def test_prefers_least_recirculation(self, state):
        policy = reset(MinHR(), state)
        idle = state.idle_socket_ids()
        pick = policy.select_socket(make_job(), idle, state)
        # Most downstream chain position has zero downwind influence.
        assert state.topology.chain_pos_array[pick] == (
            state.topology.chain_length - 1
        )

    def test_random_among_zero_influence(self, state):
        policy = reset(MinHR(), state)
        idle = state.idle_socket_ids()
        picks = {
            policy.select_socket(make_job(), idle, state)
            for _ in range(100)
        }
        assert len(picks) > 1  # ties broken randomly across rows/lanes

    def test_takes_next_best_when_back_busy(self, state):
        policy = reset(MinHR(), state)
        back = np.nonzero(
            state.topology.chain_pos_array
            == state.topology.chain_length - 1
        )[0]
        idle = np.setdiff1d(state.idle_socket_ids(), back)
        pick = policy.select_socket(make_job(), idle, state)
        assert state.topology.chain_pos_array[pick] == (
            state.topology.chain_length - 2
        )


class TestCoolestNeighbors:
    def test_prefers_cool_neighborhood(self, state):
        policy = reset(CoolestNeighbors(), state)
        chip = state.thermal.chip_c
        chip[:] = 50.0
        # Socket 0's whole neighbourhood cool...
        chip[0] = 30.0
        chip[_build_neighbor_lists(state.topology)[0]] = 25.0
        # ...while socket 1, one of those neighbours, is cooler itself
        # but its other neighbours stay at 50.
        chip[1] = 20.0
        idle = np.array([0, 1])
        pick = policy.select_socket(make_job(), idle, state)
        assert pick == 0

    def test_neighbor_lists_symmetric(self, state):
        neighbor_lists = _build_neighbor_lists(state.topology)
        for socket_id, neighbors in enumerate(neighbor_lists):
            for n in neighbors:
                assert socket_id in neighbor_lists[n]

    def test_neighbor_counts_reasonable(self, state):
        for neighbors in _build_neighbor_lists(state.topology):
            assert 1 <= neighbors.size <= 4


class TestBalanced:
    def test_schedules_away_from_hotspot(self, state):
        policy = reset(Balanced(), state)
        state.thermal.chip_c[:] = 40.0
        state.thermal.chip_c[0] = 90.0  # hot spot at front row 0
        idle = state.idle_socket_ids()
        pick = policy.select_socket(make_job(), idle, state)
        site = state.topology.sites[pick]
        hot = state.topology.sites[0]
        assert site.distance_to(hot) > 3.0

    def test_balanced_l_prefers_inlet(self, state):
        policy = reset(BalancedLocations(), state)
        idle = state.idle_socket_ids()
        pick = policy.select_socket(make_job(), idle, state)
        assert state.topology.chain_pos_array[pick] == 0

    def test_balanced_l_tie_break_coolest(self, state):
        policy = reset(BalancedLocations(), state)
        front = np.nonzero(state.topology.chain_pos_array == 0)[0]
        state.thermal.chip_c[:] = 50.0
        state.thermal.chip_c[front[2]] = 20.0
        pick = policy.select_socket(
            make_job(), state.idle_socket_ids(), state
        )
        assert pick == front[2]


class TestPredictive:
    def test_prefers_cold_socket_over_hot(self, state):
        policy = reset(Predictive(), state)
        state.thermal.sink_c[:] = 85.0
        state.thermal.chip_c[:] = 88.0
        cold = 5
        state.thermal.sink_c[cold] = 20.0
        state.thermal.chip_c[cold] = 22.0
        pick = policy.select_socket(
            make_job(), state.idle_socket_ids(), state
        )
        assert pick == cold

    def test_tie_break_prefers_better_sink(self, state):
        """Among equally cold sockets, prefer 30-fin (even zones)."""
        policy = reset(Predictive(), state)
        # Uniform cold state: every socket predicts the top state.
        pick = policy.select_socket(
            make_job(), state.idle_socket_ids(), state
        )
        assert state.topology.zone_array[pick] % 2 == 0


class TestCouplingPredictor:
    def test_row_restriction(self, state):
        policy = reset(CouplingPredictor(), state)
        idle = state.idle_socket_ids()
        pool = policy._candidate_pool(idle, state)
        rows = set(state.topology.row_array[pool])
        assert len(rows) == 1

    def test_global_mode_uses_all(self, state):
        policy = reset(CouplingPredictor(row_restricted=False), state)
        idle = state.idle_socket_ids()
        pool = policy._candidate_pool(idle, state)
        assert pool.size == idle.size

    def test_avoids_upwind_placement_when_downwind_busy(self, state):
        """With hot busy downwind sockets, CP avoids the inlet socket."""
        topo = state.topology
        lane0 = [
            s.socket_id
            for s in topo.sites
            if s.row == 0 and s.lane == 0
        ]
        # Make downwind sockets busy and near their throttle point.
        for socket_id in lane0[1:]:
            state.assign(
                Job(
                    job_id=socket_id,
                    app=PCMARK_APPS[0],
                    arrival_s=0.0,
                    work_ms=1000.0,
                ),
                socket_id,
            )
        state.busy_ema[:] = 1.0
        state.ambient_c[lane0[1:]] = 60.0
        state.thermal.sink_c[lane0[1:]] = 80.0
        state.thermal.chip_c[lane0[1:]] = 85.0
        policy = reset(CouplingPredictor(row_restricted=False), state)
        # Offer the upwind socket of the loaded lane vs an empty lane's
        # upwind socket.
        other_lane_head = [
            s.socket_id
            for s in topo.sites
            if s.row == 1 and s.lane == 0 and s.chain_pos == 0
        ][0]
        idle = np.array([lane0[0], other_lane_head])
        pick = policy.select_socket(make_job(), idle, state)
        assert pick == other_lane_head

    def test_coupling_unaware_ignores_downwind(self, state):
        policy = reset(
            CouplingPredictor(row_restricted=False, coupling_aware=False),
            state,
        )
        idle = state.idle_socket_ids()
        pick = policy.select_socket(make_job(), idle, state)
        assert pick in idle


class TestSchedulerABC:
    def test_cannot_instantiate_abstract(self):
        with pytest.raises(TypeError):
            Scheduler()
