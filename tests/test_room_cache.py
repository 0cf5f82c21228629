"""Room solves in the shared sweep cache: no aliasing, ever.

Room solves and chassis sweep points share the process-wide
``shared_cache``.  ``room_solve_key`` hashes exactly the inputs a room
solve depends on (the room fingerprint, which covers the chassis
recipes and the recirculation matrix, plus the CRAC setpoint, the seed
and the per-chassis utilisation and ``dyn_max_w``) under a ``room-``
prefix.  So two room solves differing only in recirculation matrix,
CRAC setpoint or placement never serve each other's results, and no
room solve can collide with a chassis-only ``config_key``, which is
bare hex.
"""

import numpy as np
import pytest

from repro.config.presets import scaled
from repro.errors import RoomError
from repro.fleet.registry import ChassisSpec
from repro.room import (
    ROOM_PLACEMENTS,
    Room,
    downwind_recirculation,
    optimize_crac_setpoint,
    room_derating_curve,
    room_solve_key,
    row_layout_recirculation,
    solve_room_cached,
    zero_recirculation,
)
from repro.room.model import _topology_for
from repro.sim.parallel import (
    SweepCache,
    clear_shared_cache,
    config_key,
    shared_cache,
)
from repro.workloads.benchmark import BenchmarkSet

UTIL = np.array([0.5, 0.5])
DYN = np.array([10.0, 10.0])


def small_room(recirculation) -> Room:
    return Room(
        chassis=(
            ChassisSpec(
                chassis_id="r0",
                n_rows=1,
                lanes_per_row=2,
                chain_length=6,
                sockets_per_cartridge_depth=2,
            ),
            ChassisSpec(
                chassis_id="r1",
                n_rows=1,
                lanes_per_row=4,
                chain_length=1,
                sockets_per_cartridge_depth=1,
            ),
        ),
        recirculation=recirculation,
    )


class TestConfigKeyRoomInputs:
    """The room inputs a chassis ``config_key`` cannot see each join
    the room key, and the two key spaces never meet."""

    def test_room_key_never_aliases_chassis_key(self):
        """The regression: a room solve and a chassis sweep point over
        the room's lead topology, parameters and mean load must produce
        different keys."""
        room = small_room(zero_recirculation(2))
        chassis = config_key(
            _topology_for(room.chassis[0]),
            scaled(seed=0),
            "room",
            BenchmarkSet.COMPUTATION,
            0.5,
        )
        roomed = room_solve_key(room, UTIL, DYN, 18.0)
        assert roomed != chassis
        assert roomed.startswith("room-")
        int(chassis, 16)  # chassis keys are bare hex

    def test_crac_setpoint_distinguishes_keys(self):
        room = small_room(zero_recirculation(2))
        assert room_solve_key(room, UTIL, DYN, 18.0) != room_solve_key(
            room, UTIL, DYN, 26.0
        )

    def test_recirculation_matrix_distinguishes_keys(self):
        """Two rooms over the same chassis, different coupling."""
        isolated = small_room(zero_recirculation(2))
        coupled = small_room(downwind_recirculation(2))
        assert isolated.fingerprint() != coupled.fingerprint()
        assert room_solve_key(isolated, UTIL, DYN, 18.0) != room_solve_key(
            coupled, UTIL, DYN, 18.0
        )


class TestRoomSolveKey:
    def test_equal_inputs_give_equal_keys(self):
        """Separately built but identical rooms and vectors share a
        key, so repeated probes hit."""
        a = room_solve_key(
            small_room(row_layout_recirculation(2)), UTIL, DYN, 18.0
        )
        b = room_solve_key(
            small_room(row_layout_recirculation(2)),
            UTIL.copy(),
            DYN.copy(),
            18.0,
        )
        assert a == b

    def test_placement_vector_joins_the_key(self):
        """Same mean load, different placement: distinct keys (a key
        over the mean utilisation alone would collide)."""
        room = small_room(row_layout_recirculation(2))
        skewed = room_solve_key(room, np.array([0.2, 0.8]), DYN, 18.0)
        assert room_solve_key(room, UTIL, DYN, 18.0) != skewed

    def test_dyn_max_w_joins_the_key(self):
        room = small_room(row_layout_recirculation(2))
        hotter = room_solve_key(room, UTIL, np.array([10.0, 12.0]), 18.0)
        assert room_solve_key(room, UTIL, DYN, 18.0) != hotter

    def test_seed_joins_the_key(self):
        room = small_room(row_layout_recirculation(2))
        base = room_solve_key(room, UTIL, DYN, 18.0, seed=0)
        assert base != room_solve_key(room, UTIL, DYN, 18.0, seed=1)


class TestSharedCacheRoundTrip:
    def test_cache_hit_returns_the_exact_solution(self, monkeypatch):
        """Second identical solve comes from the cache, bit-identical,
        and a different CRAC setpoint misses."""
        cache = SweepCache()
        monkeypatch.setattr(
            "repro.room.capacity.shared_cache", cache
        )
        room = small_room(row_layout_recirculation(2))
        first = solve_room_cached(room, 0.6, 12.0, 18.0)
        assert len(cache) == 1
        again = solve_room_cached(room, 0.6, 12.0, 18.0)
        assert again is first  # served from cache, not re-solved
        warmer = solve_room_cached(room, 0.6, 12.0, 22.0)
        assert warmer is not first
        assert len(cache) == 2
        assert warmer.fingerprint() != first.fingerprint()

    def test_rooms_with_different_recirculation_never_alias(
        self, monkeypatch
    ):
        """The collision scenario end to end: identical chassis and
        load, different recirculation matrices."""
        cache = SweepCache()
        monkeypatch.setattr(
            "repro.room.capacity.shared_cache", cache
        )
        isolated = solve_room_cached(
            small_room(zero_recirculation(2)), 0.6, 12.0, 18.0
        )
        coupled = solve_room_cached(
            small_room(downwind_recirculation(2)), 0.6, 12.0, 18.0
        )
        assert len(cache) == 2
        # The isolated room's inlets sit exactly at the CRAC supply;
        # the coupled room's downwind chassis runs warmer — the cache
        # kept them apart.
        np.testing.assert_array_equal(
            isolated.inlet_c, np.full(2, 18.0)
        )
        assert coupled.inlet_c[1] > 18.0

    def test_malformed_vector_is_rejected_before_the_lookup(
        self, monkeypatch
    ):
        cache = SweepCache()
        monkeypatch.setattr(
            "repro.room.capacity.shared_cache", cache
        )
        room = small_room(row_layout_recirculation(2))
        with pytest.raises(RoomError, match="utilization"):
            solve_room_cached(room, np.full(3, 0.5), 12.0, 18.0)
        assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)


def test_cold_planning_pass_cache_traffic_is_pinned():
    """The reuse inside one room solve or one load search never touches
    the shared cache: a cold planning pass (every placement's curve,
    then the setpoint search) makes the same lookups as a pass that
    re-solves every chassis and re-bisects every cap."""
    room = small_room(downwind_recirculation(2))
    clear_shared_cache()
    try:
        for policy in ROOM_PLACEMENTS:
            room_derating_curve(room, (18.0, 26.0, 34.0), placement=policy)
        optimize_crac_setpoint(room, (18.0, 22.0, 26.0, 30.0, 34.0), 0.5)
        assert (shared_cache.hits, shared_cache.misses) == (64, 104)
    finally:
        clear_shared_cache()
