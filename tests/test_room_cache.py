"""Room inputs in the sweep-cache key: no aliasing, ever.

The regression this suite pins: ``config_key`` historically hashed
only chassis-level inputs (topology, params, scheduler, workload,
load), so two room solves differing *only* in recirculation matrix or
CRAC setpoint — or a room solve and a chassis-only sweep point over
the same topology — would have collided in the process-wide
``shared_cache`` and served each other's results.  The ``room=``
parameter folds the room fingerprint, the CRAC setpoint and the exact
placement vector into the digest; chassis-only keys are unchanged.
"""

import numpy as np
import pytest

from repro.config.presets import scaled
from repro.fleet.registry import ChassisSpec
from repro.room import (
    ROOM_PLACEMENTS,
    Room,
    RoomKey,
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


def chassis_key(room: Room, load: float, room_key=None) -> str:
    """A key over the room's lead topology, with/without room inputs."""
    return config_key(
        _topology_for(room.chassis[0]),
        scaled(seed=0),
        "room",
        BenchmarkSet.COMPUTATION,
        load,
        room=room_key,
    )


class TestConfigKeyRoomInputs:
    def test_room_key_never_aliases_chassis_key(self):
        """The regression: same topology/params/load, with and without
        room inputs, must produce different keys."""
        room = small_room(zero_recirculation(2))
        bare = chassis_key(room, 0.5)
        roomed = chassis_key(
            room,
            0.5,
            RoomKey(fingerprint=room.fingerprint(), crac_supply_c=18.0),
        )
        assert bare != roomed

    def test_chassis_only_keys_are_unchanged_by_the_feature(self):
        """``room=None`` is the default: pre-existing cache and
        checkpoint keys survive the signature extension."""
        room = small_room(zero_recirculation(2))
        assert chassis_key(room, 0.5) == config_key(
            _topology_for(room.chassis[0]),
            scaled(seed=0),
            "room",
            BenchmarkSet.COMPUTATION,
            0.5,
        )

    def test_crac_setpoint_distinguishes_keys(self):
        room = small_room(zero_recirculation(2))
        cool = RoomKey(room.fingerprint(), crac_supply_c=18.0)
        warm = RoomKey(room.fingerprint(), crac_supply_c=26.0)
        assert chassis_key(room, 0.5, cool) != chassis_key(
            room, 0.5, warm
        )

    def test_recirculation_matrix_distinguishes_keys(self):
        """Two rooms over the same chassis, different coupling."""
        isolated = small_room(zero_recirculation(2))
        coupled = small_room(downwind_recirculation(2))
        assert isolated.fingerprint() != coupled.fingerprint()
        assert chassis_key(
            isolated, 0.5, RoomKey(isolated.fingerprint(), 18.0)
        ) != chassis_key(
            coupled, 0.5, RoomKey(coupled.fingerprint(), 18.0)
        )

    def test_detail_distinguishes_keys(self):
        room = small_room(zero_recirculation(2))
        a = RoomKey(room.fingerprint(), 18.0, detail="placement:a")
        b = RoomKey(room.fingerprint(), 18.0, detail="placement:b")
        assert chassis_key(room, 0.5, a) != chassis_key(room, 0.5, b)


class TestRoomSolveKey:
    def test_placement_vector_joins_the_key(self):
        """Same mean load, different placement: distinct keys (the
        mean-utilisation argument alone would collide)."""
        room = small_room(row_layout_recirculation(2))
        uniform = room_solve_key(
            room, np.array([0.5, 0.5]), np.array([10.0, 10.0]), 18.0
        )
        skewed = room_solve_key(
            room, np.array([0.2, 0.8]), np.array([10.0, 10.0]), 18.0
        )
        assert uniform != skewed

    def test_seed_joins_the_key(self):
        room = small_room(row_layout_recirculation(2))
        util = np.array([0.5, 0.5])
        dyn = np.array([10.0, 10.0])
        base = room_solve_key(room, util, dyn, 18.0, seed=0)
        assert base != room_solve_key(room, util, dyn, 18.0, seed=1)


class TestSharedCacheRoundTrip:
    def test_cache_hit_returns_the_exact_solution(self, monkeypatch):
        """Second identical solve comes from the cache, bit-identical,
        and a different CRAC setpoint misses."""
        cache = SweepCache(max_entries=8)
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
        cache = SweepCache(max_entries=8)
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

    def test_use_cache_false_bypasses_the_cache(self, monkeypatch):
        cache = SweepCache(max_entries=8)
        monkeypatch.setattr(
            "repro.room.capacity.shared_cache", cache
        )
        room = small_room(row_layout_recirculation(2))
        a = solve_room_cached(room, 0.6, 12.0, 18.0, use_cache=False)
        b = solve_room_cached(room, 0.6, 12.0, 18.0, use_cache=False)
        assert len(cache) == 0
        assert a is not b
        assert a.fingerprint() == b.fingerprint()


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
