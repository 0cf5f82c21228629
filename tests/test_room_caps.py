"""Lockstep standalone caps vs a scalar per-chassis bisection.

:func:`repro.room.placement._standalone_caps` bisects every chassis of
the room at once, whatever its topology recipe, one stacked steady
solve per halving.  The reference here is the plain per-chassis loop
over :func:`~repro.sim.steady_state.uniform_load_field`: full load
under the limit caps at 1.0, idle over it caps at 0.0, anything else
bisects [0, 1] to ``CAP_TOLERANCE``.  The two must agree bit for bit
on every branch, with recipes repeated at non-adjacent positions and
with scalar and per-chassis inlets.
"""

import numpy as np
import pytest

from repro.config.presets import scaled
from repro.errors import ConfigurationError, RoomError
from repro.fleet.registry import ChassisSpec
from repro.room import (
    Room,
    capacity,
    downwind_recirculation,
    max_sustainable_room_load,
    optimize_crac_setpoint,
    placement,
)
from repro.room.model import _topology_for
from repro.room.placement import CAP_TOLERANCE, _standalone_caps
from repro.sim.steady_state import uniform_load_field

DYN_W = 15.0

COUPLED = dict(
    n_rows=1, lanes_per_row=2, chain_length=6, sockets_per_cartridge_depth=2
)
SHALLOW = dict(
    n_rows=1, lanes_per_row=2, chain_length=2, sockets_per_cartridge_depth=2
)
UNCOUPLED = dict(
    n_rows=1, lanes_per_row=4, chain_length=1, sockets_per_cartridge_depth=1
)


def caps_room() -> Room:
    """The coupled recipe sits at positions 0 and 2, apart."""
    return Room(
        chassis=(
            ChassisSpec(chassis_id="c0", **COUPLED),
            ChassisSpec(chassis_id="u1", **UNCOUPLED),
            ChassisSpec(chassis_id="c2", **COUPLED),
            ChassisSpec(chassis_id="s3", **SHALLOW),
        ),
        recirculation=downwind_recirculation(4),
    )


def scalar_caps(room: Room, inlets_c, dyn_max_w: float, seed: int = 0):
    """One chassis at a time, one steady solve per probe."""
    params = scaled(seed=seed)
    inlets = np.broadcast_to(
        np.asarray(inlets_c, dtype=float), (room.n_chassis,)
    )
    caps = []
    for spec, inlet in zip(room.chassis, inlets):
        topology = _topology_for(spec)
        adjusted = params.with_overrides(inlet_c=float(inlet))
        ceiling = adjusted.temperature_limit_c

        def hottest(util: float) -> float:
            field = uniform_load_field(topology, adjusted, util, dyn_max_w)
            return float(field.chip_c.max())

        if hottest(1.0) <= ceiling:
            caps.append(1.0)
        elif hottest(0.0) > ceiling:
            caps.append(0.0)
        else:
            low, high = 0.0, 1.0
            while high - low > CAP_TOLERANCE:
                mid = (low + high) / 2.0
                if hottest(mid) <= ceiling:
                    low = mid
                else:
                    high = mid
            caps.append(low)
    return np.array(caps)


@pytest.mark.parametrize(
    "inlets_c,branches",
    [
        # CRAC supply everywhere: coupled chassis bisect, the rest fit.
        pytest.param(22.0, ("bisect", 1.0, "bisect", 1.0), id="scalar"),
        # The coupled recipe splits: c0 bisects, c2 is too hot idle.
        pytest.param(
            [22.0, 30.0, 80.0, 60.0],
            ("bisect", 1.0, 0.0, "bisect"),
            id="per-chassis",
        ),
        # A whole recipe group too hot idle leaves nothing to bisect.
        pytest.param(
            [80.0, 94.0, 85.0, 22.0], (0.0, 0.0, 0.0, 1.0), id="idle-hot"
        ),
    ],
)
def test_lockstep_caps_match_scalar_bisection(inlets_c, branches):
    room = caps_room()
    expected = scalar_caps(room, inlets_c, DYN_W)
    for cap, branch in zip(expected, branches):
        if branch == "bisect":
            assert 0.0 < cap < 1.0
        else:
            assert cap == branch
    np.testing.assert_array_equal(
        _standalone_caps(room, inlets_c, DYN_W, seed=0), expected
    )


def test_inlet_at_the_dvfs_limit_is_rejected():
    limit = scaled(seed=0).temperature_limit_c
    with pytest.raises(ConfigurationError, match="inlet"):
        _standalone_caps(caps_room(), [22.0, 22.0, limit, 22.0], DYN_W, 0)


def test_minhr_bisects_its_supply_caps_once_per_load_search(monkeypatch):
    """MinHR's caps sit at the CRAC supply, which no probe of the load
    bisection moves: one ``_standalone_caps`` call serves them all."""
    inlets = []

    def counting(room, inlets_c, dyn_max_w, seed):
        inlets.append(inlets_c)
        return _standalone_caps(room, inlets_c, dyn_max_w, seed)

    monkeypatch.setattr(capacity, "_standalone_caps", counting)
    monkeypatch.setattr(placement, "_standalone_caps", counting)
    probes = []
    place = capacity.place_room_load

    def counting_place(*args, **kwargs):
        probes.append(args[2])
        return place(*args, **kwargs)

    monkeypatch.setattr(capacity, "place_room_load", counting_place)
    max_sustainable_room_load(caps_room(), 22.0, placement="minhr")
    assert len(probes) > 2
    assert inlets == [22.0]


def _no_probe(*args, **kwargs):
    raise AssertionError("a room was probed under a non-finite redline")


@pytest.mark.parametrize("limit", [float("nan"), float("inf")])
def test_non_finite_redline_is_rejected_before_the_first_probe(
    monkeypatch, limit
):
    """Every ``<=`` against a NaN redline is false, so it used to read
    as "nothing is sustainable" (load 0.0, ``meets_target=False``)."""
    monkeypatch.setattr(capacity, "_standalone_caps", _no_probe)
    monkeypatch.setattr(capacity, "place_room_load", _no_probe)
    with pytest.raises(RoomError, match="limit_c"):
        max_sustainable_room_load(
            caps_room(), 22.0, placement="minhr", limit_c=limit
        )
    with pytest.raises(RoomError, match="limit_c"):
        optimize_crac_setpoint(
            caps_room(), (18.0, 22.0), 0.5, limit_c=limit
        )


@pytest.mark.parametrize("crac_supply_c", [float("nan"), float("inf")])
@pytest.mark.parametrize("policy", ["paper", "coolest", "minhr"])
def test_non_finite_crac_setpoint_is_one_typed_error(policy, crac_supply_c):
    """``minhr`` used to raise ``ConfigurationError`` naming ``inlet_c``
    from its caps, and ``place_room_load(..., "paper")`` returned a
    vector for a NaN setpoint."""
    with pytest.raises(RoomError, match="crac_supply_c"):
        max_sustainable_room_load(
            caps_room(), crac_supply_c, placement=policy
        )
    with pytest.raises(RoomError, match="crac_supply_c"):
        placement.place_room_load(
            caps_room(), policy, 0.5, crac_supply_c=crac_supply_c
        )


def test_every_cap_halving_is_one_evaluator_call_across_recipes(
    monkeypatch,
):
    """The full-load and idle checks and each halving are one
    ``evaluate_fleet`` call for the whole room: the two bisecting
    chassis (recipes COUPLED and SHALLOW) share every halving."""
    room = caps_room()
    inlets_c = [22.0, 30.0, 80.0, 60.0]
    calls = []
    evaluate = placement.evaluate_fleet

    def recording_evaluate(topology, params, points):
        calls.append(list(topology))
        return evaluate(topology, params, points)

    monkeypatch.setattr(placement, "evaluate_fleet", recording_evaluate)
    caps = _standalone_caps(room, inlets_c, DYN_W, seed=0)
    np.testing.assert_array_equal(caps, scalar_caps(room, inlets_c, DYN_W))
    topologies = [_topology_for(spec) for spec in room.chassis]
    halvings = int(np.ceil(np.log2(1.0 / CAP_TOLERANCE)))
    assert calls == (
        [topologies, [topologies[i] for i in (0, 2, 3)]]
        + [[topologies[0], topologies[3]]] * halvings
    )
