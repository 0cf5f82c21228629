"""Thermal-aware room-level load placement policies.

Given a total room load (the fraction of all sockets that should be
busy), a placement policy decides *which chassis* absorb it.  Three
baselines span the literature the room layer reproduces:

- ``"paper"`` — the source paper's chassis-level view: no room
  awareness, every chassis runs the same uniform utilisation.  This is
  the control every room-aware policy is measured against.
- ``"coolest"`` — inlet-aware margin balancing: solve the uniform
  room once, recompute each chassis' thermal cap at its converged
  (recirculation-loaded) inlet, and allocate load proportional to
  those caps so the room reaches its redline everywhere at once (the
  inlet-oriented coolest-inlet-first family, made margin-aware).
- ``"minhr"`` — MinHR (Sun et al., arXiv 1410.3104): weight chassis
  inversely by how much heat one watt of their exhaust recirculates
  room-wide (column sums of the recirculation matrix), minimizing the
  total heat the CRAC must absorb twice.

Room-aware policies allocate *power-budget shares* proportional to
their weights — not greedy fill-to-capacity: in a density optimized
chassis, in-chassis coupling binds long before room recirculation, so
concentrating load would push a single box past its redline while the
rest of the room idles.  The weighted share is water-filled against
each chassis' *standalone* thermal cap (the utilisation where its own
steady chip field crosses the DVFS limit at an inlet equal to the CRAC
supply); demand the caps cannot absorb spills proportionally to the
remaining headroom, so the vector always conserves total demand and
the room solver — not the placement — decides that such a point is
unsustainable.  For a homogeneous room the weights tie and every
policy reduces to the paper's uniform baseline.

Policies return a per-chassis utilisation vector conserving total
demand: ``sum(util * sockets) == room_utilization * total_sockets``
(up to float rounding), each entry in [0, 1].
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from ..config.presets import scaled
from ..errors import RoomError
from ..sim.batched import FleetPoint, evaluate_fleet
from .model import Room, _topology_for, solve_room

PlacementFn = Callable[..., np.ndarray]

#: Bisection tolerance of the standalone per-chassis thermal cap.
CAP_TOLERANCE = 1e-3


def _standalone_caps(
    room: Room,
    inlets_c,
    dyn_max_w: float,
    seed: int,
) -> np.ndarray:
    """Per-chassis sustainable utilisation at the given inlets.

    A chassis loaded past the utilisation where its own steady chip
    field crosses the DVFS limit is thermally infeasible *regardless*
    of room placement — in-chassis coupling binds before recirculation
    does.  ``inlets_c`` is a scalar (every chassis at the CRAC supply,
    optimistic) or a per-chassis vector (e.g. the converged inlets of
    a room solve, recirculation-aware).

    A chassis that stays under the limit fully loaded caps at 1.0, one
    over it even idle caps at 0.0, and the rest bisect [0, 1] to
    :data:`CAP_TOLERANCE`.  Every chassis of the room, whatever its
    topology recipe, bisects in lockstep — one stacked steady solve
    (:func:`~repro.sim.batched.evaluate_fleet`, each chassis with its
    own topology) per halving — and since all start from [0, 1] they
    take the same halvings, each bit-identical to a scalar bisection
    over :func:`~repro.sim.steady_state.uniform_load_field`.
    """
    params = scaled(seed=seed)
    inlets = np.broadcast_to(
        np.asarray(inlets_c, dtype=float), (room.n_chassis,)
    )
    for inlet in inlets:
        # Rejects an inlet at or above the DVFS limit.
        params.with_overrides(inlet_c=float(inlet))
    ceiling = params.temperature_limit_c
    topologies = [_topology_for(spec) for spec in room.chassis]

    def hottest(members, util) -> np.ndarray:
        result = evaluate_fleet(
            [topologies[i] for i in members],
            params,
            [
                FleetPoint(
                    utilization=float(u),
                    dyn_max_w=dyn_max_w,
                    inlet_c=float(inlets[i]),
                )
                for i, u in zip(members, util)
            ],
        )
        return np.array(
            [result.field(k).chip_c.max() for k in range(members.size)]
        )

    caps = np.empty(room.n_chassis)
    members = np.arange(room.n_chassis)
    full = hottest(members, np.ones(members.size)) <= ceiling
    caps[members[full]] = 1.0
    members = members[~full]
    if members.size:
        idle = hottest(members, np.zeros(members.size)) > ceiling
        caps[members[idle]] = 0.0
        members = members[~idle]
    low = np.zeros(members.size)
    high = np.ones(members.size)
    # Equal (and exact, dyadic) widths: every chassis halves [0, 1].
    while members.size and high[0] - low[0] > CAP_TOLERANCE:
        mid = (low + high) / 2.0
        fits = hottest(members, mid) <= ceiling
        low = np.where(fits, mid, low)
        high = np.where(fits, high, mid)
    caps[members] = low
    return caps


def _weighted_fill(
    room: Room,
    weights: np.ndarray,
    room_utilization: float,
    caps: np.ndarray,
) -> np.ndarray:
    """Water-fill demand over chassis by weight, respecting caps.

    Each round grants every unsaturated chassis its weighted share of
    the remaining demand, clipped at the chassis' cap; clipping
    redistributes the excess to the still-unsaturated chassis in the
    next round (at most ``n_chassis`` rounds).  Demand beyond the
    total capped capacity spills proportionally to the remaining
    socket headroom so the vector stays demand-conserving.
    """
    sockets = room.sockets_per_chassis.astype(float)
    remaining = room_utilization * float(sockets.sum())
    cap_sockets = np.clip(caps, 0.0, 1.0) * sockets
    busy = np.zeros(room.n_chassis)
    share = np.maximum(np.asarray(weights, dtype=float), 0.0) * sockets
    for _ in range(room.n_chassis):
        open_ = busy < cap_sockets - 1e-12
        pool = float(share[open_].sum())
        if remaining <= 1e-12 or pool <= 0.0:
            break
        grant = np.where(open_, remaining * share / pool, 0.0)
        grant = np.minimum(grant, cap_sockets - busy)
        busy += grant
        remaining -= float(grant.sum())
    if remaining > 1e-12:
        headroom = sockets - busy
        total = float(headroom.sum())
        if total > 0.0:
            busy += remaining * headroom / total
    return busy / sockets


def _inverse_weights(pressure: np.ndarray) -> np.ndarray:
    """Turn a non-negative "thermal pressure" into placement weights.

    ``1 / (1 + pressure / mean)`` — smooth, scale-free, and exactly
    uniform when every chassis carries the same pressure (including
    the all-zero case), so homogeneous rooms reduce to the paper
    baseline.
    """
    pressure = np.maximum(np.asarray(pressure, dtype=float), 0.0)
    mean = float(pressure.mean())
    if mean <= 0.0:
        return np.ones_like(pressure)
    return 1.0 / (1.0 + pressure / mean)


def place_paper(
    room: Room, room_utilization: float, **_kwargs
) -> np.ndarray:
    """The paper's room-blind baseline: uniform utilisation everywhere."""
    return np.full(room.n_chassis, room_utilization)


def place_coolest_inlet(
    room: Room,
    room_utilization: float,
    crac_supply_c: float = 18.0,
    dyn_max_w: float = 0.0,
    seed: int = 0,
    **_kwargs,
) -> np.ndarray:
    """Balance thermal margin using the observed (recirculated) inlets.

    Solves the room once at the *uniform* allocation to observe each
    chassis' converged, recirculation-loaded inlet, recomputes the
    standalone caps at those inlets, and allocates load proportional
    to the caps: every chassis then carries the same fraction of its
    inlet-aware capacity, so the whole room reaches its redline
    simultaneously rather than wherever the warmest inlet sits.  This
    is the inlet-oriented (coolest-inlet-first) family made
    margin-aware — cooler inlet, more load.
    """
    uniform = solve_room(
        room,
        room_utilization,
        dyn_max_w,
        crac_supply_c,
        seed=seed,
    )
    caps = _standalone_caps(room, uniform.inlet_c, dyn_max_w, seed)
    return _weighted_fill(room, caps, room_utilization, caps)


def place_minhr(
    room: Room,
    room_utilization: float,
    crac_supply_c: float = 18.0,
    dyn_max_w: float = 0.0,
    seed: int = 0,
    supply_caps: Optional[np.ndarray] = None,
    **_kwargs,
) -> np.ndarray:
    """Bias load towards the chassis that recirculate the least heat.

    The pressure is each chassis' room-wide heat-recirculation
    contribution per watt of exhaust (Sun et al.'s MinHR ratio).  The
    caps are the standalone caps at the CRAC supply: ``supply_caps``
    when given, else bisected here.
    """
    contribution = room.recirculation.hr_contribution()
    caps = (
        _standalone_caps(room, crac_supply_c, dyn_max_w, seed)
        if supply_caps is None
        else supply_caps
    )
    return _weighted_fill(
        room,
        _inverse_weights(contribution),
        room_utilization,
        caps,
    )


#: Registered room placement policies.
ROOM_PLACEMENTS: Dict[str, PlacementFn] = {
    "paper": place_paper,
    "coolest": place_coolest_inlet,
    "minhr": place_minhr,
}


def place_room_load(
    room: Room,
    policy: str,
    room_utilization: float,
    crac_supply_c: float = 18.0,
    dyn_max_w: float = 0.0,
    seed: int = 0,
    supply_caps: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Distribute a total room load over chassis under one policy.

    Args:
        room: The room to place into.
        policy: A name from :data:`ROOM_PLACEMENTS`.
        room_utilization: Fraction of *all* room sockets busy, [0, 1].
        crac_supply_c: CRAC supply temperature (the inlet-aware policy
            solves the idle room at this setpoint).
        dyn_max_w: Busy dynamic power per socket, W (idle-room solve).
        seed: Parameter seed threaded to any internal room solve.
        supply_caps: ``_standalone_caps(room, crac_supply_c, dyn_max_w,
            seed)`` when the caller already holds them, so ``"minhr"``
            does not bisect them again; ``None`` computes them.  The
            other policies ignore it.

    Returns:
        Per-chassis utilisation vector, demand-conserving.

    Raises:
        RoomError: for unknown policies, out-of-range loads or a
            non-finite ``crac_supply_c``.
    """
    if not 0.0 <= room_utilization <= 1.0:
        raise RoomError("room utilisation must lie in [0, 1]")
    if not np.isfinite(crac_supply_c):
        raise RoomError(f"crac_supply_c must be finite, got {crac_supply_c!r}")
    try:
        fn = ROOM_PLACEMENTS[policy]
    except KeyError as exc:
        known = ", ".join(sorted(ROOM_PLACEMENTS))
        raise RoomError(
            f"unknown room placement {policy!r}; known: {known}"
        ) from exc
    util = fn(
        room,
        room_utilization,
        crac_supply_c=crac_supply_c,
        dyn_max_w=dyn_max_w,
        seed=seed,
        supply_caps=supply_caps,
    )
    return np.clip(util, 0.0, 1.0)
