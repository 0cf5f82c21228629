"""Room-level capacity planning: sustainable load vs CRAC setpoint.

Extends the chassis-level planner (:mod:`repro.analysis.capacity`) one
layer up: instead of asking how much uniform load *one box* sustains at
a fixed inlet, these utilities ask how much load *a room of coupled
boxes* sustains when the inlets themselves are part of the solution —
``inlet = T_crac + D @ P_exhaust`` — and the operator's knob is the
CRAC supply temperature (Van Damme et al., arXiv 1611.00522 frames
exactly this joint placement + cooling-setpoint problem).

Room solves memoise into the process-wide sweep cache
(:data:`repro.sim.parallel.shared_cache`) under :func:`room_solve_key`:
a ``room-`` prefixed digest of the room fingerprint (chassis mix +
recirculation matrix), the CRAC setpoint, the seed and the placement
vector, so a room solve can never alias a chassis-only cache entry
(``tests/test_room_cache.py`` pins the collision behaviour).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..analysis.capacity import (
    UTILIZATION_TOLERANCE,
    sustained_dynamic_power_w,
)
from ..config.presets import scaled
from ..errors import RoomError
from ..sim.parallel import shared_cache
from ..workloads.benchmark import BenchmarkSet
from .model import Room, RoomSolution, _as_chassis_vector, solve_room
from .placement import _standalone_caps, place_room_load


def room_solve_key(
    room: Room,
    utilization: np.ndarray,
    dyn_max_w: np.ndarray,
    crac_supply_c: float,
    seed: int = 0,
) -> str:
    """The shared-cache key for one fully specified room solve.

    One sha256 over exactly what :func:`~repro.room.model.solve_room`
    depends on: the room fingerprint (chassis recipes plus
    recirculation matrix), the CRAC setpoint, the parameter seed and
    the per-chassis utilisation and ``dyn_max_w`` bytes.  The
    ``room-`` prefix keeps it apart from every chassis-only key, which
    is bare hex.
    """
    digest = hashlib.sha256()
    digest.update(
        f"{room.fingerprint()}|crac:{float(crac_supply_c)!r}|"
        f"seed:{seed}|".encode()
    )
    digest.update(np.ascontiguousarray(utilization, dtype=float).tobytes())
    digest.update(np.ascontiguousarray(dyn_max_w, dtype=float).tobytes())
    return "room-" + digest.hexdigest()


def solve_room_cached(
    room: Room,
    utilization,
    dyn_max_w,
    crac_supply_c: float,
    seed: int = 0,
    emit=None,
) -> RoomSolution:
    """A :func:`~repro.room.model.solve_room` with shared-cache memoing.

    The capacity bisections below re-probe identical operating points
    across curve points and repeated experiment runs; the cache makes
    those free.  Cached solutions are keyed on the full room inputs
    (see :func:`room_solve_key`), never aliasing chassis sweep results.
    Every solve runs at the solver's default tolerances, which is why
    they need not join the key.
    """
    util = _as_chassis_vector(room, utilization, "utilization")
    dyn = _as_chassis_vector(room, dyn_max_w, "dyn_max_w")
    key = room_solve_key(room, util, dyn, crac_supply_c, seed=seed)
    solution = shared_cache.get(key)
    if solution is None:
        solution = solve_room(
            room, util, dyn, crac_supply_c, seed=seed, emit=emit
        )
        shared_cache.put(key, solution)
    return solution


def max_sustainable_room_load(
    room: Room,
    crac_supply_c: float,
    placement: str = "paper",
    benchmark_set: BenchmarkSet = BenchmarkSet.COMPUTATION,
    limit_c: Optional[float] = None,
    seed: int = 0,
    emit=None,
) -> float:
    """Largest room utilisation with every steady chip under the limit.

    The room analogue of :func:`~repro.analysis.capacity.
    max_sustainable_utilization`: bisection over the *room* utilisation
    axis, where each probe places the load under ``placement``, solves
    the recirculation-coupled equilibrium, and checks the hottest chip
    in the room.

    Args:
        room: The chassis mix and recirculation coupling.
        crac_supply_c: CRAC supply temperature, degC.
        placement: A policy name from
            :data:`~repro.room.placement.ROOM_PLACEMENTS`.
        benchmark_set: Workload whose sustained power is applied.
        limit_c: Temperature ceiling; defaults to the DVFS limit of
            the shared parameter set.
        seed: Parameter seed.
        emit: Optional telemetry sink threaded to every room solve.

    Returns:
        Room utilisation in [0, 1]; 1.0 means the limit never binds,
        0.0 means even the idle room violates it.

    Raises:
        RoomError: for a non-finite ``limit_c``.
        RoomConvergenceError: when any probe's fixed point diverges —
            an unsustainable room configuration is reported loudly,
            not as a silently clipped curve.
    """
    params = scaled(seed=seed)
    ceiling = params.temperature_limit_c if limit_c is None else limit_c
    if not np.isfinite(ceiling):
        raise RoomError(f"limit_c must be finite, got {limit_c!r}")
    dynamic = sustained_dynamic_power_w(benchmark_set)
    # MinHR's caps sit at the CRAC supply, which no probe moves: bisect
    # them once here rather than once per probe.
    supply_caps = (
        _standalone_caps(room, crac_supply_c, dynamic, seed)
        if placement == "minhr"
        else None
    )

    def hottest(room_util: float) -> float:
        util = place_room_load(
            room,
            placement,
            room_util,
            crac_supply_c=crac_supply_c,
            dyn_max_w=dynamic,
            seed=seed,
            supply_caps=supply_caps,
        )
        solution = solve_room_cached(
            room,
            util,
            dynamic,
            crac_supply_c,
            seed=seed,
            emit=emit,
        )
        return float(solution.max_chip_c.max())

    if hottest(0.0) > ceiling:
        return 0.0
    if hottest(1.0) <= ceiling:
        return 1.0
    low, high = 0.0, 1.0
    while high - low > UTILIZATION_TOLERANCE:
        mid = (low + high) / 2.0
        if hottest(mid) <= ceiling:
            low = mid
        else:
            high = mid
    return low


@dataclass(frozen=True)
class RoomDeratingPoint:
    """Sustainable room load at one CRAC setpoint.

    Attributes:
        crac_supply_c: CRAC supply temperature, degC.
        max_utilization: Largest sustainable room utilisation.
    """

    crac_supply_c: float
    max_utilization: float


def room_derating_curve(
    room: Room,
    crac_setpoints_c: Sequence[float],
    placement: str = "paper",
    benchmark_set: BenchmarkSet = BenchmarkSet.COMPUTATION,
    limit_c: Optional[float] = None,
    seed: int = 0,
    emit=None,
) -> List[RoomDeratingPoint]:
    """Sustainable room load as a function of CRAC supply temperature.

    The room-level sustainable-load curve — the paper's chassis-inlet
    derating curve with recirculated exhaust in the loop.

    Raises:
        RoomError: for an empty setpoint list.
    """
    if not crac_setpoints_c:
        raise RoomError("derating curve needs >= 1 CRAC setpoint")
    return [
        RoomDeratingPoint(
            crac_supply_c=float(setpoint),
            max_utilization=max_sustainable_room_load(
                room,
                float(setpoint),
                placement=placement,
                benchmark_set=benchmark_set,
                limit_c=limit_c,
                seed=seed,
                emit=emit,
            ),
        )
        for setpoint in crac_setpoints_c
    ]


@dataclass(frozen=True)
class CracSetpointChoice:
    """Outcome of the CRAC setpoint search.

    Attributes:
        crac_supply_c: The chosen supply temperature, degC.
        max_utilization: Sustainable room load at that setpoint.
        meets_target: Whether the target utilisation is sustainable
            there.
    """

    crac_supply_c: float
    max_utilization: float
    meets_target: bool


def optimize_crac_setpoint(
    room: Room,
    crac_setpoints_c: Sequence[float],
    target_utilization: float,
    placement: str = "paper",
    benchmark_set: BenchmarkSet = BenchmarkSet.COMPUTATION,
    limit_c: Optional[float] = None,
    seed: int = 0,
    emit=None,
) -> CracSetpointChoice:
    """The warmest CRAC setpoint that still sustains a target load.

    Joint cooling co-control: every degree of CRAC supply temperature
    is cooling energy saved, so among the candidate setpoints the
    search returns the *warmest* one whose sustainable load (subject
    to the redline ``limit_c``) still covers ``target_utilization``.
    When no setpoint sustains the target, the coldest candidate — the
    one with the largest sustainable load — is returned with
    ``meets_target=False`` so callers can derate explicitly rather
    than silently overcommit.

    Raises:
        RoomError: for an empty setpoint list or an out-of-range
            target.
    """
    if not crac_setpoints_c:
        raise RoomError("setpoint search needs >= 1 candidate")
    if not 0.0 <= target_utilization <= 1.0:
        raise RoomError("target utilisation must lie in [0, 1]")
    curve = room_derating_curve(
        room,
        crac_setpoints_c,
        placement=placement,
        benchmark_set=benchmark_set,
        limit_c=limit_c,
        seed=seed,
        emit=emit,
    )
    sustaining = [
        p for p in curve if p.max_utilization >= target_utilization
    ]
    if sustaining:
        best = max(sustaining, key=lambda p: p.crac_supply_c)
        return CracSetpointChoice(
            crac_supply_c=best.crac_supply_c,
            max_utilization=best.max_utilization,
            meets_target=True,
        )
    fallback = max(curve, key=lambda p: (p.max_utilization, -p.crac_supply_c))
    return CracSetpointChoice(
        crac_supply_c=fallback.crac_supply_c,
        max_utilization=fallback.max_utilization,
        meets_target=False,
    )
