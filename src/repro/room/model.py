"""The room model and its fixed-point thermal equilibrium solver.

A *room* composes heterogeneous chassis (Table-I configurations via
:class:`~repro.fleet.registry.ChassisSpec`) with a heat-recirculation
matrix and one controlled input — the CRAC supply temperature.  The
coupled equilibrium is a fixed point over the chassis inlets:

1. given inlets, every chassis settles to its own steady state (the
   chassis-level closed-form solver, unchanged);
2. given chassis exhaust powers, the room air sets the inlets:
   ``inlet = T_crac + D @ P_exhaust``.

The solver iterates (1)-(2) to convergence with an explicit tolerance,
and raises :class:`~repro.errors.RoomConvergenceError` — never returns
silent nonsense — when the loop gains exceed 1 (strong recirculation
against a leakage-heavy fleet), when residuals go non-finite, or when
the iteration budget runs out above tolerance.

Each iteration evaluates the chassis steady states through one path:
one :func:`~repro.sim.batched.evaluate_fleet` fleet-tensor call, each
chassis a :class:`~repro.sim.batched.FleetPoint` with its own topology
and its inlet as the per-point override, chassis of every recipe
stacked into one block.  Only chassis whose operating point (recipe,
utilisation, power, inlet) is new within the solve go to the
evaluator; one whose inlet did not move reuses its field.  The room
reads only steady fields, which is all the evaluator returns: no DVFS
selection runs.
Every converged chassis field is bit-identical to
:func:`~repro.sim.steady_state.solve_steady_state` at that chassis'
converged inlet (``tests/test_room_differential.py``).

A 1-chassis room with zero recirculation converges in a single
iteration to exactly the chassis-only steady state — bit for bit (the
fingerprint oracle in ``tests/test_room_goldens.py``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..config.parameters import SimulationParameters
from ..config.presets import scaled
from ..errors import RoomConvergenceError, RoomError
from ..fleet.registry import ChassisSpec
from ..obs.events import EventBus
from ..server.topology import ServerTopology
from ..sim.batched import FleetPoint, evaluate_fleet
from ..sim.steady_state import SteadyStateField
from .recirculation import RecirculationMatrix

#: Convergence tolerance on the inlet fixed point, degC.
TOLERANCE_C = 1e-6

#: Iteration budget for the fixed-point loop.
MAX_ITERATIONS = 60

#: Residual above which the solve is declared divergent outright, degC.
DIVERGENCE_LIMIT_C = 1000.0

#: Per-process cache of built chassis topologies, keyed by recipe.
_topology_cache: Dict[Tuple[int, int, int, int], ServerTopology] = {}


def _chassis_recipe(spec: ChassisSpec) -> Tuple[int, int, int, int]:
    """The geometry tuple that determines a chassis' topology."""
    return (
        spec.n_rows,
        spec.lanes_per_row,
        spec.chain_length,
        spec.sockets_per_cartridge_depth,
    )


def _topology_for(spec: ChassisSpec) -> ServerTopology:
    """The (cached) topology for one chassis spec."""
    recipe = _chassis_recipe(spec)
    topology = _topology_cache.get(recipe)
    if topology is None:
        topology = spec.build_topology()
        _topology_cache[recipe] = topology
    return topology


@dataclass(frozen=True)
class Room:
    """One datacenter room: chassis plus their recirculation coupling.

    Attributes:
        chassis: The chassis specs, in room position order (the order
            the recirculation matrix indexes).
        recirculation: The validated chassis-to-chassis
            heat-recirculation matrix; its dimension must equal the
            chassis count.
    """

    chassis: Tuple[ChassisSpec, ...]
    recirculation: RecirculationMatrix

    def __post_init__(self) -> None:
        object.__setattr__(self, "chassis", tuple(self.chassis))
        if not self.chassis:
            raise RoomError("a room needs at least one chassis")
        if self.recirculation.n_chassis != len(self.chassis):
            raise RoomError(
                f"recirculation matrix couples "
                f"{self.recirculation.n_chassis} chassis but the room "
                f"has {len(self.chassis)}"
            )
        seen = set()
        for spec in self.chassis:
            if spec.chassis_id in seen:
                raise RoomError(
                    f"duplicate chassis id {spec.chassis_id!r}"
                )
            seen.add(spec.chassis_id)

    @property
    def n_chassis(self) -> int:
        return len(self.chassis)

    @property
    def sockets_per_chassis(self) -> np.ndarray:
        """Socket count of each chassis, room order."""
        return np.array(
            [_topology_for(spec).n_sockets for spec in self.chassis]
        )

    @property
    def total_sockets(self) -> int:
        return int(self.sockets_per_chassis.sum())

    def permuted(self, order: Sequence[int]) -> "Room":
        """The same room with chassis relabelled by ``order``."""
        idx = list(order)
        if sorted(idx) != list(range(self.n_chassis)):
            raise RoomError(
                f"order must be a permutation of 0..{self.n_chassis - 1}"
            )
        return Room(
            chassis=tuple(self.chassis[i] for i in idx),
            recirculation=self.recirculation.permuted(idx),
        )

    def fingerprint(self) -> str:
        """SHA-256 over the chassis recipes and the recirculation matrix.

        Covers everything that shapes the room's thermal response —
        chassis geometry and the coupling coefficients — so two rooms
        share a fingerprint iff they are physically interchangeable.
        """
        digest = hashlib.sha256()
        for spec in self.chassis:
            digest.update(
                f"{spec.chassis_id}|{_chassis_recipe(spec)!r}".encode()
            )
        digest.update(b"|recirc:")
        digest.update(self.recirculation.fingerprint().encode())
        return digest.hexdigest()


@dataclass(frozen=True)
class RoomSolution:
    """Converged room thermal equilibrium.

    Attributes:
        crac_supply_c: The CRAC supply temperature of the solve, degC.
        utilization: Per-chassis uniform busy fraction applied.
        dyn_max_w: Per-chassis dynamic power while busy, W/socket.
        inlet_c: Converged chassis inlet temperatures, degC.
        exhaust_w: Converged chassis exhaust powers, W.
        fields: Per-chassis steady thermal fields (socket resolution).
        residuals_c: Max inlet residual of each fixed-point iteration.
    """

    crac_supply_c: float
    utilization: np.ndarray
    dyn_max_w: np.ndarray
    inlet_c: np.ndarray
    exhaust_w: np.ndarray
    fields: Tuple[SteadyStateField, ...]
    residuals_c: Tuple[float, ...]

    @property
    def n_chassis(self) -> int:
        return len(self.fields)

    @property
    def n_iterations(self) -> int:
        return len(self.residuals_c)

    @property
    def max_chip_c(self) -> np.ndarray:
        """Hottest chip temperature of each chassis, degC."""
        return np.array([float(f.chip_c.max()) for f in self.fields])

    @property
    def total_power_w(self) -> float:
        """Total IT power leaving the room as heat, W."""
        return float(self.exhaust_w.sum())

    def fingerprint(self) -> str:
        """SHA-256 over every deterministic solution field.

        The raw IEEE-754 bytes of the inlets, exhausts and all four
        per-chassis field arrays — two solves match iff every bit
        matches (the room-level analogue of
        :func:`~repro.sim.fingerprint.result_fingerprint`).
        """
        digest = hashlib.sha256()

        def array(values: np.ndarray) -> None:
            digest.update(
                np.ascontiguousarray(values, dtype=float).tobytes()
            )

        digest.update(np.float64(self.crac_supply_c).tobytes())
        array(self.utilization)
        array(self.dyn_max_w)
        array(self.inlet_c)
        array(self.exhaust_w)
        for field in self.fields:
            array(field.power_w)
            array(field.ambient_c)
            array(field.sink_c)
            array(field.chip_c)
        return digest.hexdigest()


def _as_chassis_vector(room: Room, values, name: str) -> np.ndarray:
    """Broadcast a scalar or validate a per-chassis vector."""
    array = np.asarray(values, dtype=float)
    if array.ndim == 0:
        array = np.full(room.n_chassis, float(array))
    if array.shape != (room.n_chassis,):
        raise RoomError(
            f"expected {name} of shape ({room.n_chassis},), got "
            f"{array.shape}"
        )
    return array


#: A chassis operating point: topology recipe, utilisation, dynamic
#: power and inlet.  Equal keys give bit-identical steady fields.
ChassisKey = Tuple[Tuple[int, int, int, int], float, float, float]


class _Solved(NamedTuple):
    """A solved chassis field and the two reductions each iteration reads."""

    field: SteadyStateField
    exhaust_w: float
    max_chip_c: float


def _solve_chassis(
    room: Room,
    params: SimulationParameters,
    utilization: np.ndarray,
    dyn_max_w: np.ndarray,
    inlet_c: np.ndarray,
    solved: Dict[ChassisKey, _Solved],
) -> List[_Solved]:
    """One chassis-solve pass through the fleet-tensor evaluator.

    ``solved`` holds the chassis already solved in this room solve; a
    chassis whose :data:`ChassisKey` is in it reuses that entry, and
    the rest are solved and added.  Every new chassis of the pass,
    whatever its topology recipe, goes to one
    :func:`~repro.sim.batched.evaluate_fleet` call with its own
    topology, as a :class:`~repro.sim.batched.FleetPoint` whose
    ``inlet_c`` override carries the room iteration's inlet.  Each
    field is bit-identical to
    :func:`~repro.sim.steady_state.solve_steady_state` at that inlet
    (the batched evaluator's own oracle guarantees it per point).
    """
    keys = [
        (
            _chassis_recipe(spec),
            float(utilization[i]),
            float(dyn_max_w[i]),
            float(inlet_c[i]),
        )
        for i, spec in enumerate(room.chassis)
    ]
    # Identical new chassis both go: evaluate_fleet solves each
    # distinct row once.
    new = [i for i, key in enumerate(keys) if key not in solved]
    if new:
        result = evaluate_fleet(
            [_topology_for(room.chassis[i]) for i in new],
            params,
            [
                FleetPoint(
                    utilization=keys[i][1],
                    dyn_max_w=keys[i][2],
                    inlet_c=keys[i][3],
                )
                for i in new
            ],
        )
        for k, i in enumerate(new):
            field = result.field(k)
            solved[keys[i]] = _Solved(
                field, float(np.sum(field.power_w)), float(field.chip_c.max())
            )
    return [solved[key] for key in keys]


def _owned(field: SteadyStateField) -> SteadyStateField:
    """A copy of ``field`` whose arrays own their data.

    Solved fields are rows of stacked evaluator tensors, some from
    earlier iterations; copying each row lets those stacks go when the
    solve returns, however long the solution is kept.
    """
    return SteadyStateField(
        power_w=field.power_w.copy(),
        ambient_c=field.ambient_c.copy(),
        sink_c=field.sink_c.copy(),
        chip_c=field.chip_c.copy(),
    )


def solve_room(
    room: Room,
    utilization,
    dyn_max_w,
    crac_supply_c: float,
    seed: int = 0,
    emit: Optional[Callable[[dict], None]] = None,
) -> RoomSolution:
    """Iterate chassis steady states to the room thermal equilibrium.

    The fixed point converges when the max inlet residual is within
    :data:`TOLERANCE_C`, inside a budget of :data:`MAX_ITERATIONS`;
    a residual above :data:`DIVERGENCE_LIMIT_C` aborts at once.

    Args:
        room: The chassis mix and recirculation coupling.
        utilization: Per-chassis uniform busy fraction (scalar
            broadcasts), each in [0, 1].
        dyn_max_w: Per-chassis dynamic power while busy, W/socket
            (scalar broadcasts).
        crac_supply_c: CRAC supply (cold-aisle) temperature, degC —
            the room's controlled input.
        seed: Seed for the shared scaled parameter set.
        emit: Optional subscriber for the solve's ``room_*`` events
            (validated dicts, e.g. ``JsonlWriter.emit``).

    Returns:
        The converged :class:`RoomSolution`.

    Raises:
        RoomError: for malformed inputs.
        RoomConvergenceError: when the fixed point diverges (residual
            growth past :data:`DIVERGENCE_LIMIT_C`, non-finite residuals,
            or three consecutive growing residuals an order of
            magnitude above the first) or the budget runs out above
            tolerance.
    """
    utilization = _as_chassis_vector(room, utilization, "utilization")
    dyn_max_w = _as_chassis_vector(room, dyn_max_w, "dyn_max_w")
    if not ((utilization >= 0) & (utilization <= 1)).all():
        raise RoomError("utilisation must lie in [0, 1]")
    if not np.isfinite(dyn_max_w).all():
        raise RoomError("dyn_max_w must be finite")
    if (dyn_max_w < 0).any():
        raise RoomError("dynamic power must be non-negative")
    if not np.isfinite(crac_supply_c):
        raise RoomError(f"crac_supply_c must be finite, got {crac_supply_c}")

    bus = EventBus()
    if emit is not None:
        bus.subscribe(emit)
    params = scaled(seed=seed)
    matrix = room.recirculation
    inlet = np.full(room.n_chassis, float(crac_supply_c))
    bus.emit(
        "room_solve_start",
        n_chassis=room.n_chassis,
        crac_supply_c=float(crac_supply_c),
        recirculation=matrix.fingerprint(),
    )
    residuals: List[float] = []
    solved: Dict[ChassisKey, _Solved] = {}

    def diverged(reason: str) -> RoomConvergenceError:
        # The event schema forbids non-finite floats; a non-finite
        # residual is already named in ``reason``.
        finite = [r for r in residuals if np.isfinite(r)]
        bus.emit(
            "room_diverged",
            n_iterations=len(residuals),
            residual_c=finite[-1] if finite else 0.0,
            reason=reason,
        )
        return RoomConvergenceError(residuals, TOLERANCE_C, reason)

    for _ in range(MAX_ITERATIONS):
        chassis = _solve_chassis(
            room, params, utilization, dyn_max_w, inlet, solved
        )
        exhaust = np.array([c.exhaust_w for c in chassis])
        target = crac_supply_c + matrix.inlet_rise(exhaust)
        residual = float(np.max(np.abs(target - inlet)))
        residuals.append(residual)
        hottest = max(c.max_chip_c for c in chassis)
        if not np.isfinite(residual) or not np.isfinite(hottest):
            raise diverged("non-finite inlet residual")
        bus.emit(
            "room_iteration",
            iteration=len(residuals),
            residual_c=residual,
            max_chip_c=hottest,
        )
        if residual > DIVERGENCE_LIMIT_C:
            raise diverged(
                f"residual exceeded the divergence limit "
                f"{DIVERGENCE_LIMIT_C:g} degC"
            )
        if (
            len(residuals) >= 4
            and residuals[-1] > residuals[-2] > residuals[-3]
            and residuals[-1] > 10.0 * residuals[0]
        ):
            raise diverged("residuals growing (loop gain above 1)")
        if residual <= TOLERANCE_C:
            bus.emit(
                "room_converged",
                n_iterations=len(residuals),
                residual_c=residual,
                max_chip_c=hottest,
            )
            return RoomSolution(
                crac_supply_c=float(crac_supply_c),
                utilization=utilization,
                dyn_max_w=dyn_max_w,
                inlet_c=inlet,
                exhaust_w=exhaust,
                fields=tuple(_owned(c.field) for c in chassis),
                residuals_c=tuple(residuals),
            )
        inlet = target
    raise diverged("iteration budget exhausted above tolerance")
