"""Room scenarios: sustainable load under CRAC + heat recirculation.

The paper's sustainable-load story ends at the chassis inlet: Figure 5
and the capacity planner assume whatever temperature the rack delivers.
This experiment family puts the paper's chassis *inside a room* —
recirculated exhaust raising inlets (``inlet = T_crac + D @
P_exhaust``), the CRAC supply temperature as the operator's knob — and
measures what the room does to the paper's conclusions, using the
cross-interference formulation of Sun et al. (arXiv 1410.3104) and the
joint placement/cooling view of Van Damme et al. (arXiv 1611.00522).

Three scenario axes, each over heterogeneous Table-I chassis mixes:

- **Sustainable-load curves** — the largest room utilisation with
  every steady chip under the DVFS limit, as a function of the CRAC
  setpoint.  Strongly coupled mixes derate much faster than uncoupled
  ones: in-chassis coupling *multiplies* the room-level inlet rise.
- **Placement comparison** — the paper's room-blind uniform placement
  vs coolest-inlet vs MinHR at one reference setpoint.  Room-aware
  placement buys back sustainable load, or equivalently lets the CRAC
  run warmer at equal load.
- **Diurnal trace** — a 24 h free-cooling supply-temperature profile
  (CRAC supply tracking outdoor temperature) turned into an hourly
  sustainable-load envelope for one mix: the room-level capacity
  planning curve an operator would actually schedule against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..fleet.registry import ChassisSpec, spec_from_catalog
from ..room import (
    Room,
    RoomDeratingPoint,
    RoomInvariantAuditor,
    downwind_recirculation,
)
from ..room.capacity import max_sustainable_room_load, room_derating_curve
from ..server.catalog import TABLE_I_SYSTEMS, DensityOptimizedSystem
from ..workloads.benchmark import BenchmarkSet
from .common import ExperimentConfig, format_table

#: CRAC supply setpoints swept for the sustainable-load curves, degC.
DEFAULT_CRAC_SETPOINTS_C: Tuple[float, ...] = (
    14.0,
    18.0,
    22.0,
    26.0,
    30.0,
)

#: Reference setpoint for the placement comparison, degC.
REFERENCE_CRAC_C = 22.0

#: Placement policies compared at the reference setpoint.
DEFAULT_PLACEMENTS: Tuple[str, ...] = ("paper", "coolest", "minhr")

#: Chassis-mix names in presentation order.
DEFAULT_MIXES: Tuple[str, ...] = ("coupled", "uncoupled", "mixed")

#: Diurnal profile: mean supply, swing amplitude, hour of peak heat.
DIURNAL_MEAN_C = 22.0
DIURNAL_SWING_C = 6.0
DIURNAL_PEAK_HOUR = 15


def _catalog_by_degree() -> Dict[int, DensityOptimizedSystem]:
    """First catalog system of each coupling degree, catalog order."""
    by_degree: Dict[int, DensityOptimizedSystem] = {}
    for system in TABLE_I_SYSTEMS:
        by_degree.setdefault(system.degree_of_coupling, system)
    return by_degree


def build_mix(name: str, n_chassis: int = 3) -> Room:
    """A named heterogeneous (or deliberately uniform) chassis mix.

    - ``"coupled"``: every chassis a strongly coupled Table-I system
      (degree >= 4 — the M700 cartridge class).
    - ``"uncoupled"``: every chassis an uncoupled (degree-1) system.
    - ``"mixed"``: chassis cycle through distinct coupling degrees,
      highest first (the :func:`~repro.fleet.registry.demo_fleet`
      recipe).

    All mixes share the same downwind-drift recirculation layout
    (exhaust migrating towards the end of the aisle), so the curves
    differ only through the chassis' internal coupling.
    """
    by_degree = _catalog_by_degree()
    degrees = sorted(by_degree, reverse=True)
    if name == "coupled":
        strong = [d for d in degrees if d >= 4]
        cycle = [by_degree[strong[0]]] if strong else []
    elif name == "uncoupled":
        cycle = [by_degree[1]] if 1 in by_degree else []
    elif name == "mixed":
        cycle = [by_degree[d] for d in degrees]
    else:
        known = ", ".join(DEFAULT_MIXES)
        raise ConfigurationError(
            f"unknown chassis mix {name!r}; known: {known}"
        )
    if not cycle:
        raise ConfigurationError(
            f"the Table-I catalog has no system for mix {name!r}"
        )
    chassis: List[ChassisSpec] = [
        spec_from_catalog(cycle[i % len(cycle)], f"{name}-{i}")
        for i in range(n_chassis)
    ]
    return Room(
        chassis=tuple(chassis),
        recirculation=downwind_recirculation(n_chassis),
    )


def diurnal_supply_c(hour: int) -> float:
    """CRAC supply temperature at one hour of the free-cooling day.

    A cosine profile peaking at :data:`DIURNAL_PEAK_HOUR` — the shape
    of an economizer whose supply air tracks outdoor temperature.
    """
    phase = 2.0 * math.pi * (hour - DIURNAL_PEAK_HOUR) / 24.0
    return DIURNAL_MEAN_C + DIURNAL_SWING_C * math.cos(phase)


@dataclass(frozen=True)
class DiurnalPoint:
    """Sustainable room load at one hour of the diurnal trace.

    Attributes:
        hour: Hour of day, 0-23.
        crac_supply_c: Free-cooling supply temperature at that hour.
        max_utilization: Sustainable room utilisation at that supply.
    """

    hour: int
    crac_supply_c: float
    max_utilization: float


@dataclass(frozen=True)
class RoomScenarioResult:
    """Everything the room experiment family reports.

    Attributes:
        curves: Sustainable-load curve per mix (CRAC-setpoint axis).
        placement_loads: ``{(mix, policy): sustainable load}`` at the
            reference setpoint.
        diurnal: Hourly sustainable-load envelope for ``diurnal_mix``.
        mixes: Mix names, presentation order.
        crac_setpoints_c: The swept setpoints.
        placements: Compared placement policies.
        reference_crac_c: Setpoint of the placement comparison.
        diurnal_mix: Mix the diurnal envelope was computed for.
        benchmark_set: Workload whose sustained power was applied.
    """

    curves: Dict[str, Tuple[RoomDeratingPoint, ...]]
    placement_loads: Dict[Tuple[str, str], float]
    diurnal: Tuple[DiurnalPoint, ...]
    mixes: Tuple[str, ...]
    crac_setpoints_c: Tuple[float, ...]
    placements: Tuple[str, ...]
    reference_crac_c: float
    diurnal_mix: str
    benchmark_set: BenchmarkSet

    def curve_rows(self) -> List[List[object]]:
        """One row per CRAC setpoint, one column per mix."""
        rows = []
        for i, setpoint in enumerate(self.crac_setpoints_c):
            row: List[object] = [f"{setpoint:.0f}"]
            for mix in self.mixes:
                row.append(f"{self.curves[mix][i].max_utilization:.3f}")
            rows.append(row)
        return rows

    def placement_rows(self) -> List[List[object]]:
        """One row per mix, one column per placement policy."""
        rows = []
        for mix in self.mixes:
            row: List[object] = [mix]
            for policy in self.placements:
                row.append(f"{self.placement_loads[(mix, policy)]:.3f}")
            rows.append(row)
        return rows

    def diurnal_rows(self) -> List[List[object]]:
        return [
            [p.hour, f"{p.crac_supply_c:.1f}", f"{p.max_utilization:.3f}"]
            for p in self.diurnal
        ]

    def to_json_dict(self) -> dict:
        """A JSON-serialisable view (the CI sustainable-load artifact)."""
        return {
            "benchmark_set": self.benchmark_set.value,
            "crac_setpoints_c": list(self.crac_setpoints_c),
            "curves": {
                mix: [
                    {
                        "crac_supply_c": p.crac_supply_c,
                        "max_utilization": p.max_utilization,
                    }
                    for p in points
                ]
                for mix, points in self.curves.items()
            },
            "placement_loads": {
                f"{mix}/{policy}": load
                for (mix, policy), load in sorted(
                    self.placement_loads.items()
                )
            },
            "reference_crac_c": self.reference_crac_c,
            "diurnal_mix": self.diurnal_mix,
            "diurnal": [
                {
                    "hour": p.hour,
                    "crac_supply_c": p.crac_supply_c,
                    "max_utilization": p.max_utilization,
                }
                for p in self.diurnal
            ],
        }


def run(
    config: Optional[ExperimentConfig] = None,
    mixes: Sequence[str] = DEFAULT_MIXES,
    crac_setpoints_c: Sequence[float] = DEFAULT_CRAC_SETPOINTS_C,
    placements: Sequence[str] = DEFAULT_PLACEMENTS,
    benchmark_set: BenchmarkSet = BenchmarkSet.COMPUTATION,
    n_chassis: int = 3,
    diurnal_mix: str = "mixed",
    diurnal_step_h: int = 2,
) -> RoomScenarioResult:
    """Run the full room scenario family.

    Args:
        config: Scale knobs — ``seed`` and ``audit`` are honoured
            (room solves are steady-state, so the horizon knobs do not
            apply); ``telemetry_dir`` mirrors every room solve into
            ``room.jsonl``.
        mixes: Chassis-mix names (see :func:`build_mix`).
        crac_setpoints_c: CRAC supply sweep for the curves.
        placements: Policies compared at the reference setpoint.
        benchmark_set: Workload whose sustained power is applied.
        n_chassis: Chassis per mix.
        diurnal_mix: Mix for the diurnal envelope.
        diurnal_step_h: Hour stride of the diurnal trace (2 keeps the
            default run light; 1 gives the full 24-point envelope).

    Raises:
        ConfigurationError: for a ``diurnal_step_h`` below 1, or an
            unknown mix (before any solve).
    """
    if diurnal_step_h < 1:
        raise ConfigurationError(
            f"diurnal_step_h must be >= 1, got {diurnal_step_h!r}"
        )
    config = config or ExperimentConfig()
    writer = None
    emit = None
    if config.telemetry_dir:
        from pathlib import Path

        from ..obs.writer import JsonlWriter

        writer = JsonlWriter(Path(config.telemetry_dir) / "room.jsonl")
        emit = writer.emit
    auditor = RoomInvariantAuditor() if config.audit else None

    def sustainable(room: Room, crac: float, placement: str) -> float:
        load = max_sustainable_room_load(
            room,
            crac,
            placement=placement,
            benchmark_set=benchmark_set,
            seed=config.seed,
            emit=emit,
        )
        if auditor is not None:
            from ..room.capacity import solve_room_cached
            from ..room.placement import place_room_load
            from ..analysis.capacity import sustained_dynamic_power_w

            dynamic = sustained_dynamic_power_w(benchmark_set)
            util = place_room_load(
                room,
                placement,
                load,
                crac_supply_c=crac,
                dyn_max_w=dynamic,
                seed=config.seed,
            )
            auditor.check(
                room,
                solve_room_cached(
                    room,
                    util,
                    dynamic,
                    crac,
                    seed=config.seed,
                ),
            )
        return load

    try:
        rooms = {name: build_mix(name, n_chassis) for name in mixes}
        diurnal_room = (
            rooms[diurnal_mix]
            if diurnal_mix in rooms
            else build_mix(diurnal_mix, n_chassis)
        )
        curves: Dict[str, Tuple[RoomDeratingPoint, ...]] = {}
        for name, room in rooms.items():
            curves[name] = tuple(
                room_derating_curve(
                    room,
                    crac_setpoints_c,
                    benchmark_set=benchmark_set,
                    seed=config.seed,
                    emit=emit,
                )
            )
            if auditor is not None:
                # Re-audit the converged operating point of each
                # curve's reference entry via the sustainable() path.
                sustainable(room, float(crac_setpoints_c[0]), "paper")
        placement_loads: Dict[Tuple[str, str], float] = {}
        for name, room in rooms.items():
            for policy in placements:
                placement_loads[(name, policy)] = sustainable(
                    room, REFERENCE_CRAC_C, policy
                )
        hours = range(0, 24, diurnal_step_h)
        diurnal = tuple(
            DiurnalPoint(
                hour=hour,
                crac_supply_c=diurnal_supply_c(hour),
                max_utilization=sustainable(
                    diurnal_room, diurnal_supply_c(hour), "paper"
                ),
            )
            for hour in hours
        )
    finally:
        if writer is not None:
            writer.close()
    return RoomScenarioResult(
        curves=curves,
        placement_loads=placement_loads,
        diurnal=diurnal,
        mixes=tuple(mixes),
        crac_setpoints_c=tuple(float(c) for c in crac_setpoints_c),
        placements=tuple(placements),
        reference_crac_c=REFERENCE_CRAC_C,
        diurnal_mix=diurnal_mix,
        benchmark_set=benchmark_set,
    )


def main() -> None:
    """Print the room scenario tables."""
    result = run()
    print("Sustainable room load vs CRAC supply temperature")
    print(
        format_table(
            ["CRAC degC"] + [f"{m}" for m in result.mixes],
            result.curve_rows(),
        )
    )
    print()
    print(
        f"Placement comparison at {result.reference_crac_c:.0f} degC "
        f"supply (sustainable room load)"
    )
    print(
        format_table(
            ["mix"] + list(result.placements), result.placement_rows()
        )
    )
    print()
    print(
        f"Diurnal free-cooling envelope ({result.diurnal_mix} mix)"
    )
    print(
        format_table(
            ["hour", "supply degC", "max load"], result.diurnal_rows()
        )
    )
