"""Room-scale datacenter layer: CRAC + heat recirculation + co-control.

The source paper stops at the chassis inlet.  This package closes the
room loop around it: multiple heterogeneous Table-I chassis, a
MinHR-style heat-recirculation matrix, the CRAC supply temperature as
a controlled input (``inlet = T_crac + D @ P_exhaust``), a fixed-point
solver for the coupled room equilibrium, thermal-aware room placement
baselines, and CRAC-setpoint co-optimization of sustainable load —
the formulations of Sun et al. (arXiv 1410.3104) and Van Damme et al.
(arXiv 1611.00522).  See ``docs/architecture.md`` §13.
"""

from .capacity import (
    CracSetpointChoice,
    RoomDeratingPoint,
    max_sustainable_room_load,
    optimize_crac_setpoint,
    room_derating_curve,
    room_solve_key,
    solve_room_cached,
)
from .invariants import RoomInvariantAuditor, RoomInvariantViolation
from .model import (
    DEFAULT_DIVERGENCE_LIMIT_C,
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE_C,
    Room,
    RoomSolution,
    solve_room,
)
from .placement import ROOM_PLACEMENTS, place_room_load
from .recirculation import (
    RecirculationMatrix,
    downwind_recirculation,
    row_layout_recirculation,
    uniform_recirculation,
    zero_recirculation,
)

__all__ = [
    "CracSetpointChoice",
    "DEFAULT_DIVERGENCE_LIMIT_C",
    "DEFAULT_MAX_ITERATIONS",
    "DEFAULT_TOLERANCE_C",
    "ROOM_PLACEMENTS",
    "RecirculationMatrix",
    "Room",
    "RoomDeratingPoint",
    "RoomInvariantAuditor",
    "RoomInvariantViolation",
    "RoomSolution",
    "downwind_recirculation",
    "max_sustainable_room_load",
    "optimize_crac_setpoint",
    "place_room_load",
    "room_derating_curve",
    "room_solve_key",
    "solve_room",
    "solve_room_cached",
    "uniform_recirculation",
    "row_layout_recirculation",
    "zero_recirculation",
]
