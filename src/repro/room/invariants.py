"""Room-level invariant auditing (the room analogue of the engine's
:class:`~repro.sim.invariants.InvariantAuditor`).

A converged :class:`~repro.room.model.RoomSolution` makes physical
promises the downstream capacity curves silently depend on.  The
auditor re-derives each one from the raw arrays and raises a typed
:class:`RoomInvariantViolation` naming the first broken envelope:

- every array finite;
- no inlet below the CRAC supply temperature (recirculated exhaust
  can only *heat* an inlet);
- the converged inlets actually satisfy the fixed-point equation
  ``inlet = T_crac + D @ P_exhaust`` within the solve tolerance
  (:data:`repro.room.model.TOLERANCE_C`);
- within every chassis the steady ordering ``chip >= sink >=
  ambient >= inlet`` holds (each stage only adds heat);
- chassis exhaust is at least the gated floor (power-gated sockets
  still leak their gated draw) and matches the field's power sum;
- the recorded residual trail ends at or below the solve tolerance;
- optionally, no chip above an operator redline (the DVFS limit plus
  trip margin for trip-safety audits).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import RoomError
from . import model
from .model import Room, RoomSolution, _topology_for

#: Slack absorbing accumulated float rounding in the re-derivations.
NUMERIC_SLACK = 1e-9


class RoomInvariantViolation(RoomError):
    """A room solution broke a physical envelope it promised to hold."""


class RoomInvariantAuditor:
    """Checks a converged room solution against its physical envelopes.

    The fixed-point recheck and the residual trail allow the drift of
    the solve's own convergence tolerance,
    :data:`repro.room.model.TOLERANCE_C`, read at each check.

    Attributes:
        redline_c: Optional hard ceiling on any chip temperature —
            ``None`` skips the redline envelope (capacity searches
            probe past the limit on purpose).
    """

    def __init__(self, redline_c: Optional[float] = None) -> None:
        self.redline_c = redline_c

    def check(self, room: Room, solution: RoomSolution) -> None:
        """Audit one solution; raises on the first broken envelope.

        Raises:
            RoomInvariantViolation: naming the envelope and chassis.
        """
        self._check_finite(solution)
        tolerance = model.TOLERANCE_C
        crac = solution.crac_supply_c
        cold = solution.inlet_c - crac
        if (cold < -NUMERIC_SLACK).any():
            worst = int(np.argmin(cold))
            raise RoomInvariantViolation(
                f"chassis {worst} inlet {solution.inlet_c[worst]:.4f} "
                f"degC is below the CRAC supply {crac:.4f} degC"
            )
        rise = room.recirculation.inlet_rise(solution.exhaust_w)
        drift = np.abs(solution.inlet_c - (crac + rise))
        if (drift > tolerance + NUMERIC_SLACK).any():
            worst = int(np.argmax(drift))
            raise RoomInvariantViolation(
                f"chassis {worst} inlet drifts {drift[worst]:.3g} degC "
                f"from the fixed point (tolerance {tolerance:.3g})"
            )
        if not solution.residuals_c:
            raise RoomInvariantViolation("solution records no residuals")
        if solution.residuals_c[-1] > tolerance + NUMERIC_SLACK:
            raise RoomInvariantViolation(
                f"final residual {solution.residuals_c[-1]:.3g} degC "
                f"is above tolerance {tolerance:.3g}"
            )
        for i, (spec, field) in enumerate(
            zip(room.chassis, solution.fields)
        ):
            inlet = solution.inlet_c[i]
            if (field.ambient_c < inlet - NUMERIC_SLACK).any():
                raise RoomInvariantViolation(
                    f"chassis {i} has an entry temperature below its "
                    f"own inlet {inlet:.4f} degC"
                )
            if (field.sink_c < field.ambient_c - NUMERIC_SLACK).any():
                raise RoomInvariantViolation(
                    f"chassis {i} has a sink colder than its entry air"
                )
            if (field.chip_c < field.sink_c - 0.5).any():
                # theta(P) may dip slightly negative at extreme power;
                # P * r_int dominates, so a materially inverted
                # chip/sink pair still means a broken solve.
                raise RoomInvariantViolation(
                    f"chassis {i} has a chip materially colder than "
                    f"its sink"
                )
            topology = _topology_for(spec)
            floor = float(topology.gated_power_array.sum())
            exhaust = float(solution.exhaust_w[i])
            if exhaust < floor - NUMERIC_SLACK:
                raise RoomInvariantViolation(
                    f"chassis {i} exhaust {exhaust:.3f} W is below its "
                    f"gated floor {floor:.3f} W"
                )
            total = float(np.sum(field.power_w))
            if abs(exhaust - total) > NUMERIC_SLACK:
                raise RoomInvariantViolation(
                    f"chassis {i} exhaust {exhaust:.6f} W disagrees "
                    f"with its field power sum {total:.6f} W"
                )
        if self.redline_c is not None:
            chips = solution.max_chip_c
            if (chips > self.redline_c).any():
                worst = int(np.argmax(chips))
                raise RoomInvariantViolation(
                    f"chassis {worst} chip {chips[worst]:.2f} degC "
                    f"exceeds the redline {self.redline_c:.2f} degC"
                )

    def _check_finite(self, solution: RoomSolution) -> None:
        arrays = [
            ("inlet_c", solution.inlet_c),
            ("exhaust_w", solution.exhaust_w),
        ]
        for i, field in enumerate(solution.fields):
            arrays.extend(
                (f"fields[{i}].{name}", getattr(field, name))
                for name in ("power_w", "ambient_c", "sink_c", "chip_c")
            )
        for name, values in arrays:
            if not np.isfinite(values).all():
                raise RoomInvariantViolation(
                    f"non-finite values in {name}"
                )
