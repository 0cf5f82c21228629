"""Fault event types injected into a simulation run.

Each event is a small frozen dataclass describing one hardware fault:
what breaks, when it starts and (optionally) when it clears.  Events
carry *no* runtime state — the :class:`~repro.faults.injector.
FaultInjector` compiles a schedule of events into per-step transitions
at run start, so the same schedule replays bit-identically on every
run.

The modelled fault classes mirror the failure modes that matter for a
density optimized chassis (one shared air stream, uni-directional
coupling):

- :class:`FanLaneFault` — a fan lane degrades or fails, shrinking the
  airflow over one row (or one lane of a row).  Entry-temperature
  rises scale as ``1/airflow``, so an upwind socket's heat now hits
  every downwind socket harder — the cascade the paper's density
  argument is about.
- :class:`SensorFault` — one socket's temperature telemetry goes bad
  (constant bias, stuck at a value, or dropout with the last good
  reading held).  Scheduling policies then decide on *observed*
  temperatures while the physics keeps running on true ones.
- :class:`DVFSStuckFault` — a socket's DVFS ladder wedges at one
  state; the power manager's selection is overridden while the fault
  is active (the thermal-trip response still applies — a hardware
  trip bypasses the wedged ladder).
- :class:`SocketKillFault` — fail-stop socket death: the running job
  is evicted back into the central queue (losing its progress), the
  socket draws zero power and accepts no placements until the fault
  clears.
- :class:`PowerCapFault` — a transient server-wide power-cap event
  (PSU brownout, rack-level cap), enforced the way production RAPL
  caps settle: as a DVFS frequency ceiling over every socket.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigurationError


def _require_finite(field: str, value: float) -> None:
    if not math.isfinite(value):
        raise ConfigurationError(
            f"fault {field} must be finite, got {value}"
        )


@dataclass(frozen=True)
class FaultEvent:
    """Base fault event: an activation window on the simulation clock.

    Attributes:
        start_s: Activation time, seconds since simulation start.
        end_s: Deactivation time, seconds; ``None`` means the fault
            never clears (permanent for the rest of the run).
    """

    start_s: float = 0.0
    end_s: Optional[float] = None

    def __post_init__(self) -> None:
        _require_finite("start_s", self.start_s)
        if self.end_s is not None:
            _require_finite("end_s", self.end_s)
        if self.start_s < 0:
            raise ConfigurationError(
                f"fault start must be non-negative, got {self.start_s}"
            )
        if self.end_s is not None and self.end_s <= self.start_s:
            raise ConfigurationError(
                f"fault end {self.end_s} must be after start "
                f"{self.start_s}"
            )


@dataclass(frozen=True)
class FanLaneFault(FaultEvent):
    """Degraded or failed fan lane over one row (optionally one lane).

    Attributes:
        row: Affected cartridge row, 0-based.
        lane: Affected lane within the row, or ``None`` for every lane
            of the row (a shared row fan).
        scale: Residual airflow fraction in (0, 1]; ``1.0`` is healthy,
            ``0.5`` a half-degraded lane, small values a failed fan
            whose sockets only see bypass air from neighbours.  Zero is
            rejected — a literally sealed duct has no steady state in
            the first-law coupling model.
    """

    row: int = 0
    lane: Optional[int] = None
    scale: float = 0.5

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.row < 0:
            raise ConfigurationError("fan fault row must be >= 0")
        if self.lane is not None and self.lane < 0:
            raise ConfigurationError("fan fault lane must be >= 0")
        if not 0.0 < self.scale <= 1.0:
            raise ConfigurationError(
                f"fan fault scale must be in (0, 1], got {self.scale}"
            )


class SensorFaultMode(enum.Enum):
    """How a socket's temperature telemetry misbehaves."""

    #: Every reading is offset by a constant bias.
    BIAS = "bias"
    #: Every reading is replaced by one constant value.
    STUCK = "stuck"
    #: Readings freeze at the last good value before the fault.
    DROPOUT = "dropout"


@dataclass(frozen=True)
class SensorFault(FaultEvent):
    """Bad temperature telemetry on one socket.

    The fault sits between the physics and every *observer* of the
    socket's temperature channels (chip, sink, entry air, smoothed
    history): scheduling and migration policies see the corrupted
    readings, while the thermal model and the DVFS hardware loop keep
    operating on true temperatures (on-die DVFS uses its own analog
    sensor path).

    Attributes:
        socket_id: Affected socket.
        mode: Corruption mode (bias / stuck / dropout).
        bias_c: Additive offset for ``BIAS`` mode, degC (may be
            negative — a stuck-cold bias is the dangerous direction).
        stuck_c: Constant reading for ``STUCK`` mode, degC.
    """

    socket_id: int = 0
    mode: SensorFaultMode = SensorFaultMode.BIAS
    bias_c: float = 0.0
    stuck_c: Optional[float] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.socket_id < 0:
            raise ConfigurationError("sensor fault socket must be >= 0")
        _require_finite("bias_c", self.bias_c)
        if self.stuck_c is not None:
            _require_finite("stuck_c", self.stuck_c)
        if self.mode is SensorFaultMode.STUCK and self.stuck_c is None:
            raise ConfigurationError(
                "a stuck sensor fault needs stuck_c"
            )
        if self.mode is SensorFaultMode.BIAS and self.bias_c == 0.0:
            raise ConfigurationError(
                "a bias sensor fault needs a non-zero bias_c"
            )


@dataclass(frozen=True)
class DVFSStuckFault(FaultEvent):
    """A socket's DVFS ladder wedged at one state.

    While active, the power manager's per-step selection for this
    socket is overridden with ``stuck_mhz`` whenever the socket is
    busy.  The thermal-trip emergency response still applies: a
    hardware trip forces the floor state through a separate path, so a
    ladder stuck at boost cannot cook the chip indefinitely.

    Attributes:
        socket_id: Affected socket.
        stuck_mhz: The wedged ladder state, MHz (must be a real state
            of the processor's ladder — validated when the schedule is
            bound to a topology).
    """

    socket_id: int = 0
    stuck_mhz: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.socket_id < 0:
            raise ConfigurationError("DVFS fault socket must be >= 0")
        if self.stuck_mhz <= 0:
            raise ConfigurationError(
                "DVFS stuck frequency must be positive"
            )


@dataclass(frozen=True)
class SocketKillFault(FaultEvent):
    """Fail-stop death of one socket.

    On activation the running job (if any) is evicted back into the
    central queue and restarts from scratch when re-placed (fail-stop
    semantics: in-flight state is lost; the response-time metric
    carries the full penalty).  While dead the socket draws exactly
    zero power, is invisible to placement and migration, and its
    thermal nodes relax toward the local air temperature.  If
    ``end_s`` is set the socket returns to service cold.

    Attributes:
        socket_id: Affected socket.
    """

    socket_id: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.socket_id < 0:
            raise ConfigurationError("kill fault socket must be >= 0")


@dataclass(frozen=True)
class PowerCapFault(FaultEvent):
    """Transient server-wide power cap.

    Enforced as a DVFS ceiling: while active, no socket is granted a
    state above ``cap_mhz`` (the steady-state behaviour of a RAPL-style
    cap).  Must name a real ladder state — validated when the schedule
    is bound to a topology.

    Attributes:
        cap_mhz: Highest grantable frequency during the event, MHz.
    """

    cap_mhz: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.cap_mhz <= 0:
            raise ConfigurationError("power cap must be positive")
