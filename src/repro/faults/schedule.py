"""Deterministic fault schedules and the degradation-response policy.

A :class:`FaultSchedule` is an immutable bag of
:class:`~repro.faults.events.FaultEvent` objects plus a
:class:`FaultResponse` describing how the engine reacts (thermal-trip
throttling thresholds and the recovery envelopes the auditor asserts).
Schedules carry no runtime state, pickle cleanly across worker
processes, and expose a content :meth:`~FaultSchedule.fingerprint` so
caches, checkpoints and determinism tests can key on the *exact* fault
scenario.

Determinism contract: a schedule is data, never a generator — the
:meth:`FaultSchedule.random` constructor samples its events once from a
seeded :class:`numpy.random.Generator` and the resulting schedule
replays bit-identically however often it is run.  An *empty* schedule
is also legal and the engine guarantees a run under it is bit-identical
to a run with no fault machinery at all (the fingerprint-oracle tests
pin this).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from ..errors import ConfigurationError
from ..server.topology import ServerTopology
from .events import (
    DVFSStuckFault,
    FanLaneFault,
    FaultEvent,
    PowerCapFault,
    SensorFault,
    SensorFaultMode,
    SocketKillFault,
)


@dataclass(frozen=True)
class FaultResponse:
    """How the engine degrades gracefully when faults bite.

    The response has two halves.  The *trip machine* is the emergency
    throttle in the power manager: when a chip's **true** temperature
    exceeds ``temperature_limit_c + trip_margin_c`` (a hardware trip
    uses the on-die analog sensor, so sensor faults cannot blind it),
    the socket is forced to the ladder floor until it has both cooled
    ``trip_hysteresis_c`` below the trip point and spent at least
    ``trip_hold_s`` throttled.  The *envelopes* are what the
    fault-aware auditor asserts about that response: the floor state
    must be in force within ``trip_response_steps`` engine steps of the
    trip, and the chip must be back under the trip temperature after
    ``trip_recovery_taus`` heat-sink time constants (the sink mass,
    not the chip, sets the recovery timescale).

    Attributes:
        trip_margin_c: Trip threshold above the DVFS temperature
            limit, degC.  May be negative — tests use a margin below
            normal operating temperatures to force trips on demand.
        trip_hysteresis_c: Cooling below the trip point required to
            untrip, degC.
        trip_hold_s: Minimum time throttled before untripping, s.
        trip_response_steps: Engine steps the auditor allows between a
            trip and the floor state being observed.
        trip_recovery_taus: Heat-sink time constants the auditor
            allows before the chip must sit below the trip point.
    """

    trip_margin_c: float = 5.0
    trip_hysteresis_c: float = 3.0
    trip_hold_s: float = 0.25
    trip_response_steps: int = 1
    trip_recovery_taus: float = 2.0

    def __post_init__(self) -> None:
        if self.trip_hysteresis_c < 0:
            raise ConfigurationError("trip hysteresis must be >= 0")
        if self.trip_hold_s < 0:
            raise ConfigurationError("trip hold time must be >= 0")
        if self.trip_response_steps < 0:
            raise ConfigurationError("trip response steps must be >= 0")
        if self.trip_recovery_taus <= 0:
            raise ConfigurationError("trip recovery taus must be > 0")


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, reproducible set of fault events for one run.

    Attributes:
        events: The fault events, in the order they were declared
            (ties on the same activation step are applied in this
            order — part of the determinism contract).
        response: The graceful-degradation policy for the run.
    """

    events: Tuple[FaultEvent, ...] = ()
    response: FaultResponse = field(default_factory=FaultResponse)

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            if not isinstance(event, FaultEvent):
                raise ConfigurationError(
                    f"fault schedule entries must be FaultEvent "
                    f"instances, got {type(event).__name__}"
                )

    def __len__(self) -> int:
        return len(self.events)

    @property
    def empty(self) -> bool:
        """Whether the schedule contains no events."""
        return not self.events

    def token(self) -> bytes:
        """Canonical byte serialisation of the full schedule.

        Dataclass ``repr`` is deterministic for these frozen event
        types, so the token (and everything keyed on it — the sweep
        cache, checkpoints, fingerprints) is stable across processes
        and sessions.
        """
        parts = [repr(self.response).encode()]
        parts.extend(repr(event).encode() for event in self.events)
        return b"\x1f".join(parts)

    def fingerprint(self) -> str:
        """SHA-256 content hash of the schedule."""
        return hashlib.sha256(self.token()).hexdigest()

    def validate(self, topology: ServerTopology) -> None:
        """Check every event is realisable on ``topology``.

        Raises:
            ConfigurationError: for out-of-range sockets/rows/lanes or
                DVFS targets that are not ladder states.
        """
        n = topology.n_sockets
        states = set(topology.processor.ladder.states_mhz)
        for event in self.events:
            socket_id = getattr(event, "socket_id", None)
            if socket_id is not None and socket_id >= n:
                raise ConfigurationError(
                    f"{type(event).__name__} targets socket "
                    f"{socket_id}, topology has {n}"
                )
            if isinstance(event, FanLaneFault):
                if event.row >= topology.n_rows:
                    raise ConfigurationError(
                        f"fan fault row {event.row} out of range "
                        f"0..{topology.n_rows - 1}"
                    )
                if (
                    event.lane is not None
                    and event.lane >= topology.lanes_per_row
                ):
                    raise ConfigurationError(
                        f"fan fault lane {event.lane} out of range "
                        f"0..{topology.lanes_per_row - 1}"
                    )
            if isinstance(event, DVFSStuckFault):
                if event.stuck_mhz not in states:
                    raise ConfigurationError(
                        f"stuck frequency {event.stuck_mhz} MHz is not "
                        f"a ladder state of {topology.processor.name}"
                    )
            if isinstance(event, PowerCapFault):
                if event.cap_mhz not in states:
                    raise ConfigurationError(
                        f"power cap {event.cap_mhz} MHz is not a "
                        f"ladder state of {topology.processor.name}"
                    )

    @classmethod
    def random(
        cls,
        topology: ServerTopology,
        seed: int,
        n_events: int = 3,
        horizon_s: float = 10.0,
        response: "FaultResponse | None" = None,
    ) -> "FaultSchedule":
        """Sample a reproducible schedule for ``topology``.

        The same ``(topology, seed, n_events, horizon_s)`` always
        yields the identical schedule — event kinds, targets and times
        come from one seeded generator, never from wall-clock or
        process state.

        Args:
            topology: Geometry the events must be realisable on.
            seed: Seed for the event sampler.
            n_events: Number of events to sample.
            horizon_s: Run horizon the activation times are spread
                over; events start in the first 70% so their effects
                land inside the run.
        """
        if n_events < 0:
            raise ConfigurationError("n_events must be >= 0")
        if horizon_s <= 0:
            raise ConfigurationError("horizon must be positive")
        rng = np.random.default_rng(seed)
        ladder = topology.processor.ladder
        events = []
        kinds = ("fan", "sensor", "dvfs", "kill", "cap")
        for _ in range(n_events):
            kind = kinds[int(rng.integers(len(kinds)))]
            start = round(float(rng.uniform(0.0, 0.7)) * horizon_s, 4)
            # Half the events clear before the horizon, half persist.
            if rng.random() < 0.5:
                end = round(
                    start
                    + float(rng.uniform(0.1, 0.3)) * horizon_s,
                    4,
                )
            else:
                end = None
            if kind == "fan":
                events.append(
                    FanLaneFault(
                        start_s=start,
                        end_s=end,
                        row=int(rng.integers(topology.n_rows)),
                        lane=int(rng.integers(topology.lanes_per_row)),
                        scale=round(float(rng.uniform(0.3, 0.8)), 3),
                    )
                )
            elif kind == "sensor":
                mode = (
                    SensorFaultMode.BIAS,
                    SensorFaultMode.STUCK,
                    SensorFaultMode.DROPOUT,
                )[int(rng.integers(3))]
                events.append(
                    SensorFault(
                        start_s=start,
                        end_s=end,
                        socket_id=int(
                            rng.integers(topology.n_sockets)
                        ),
                        mode=mode,
                        bias_c=round(
                            float(rng.uniform(-15.0, 15.0)), 2
                        )
                        or 1.0,
                        stuck_c=round(float(rng.uniform(30.0, 80.0)), 2)
                        if mode is SensorFaultMode.STUCK
                        else None,
                    )
                )
            elif kind == "dvfs":
                states = ladder.states_mhz
                events.append(
                    DVFSStuckFault(
                        start_s=start,
                        end_s=end,
                        socket_id=int(
                            rng.integers(topology.n_sockets)
                        ),
                        stuck_mhz=float(
                            states[int(rng.integers(len(states)))]
                        ),
                    )
                )
            elif kind == "kill":
                events.append(
                    SocketKillFault(
                        start_s=start,
                        end_s=end,
                        socket_id=int(
                            rng.integers(topology.n_sockets)
                        ),
                    )
                )
            else:
                non_top = ladder.states_mhz[:-1] or ladder.states_mhz
                events.append(
                    PowerCapFault(
                        start_s=start,
                        end_s=end,
                        cap_mhz=float(
                            non_top[int(rng.integers(len(non_top)))]
                        ),
                    )
                )
        return cls(
            events=tuple(events),
            response=response or FaultResponse(),
        )
