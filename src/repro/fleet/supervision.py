"""Worker supervision: heartbeats, restart budgets, quarantine.

Each worker process is shadowed by a :class:`WorkerSupervisor` — a
pure, clock-driven state machine (all methods take ``now``; nothing
reads wall-clock) so the same inputs always produce the same event
sequence, which is what lets the chaos harness pin supervision
behaviour bit-for-bit.

States and transitions::

    STARTING --first heartbeat--> HEALTHY
    HEALTHY  --deadline missed--> SUSPECT
    SUSPECT  --heartbeat-------> HEALTHY
    SUSPECT  --grace expired---> RESTARTING   (backoff, budget--)
    STARTING --grace expired---> RESTARTING
    any live --process exit----> RESTARTING
    RESTARTING --budget gone---> QUARANTINED  (terminal)
    RESTARTING --backoff done--> STARTING

A worker that keeps flapping burns through its restart budget under
capped exponential backoff and is demoted to ``QUARANTINED``: the
supervisor stops restarting it, and the coordinator serves that
chassis from its last snapshot (tagged stale) instead.

The heartbeat cadence is configurable per deployment via
``--heartbeat-interval`` (default 1 s); non-positive or non-finite
values are rejected with a :class:`~repro.errors.ConfigurationError`
naming the field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from ..errors import ConfigurationError


class WorkerState(Enum):
    """Supervision state of one worker."""

    STARTING = "starting"
    HEALTHY = "healthy"
    SUSPECT = "suspect"
    RESTARTING = "restarting"
    QUARANTINED = "quarantined"


#: Transitions the state machine may legally take (old -> new).  The
#: invariant checker validates logged ``fleet_worker_state`` events
#: against this set.
LEGAL_TRANSITIONS = frozenset(
    {
        (WorkerState.STARTING, WorkerState.HEALTHY),
        (WorkerState.STARTING, WorkerState.RESTARTING),
        (WorkerState.STARTING, WorkerState.QUARANTINED),
        (WorkerState.HEALTHY, WorkerState.SUSPECT),
        (WorkerState.HEALTHY, WorkerState.RESTARTING),
        (WorkerState.HEALTHY, WorkerState.QUARANTINED),
        (WorkerState.SUSPECT, WorkerState.HEALTHY),
        (WorkerState.SUSPECT, WorkerState.RESTARTING),
        (WorkerState.SUSPECT, WorkerState.QUARANTINED),
        (WorkerState.RESTARTING, WorkerState.STARTING),
    }
)


@dataclass(frozen=True)
class SupervisionPolicy:
    """Tunables of the supervision state machine.

    Attributes:
        heartbeat_interval_s: Expected heartbeat cadence (positive).
        missed_heartbeats: Consecutive missed beats before a HEALTHY
            worker turns SUSPECT.
        restart_backoff_s: Base of the exponential restart backoff.
        restart_backoff_cap_s: Ceiling of the backoff.
        max_restarts: Restart budget; exceeding it quarantines the
            worker.

    Raises:
        ConfigurationError: for an out-of-range value, or a non-finite
            float field (the message names the field).
    """

    heartbeat_interval_s: float = 1.0
    missed_heartbeats: int = 3
    restart_backoff_s: float = 0.5
    restart_backoff_cap_s: float = 8.0
    max_restarts: int = 3

    def __post_init__(self) -> None:
        for name in (
            "heartbeat_interval_s",
            "restart_backoff_s",
            "restart_backoff_cap_s",
        ):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(
                    f"{name} must be finite, got {value!r}"
                )
        if self.heartbeat_interval_s <= 0:
            raise ConfigurationError(
                "heartbeat_interval_s must be positive, got "
                f"{self.heartbeat_interval_s!r}"
            )
        if self.missed_heartbeats < 1:
            raise ConfigurationError("missed_heartbeats must be >= 1")
        if self.restart_backoff_s < 0:
            raise ConfigurationError("restart backoff must be >= 0")
        if self.restart_backoff_cap_s < self.restart_backoff_s:
            raise ConfigurationError(
                "restart backoff cap must be >= the base backoff"
            )
        if self.max_restarts < 0:
            raise ConfigurationError("max_restarts must be >= 0")

    @property
    def heartbeat_deadline_s(self) -> float:
        """Silence tolerated before a worker turns SUSPECT."""
        return self.heartbeat_interval_s * self.missed_heartbeats

    def backoff_for(self, attempt: int) -> float:
        """Capped exponential backoff before restart ``attempt``."""
        return min(
            self.restart_backoff_s * 2 ** max(attempt - 1, 0),
            self.restart_backoff_cap_s,
        )


@dataclass
class WorkerSupervisor:
    """Clock-driven supervision state for one worker.

    The supervisor never touches the worker itself: the coordinator
    observes transitions (``check``/``note_exit`` return ``True`` when
    the worker went down, so in-flight work can be recovered) and
    performs the actual kill/start through the worker handle.

    Attributes:
        worker_id: Whom we are supervising.
        policy: The shared supervision tunables.
        emit: Event sink ``(type, **fields)`` for
            ``fleet_worker_state`` transitions.
    """

    worker_id: str
    policy: SupervisionPolicy
    emit: Callable[..., None]
    state: WorkerState = WorkerState.STARTING
    last_heartbeat_t: float = 0.0
    last_seq: int = -1
    restarts: int = 0
    incarnation: int = 0
    next_restart_t: Optional[float] = None
    started_t: float = 0.0

    def _transition(self, now: float, new: WorkerState) -> None:
        old = self.state
        if old is new:
            return
        self.state = new
        self.emit(
            "fleet_worker_state",
            t=float(now),
            worker=self.worker_id,
            old=old.value,
            new=new.value,
        )

    # -- inputs ---------------------------------------------------------

    def observe_heartbeat(self, now: float, seq: int) -> None:
        """A heartbeat arrived; stale (non-increasing) seqs are ignored."""
        if self.state in (WorkerState.RESTARTING, WorkerState.QUARANTINED):
            return  # a corpse's buffered beats prove nothing
        if seq <= self.last_seq:
            return
        self.last_seq = seq
        self.last_heartbeat_t = now
        if self.state in (WorkerState.STARTING, WorkerState.SUSPECT):
            self._transition(now, WorkerState.HEALTHY)

    def note_exit(self, now: float) -> bool:
        """The worker process died outright; returns True (it is down)."""
        if self.state in (WorkerState.RESTARTING, WorkerState.QUARANTINED):
            return False
        self._schedule_restart(now)
        return True

    def check(self, now: float) -> bool:
        """Run deadline detection; returns True if the worker went down.

        HEALTHY workers that miss their heartbeat deadline turn
        SUSPECT; SUSPECT (and never-heartbeating STARTING) workers that
        stay silent for a further deadline are declared dead and a
        restart is scheduled.
        """
        deadline = self.policy.heartbeat_deadline_s
        if self.state is WorkerState.HEALTHY:
            if now - self.last_heartbeat_t > deadline:
                self._transition(now, WorkerState.SUSPECT)
            return False
        if self.state is WorkerState.SUSPECT:
            if now - self.last_heartbeat_t > 2 * deadline:
                self._schedule_restart(now)
                return True
            return False
        if self.state is WorkerState.STARTING:
            if now - self.started_t > 2 * deadline:
                self._schedule_restart(now)
                return True
        return False

    # -- restart lifecycle ----------------------------------------------

    def _schedule_restart(self, now: float) -> None:
        self.restarts += 1
        if self.restarts > self.policy.max_restarts:
            self._transition(now, WorkerState.QUARANTINED)
            self.next_restart_t = None
            return
        self._transition(now, WorkerState.RESTARTING)
        self.next_restart_t = now + self.policy.backoff_for(self.restarts)

    def due_restart(self, now: float) -> bool:
        """Whether the backoff has elapsed and a restart should run."""
        return (
            self.state is WorkerState.RESTARTING
            and self.next_restart_t is not None
            and now >= self.next_restart_t
        )

    def on_restarted(self, now: float, cold: bool) -> None:
        """The coordinator restarted the worker process.

        ``cold=True`` records that checkpoint recovery failed (e.g. a
        :class:`~repro.errors.CheckpointCorruptionError`) and the
        worker came up with fresh state.
        """
        self.emit(
            "fleet_restart",
            t=float(now),
            worker=self.worker_id,
            attempt=self.restarts,
            backoff_s=float(self.policy.backoff_for(self.restarts)),
            cold=bool(cold),
        )
        self.incarnation += 1
        self.last_seq = -1
        self.started_t = now
        self.next_restart_t = None
        self._transition(now, WorkerState.STARTING)

    @property
    def serving(self) -> bool:
        """Whether new requests may be dispatched to this worker."""
        return self.state in (WorkerState.HEALTHY, WorkerState.STARTING)

    @property
    def down(self) -> bool:
        """Whether the worker is definitively not executing anything."""
        return self.state in (
            WorkerState.RESTARTING,
            WorkerState.QUARANTINED,
        )
