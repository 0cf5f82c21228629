"""The structured telemetry event schema.

Every line of a telemetry JSONL stream is one *event*: a flat JSON
object carrying the schema version (``"v"``), the event type
(``"type"``) and the type's required payload fields.  The schema is
deliberately small and stable — downstream tooling (the
:mod:`repro.metrics.obs_report` summariser, the CI checker in
:mod:`repro.obs.check`, external trace consumers) validates against
:data:`EVENT_TYPES` and must keep working across engine refactors.

Schema evolution contract:

- adding a new event *type* or a new *optional* field is
  backward-compatible and does not bump :data:`SCHEMA_VERSION`;
- removing/renaming a type or required field, or changing a field's
  meaning, bumps :data:`SCHEMA_VERSION`;
- consumers must ignore unknown optional fields (validation here only
  checks the required ones), so writers may attach extra context.

Events carry *simulation* timestamps (``step``, ``t``) — never
wall-clock readings — so a telemetry-enabled run stays bit-for-bit
reproducible and two runs of the same configuration produce identical
event streams.

Every layer publishes through an :class:`EventBus`, which validates
each event once and hands it to its subscribers.
"""

from __future__ import annotations

import math
from collections.abc import Mapping as _MappingABC
from typing import Callable, Dict, List, Mapping, Tuple

from ..errors import ObservabilityError

#: Version stamped into every event line (see module docstring for the
#: compatibility contract).
SCHEMA_VERSION = 1

#: Required payload fields per event type: ``name -> allowed types``.
#: ``float`` fields also accept ints (JSON does not distinguish 1.0
#: from 1 after a round-trip through integral values).
EVENT_TYPES: Dict[str, Dict[str, Tuple[type, ...]]] = {
    # -- engine-run lifecycle ------------------------------------------
    "run_start": {
        "run": (str,),
        "scheduler": (str,),
        "seed": (int,),
        "n_sockets": (int,),
        "n_steps": (int,),
    },
    "run_end": {
        "run": (str,),
        "n_completed": (int,),
        "energy_j": (float, int),
        "max_queue_length": (int,),
    },
    # -- per-step engine events ----------------------------------------
    "placement": {
        "step": (int,),
        "t": (float, int),
        "job_id": (int,),
        "socket": (int,),
    },
    "migration": {
        "step": (int,),
        "t": (float, int),
        "source": (int,),
        "destination": (int,),
    },
    "dvfs_throttle": {
        "step": (int,),
        "t": (float, int),
        "n_throttled": (int,),
    },
    "thermal_trip": {
        "step": (int,),
        "t": (float, int),
        "socket": (int,),
    },
    "fault_activation": {
        "step": (int,),
        "t": (float, int),
        "fault": (str,),
        "activating": (bool,),
    },
    "eviction": {
        "step": (int,),
        "t": (float, int),
        "socket": (int,),
        "job_id": (int,),
    },
    # No writer: logs from earlier builds still contain it.
    "window_skip": {
        "step": (int,),
        "t": (float, int),
        "n_steps": (int,),
        "n_substeps": (int,),
    },
    # -- sweep-harness events ------------------------------------------
    "sweep_start": {
        "n_points": (int,),
        "n_resolved": (int,),
    },
    "sweep_end": {
        "n_points": (int,),
    },
    "point_done": {
        "index": (int,),
        "scheduler": (str,),
        "benchmark_set": (str,),
        "load": (float, int),
    },
    "cache_hit": {
        "index": (int,),
        "key": (str,),
    },
    "checkpoint_write": {
        "index": (int,),
        "key": (str,),
    },
    "pool_retry": {
        "round": (int,),
        "remaining": (int,),
    },
    "pool_timeout": {
        "index": (int,),
        "attempt": (int,),
    },
    # -- fleet-coordinator events --------------------------------------
    # Emitted by repro.fleet: one stream per coordinator, covering the
    # request lifecycle (submit -> answer | shed), worker supervision
    # (heartbeats, state transitions, restarts) and degraded serving.
    # All times are coordinator-clock seconds (virtual under chaos), so
    # a seeded chaos run reproduces the stream bit-for-bit.
    "fleet_start": {
        "n_workers": (int,),
        "n_chassis": (int,),
        "seed": (int,),
        "max_queue": (int,),
    },
    "fleet_end": {
        "t": (float, int),
        "n_answered": (int,),
        "n_shed": (int,),
    },
    "fleet_submit": {
        "t": (float, int),
        "request_id": (int,),
        "kind": (str,),
        "request_class": (str,),
        "chassis": (str,),
        "queue_len": (int,),
    },
    "fleet_answer": {
        "t": (float, int),
        "request_id": (int,),
        "status": (str,),
        "attempts": (int,),
    },
    "fleet_shed": {
        "t": (float, int),
        "request_id": (int,),
        "request_class": (str,),
        "reason": (str,),
    },
    "fleet_heartbeat": {
        "t": (float, int),
        "worker": (str,),
        "seq": (int,),
    },
    "fleet_worker_state": {
        "t": (float, int),
        "worker": (str,),
        "old": (str,),
        "new": (str,),
    },
    "fleet_restart": {
        "t": (float, int),
        "worker": (str,),
        "attempt": (int,),
        "backoff_s": (float, int),
        "cold": (bool,),
    },
    "fleet_degraded": {
        "t": (float, int),
        "request_id": (int,),
        "chassis": (str,),
        "staleness_s": (float, int),
    },
    "fleet_drop": {
        "t": (float, int),
        "request_id": (int,),
        "reason": (str,),
    },
    # One event per query batch answered by the worker it was
    # dispatched to.  Every dispatch is a batch (see
    # repro.fleet.coordinator FleetConfig batch_window_s/max_batch);
    # under the defaults each is a one-member batch.  ``size`` is the
    # member count, ``window_wait_s`` how long the oldest member
    # waited between becoming dispatchable and dispatch, ``queue_len``
    # the queue depth right after the batch left it, and the warm
    # counters are the warm-field cache hits/misses the batch consumed
    # on the worker.
    "fleet_batch": {
        "t": (float, int),
        "worker": (str,),
        "chassis": (str,),
        "size": (int,),
        "window_wait_s": (float, int),
        "queue_len": (int,),
        "warm_hits": (int,),
        "warm_misses": (int,),
    },
    # -- room-layer events ---------------------------------------------
    # Emitted by the room fixed-point solver (repro.room.model): one
    # solve_start per solve, one iteration event per fixed-point pass,
    # and exactly one terminal converged/diverged event.  Iterations
    # are 1-based; ``recirculation`` is the recirculation matrix's
    # content fingerprint, tying the stream to an exact room.
    "room_solve_start": {
        "n_chassis": (int,),
        "crac_supply_c": (float, int),
        "recirculation": (str,),
    },
    "room_iteration": {
        "iteration": (int,),
        "residual_c": (float, int),
        "max_chip_c": (float, int),
    },
    "room_converged": {
        "n_iterations": (int,),
        "residual_c": (float, int),
        "max_chip_c": (float, int),
    },
    "room_diverged": {
        "n_iterations": (int,),
        "residual_c": (float, int),
        "reason": (str,),
    },
}


def make_event(type_: str, **fields) -> dict:
    """Build a validated event dict for one schema type.

    Raises:
        ObservabilityError: for an unknown type or a payload missing a
            required field (extra fields are allowed — see the schema
            evolution contract).
    """
    event = {"v": SCHEMA_VERSION, "type": type_}
    event.update(fields)
    validate_event(event)
    return event


class EventBus:
    """Validate each event once and hand it to every subscriber.

    A subscriber is any ``Callable[[dict], None]`` (``JsonlWriter.emit``,
    ``list.append``, a room ``emit=`` sink); all receive the same dict,
    in order on the emitting thread, and must not mutate it.  The bus
    closes nothing.
    """

    def __init__(self) -> None:
        self._subscribers: List[Callable[[dict], None]] = []

    def subscribe(self, handler: Callable[[dict], None]) -> None:
        """Deliver every later event to ``handler``."""
        self._subscribers.append(handler)

    def emit(self, type_: str, **fields) -> None:
        """Validate one event, even with no subscriber, and deliver it.

        Raises:
            ObservabilityError: as :func:`make_event`.
        """
        event = make_event(type_, **fields)
        for handler in self._subscribers:
            handler(event)


def validate_event(event: Mapping) -> None:
    """Check one event against the schema.

    Raises:
        ObservabilityError: describing the first violation found —
            wrong container type, missing/mismatched version, unknown
            event type, missing required field, field of the wrong JSON
            type, or a non-finite float (NaN/Infinity are not portable
            JSON and would poison downstream parsers).
    """
    # The abc check (not typing.Mapping, whose __instancecheck__ costs
    # tens of microseconds) keeps validation off the serving hot path;
    # plain dicts — every event the engine itself builds — short-circuit.
    if not isinstance(event, (dict, _MappingABC)):
        raise ObservabilityError(
            f"event must be an object, got {type(event).__name__}"
        )
    version = event.get("v")
    if version != SCHEMA_VERSION:
        raise ObservabilityError(
            f"event schema version {version!r} is not the supported "
            f"version {SCHEMA_VERSION}"
        )
    type_ = event.get("type")
    spec = EVENT_TYPES.get(type_)
    if spec is None:
        known = ", ".join(sorted(EVENT_TYPES))
        raise ObservabilityError(
            f"unknown event type {type_!r} (known: {known})"
        )
    for name, allowed in spec.items():
        if name not in event:
            raise ObservabilityError(
                f"{type_} event is missing required field {name!r}"
            )
        value = event[name]
        # bool is an int subclass; only accept it where bool is listed.
        if isinstance(value, bool) and bool not in allowed:
            raise ObservabilityError(
                f"{type_} field {name!r} must be "
                f"{'/'.join(t.__name__ for t in allowed)}, got bool"
            )
        if not isinstance(value, allowed):
            raise ObservabilityError(
                f"{type_} field {name!r} must be "
                f"{'/'.join(t.__name__ for t in allowed)}, "
                f"got {type(value).__name__}"
            )
    for name, value in event.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ObservabilityError(
                f"{type_} field {name!r} is non-finite ({value!r})"
            )
