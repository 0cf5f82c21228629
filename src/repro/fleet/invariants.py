"""Liveness and safety invariants over fleet supervision logs.

:func:`check_fleet_events` audits a sequence of ``fleet_*`` events —
straight off a :class:`~repro.fleet.coordinator.FleetCoordinator` or
re-read from a ``fleet.jsonl`` log — and returns human-readable
problem strings (empty list = clean).  The chaos tests and the CI
``fleet-chaos-smoke`` job both assert on it, and
:mod:`repro.obs.check` runs it over any telemetry log that contains
fleet events, so a regression in the coordinator's guarantees fails
the same gate as a schema violation.

Invariants checked:

- **Exactly one terminal per request** (liveness *and* safety): every
  ``fleet_submit`` is matched by precisely one ``fleet_answer`` or
  ``fleet_shed``; no terminal references an unknown request.
- **Bounded queue**: no ``fleet_submit.queue_len`` ever exceeds the
  ``max_queue`` declared in ``fleet_start``.
- **Bounded staleness**: every ``fleet_degraded.staleness_s`` is
  non-negative and (when ``fleet_start`` declares the bound) within
  ``max_staleness_s``.
- **Legal supervision transitions**: every ``fleet_worker_state``
  event is a
  :data:`~repro.fleet.supervision.LEGAL_TRANSITIONS` member, applied
  to the state the worker was actually in.
- **Monotonic heartbeats**: per worker, heartbeat sequence numbers
  strictly increase within an incarnation and only reset after a
  ``fleet_restart``.
- **Sane batches**: every ``fleet_batch`` has a positive member count
  within the coordinator's batching bound (when declared), a
  non-negative window wait, non-negative warm-cache counters, and a
  queue depth within ``max_queue`` — and batching never weakens the
  one-terminal-per-request guarantee above (members answer
  individually).
- **Ordering**: events appear in non-decreasing time order, nothing
  precedes ``fleet_start`` and nothing follows ``fleet_end``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional

from .supervision import LEGAL_TRANSITIONS, WorkerState

#: Event types this module knows how to audit.
FLEET_EVENT_PREFIX = "fleet_"

#: Terminal event types — each request must see exactly one of these.
TERMINAL_TYPES = ("fleet_answer", "fleet_shed")


def check_fleet_events(events: Iterable[Mapping]) -> List[str]:
    """Audit fleet events; returns problem descriptions (empty = ok).

    Non-fleet events in the stream are ignored, so the checker can run
    directly over a mixed telemetry log.
    """
    problems: List[str] = []
    max_queue: Optional[int] = None
    max_staleness: Optional[float] = None
    terminals: Dict[int, List[str]] = {}
    submitted: Dict[int, int] = {}  # request id -> submit line no.
    worker_state: Dict[str, WorkerState] = {}
    last_seq: Dict[str, int] = {}
    last_t: Optional[float] = None
    started = False
    ended_at: Optional[int] = None

    for lineno, event in enumerate(events, start=1):
        type_ = str(event.get("type", ""))
        if not type_.startswith(FLEET_EVENT_PREFIX):
            continue
        if type_ == "fleet_start":
            started = True
        elif not started:
            problems.append(f"event {lineno}: {type_} before fleet_start")
        if ended_at is not None:
            problems.append(
                f"event {lineno}: {type_} after fleet_end "
                f"(event {ended_at})"
            )
        t = event.get("t")
        if t is not None:
            if last_t is not None and float(t) < last_t:
                problems.append(
                    f"event {lineno}: time went backwards "
                    f"({t} < {last_t})"
                )
            last_t = float(t)

        if type_ == "fleet_start":
            max_queue = int(event["max_queue"])
            if "max_staleness_s" in event:
                max_staleness = float(event["max_staleness_s"])
        elif type_ == "fleet_end":
            ended_at = lineno
        elif type_ == "fleet_submit":
            rid = int(event["request_id"])
            if rid in submitted:
                problems.append(
                    f"event {lineno}: request {rid} submitted twice"
                )
            submitted[rid] = lineno
            queue_len = int(event["queue_len"])
            if max_queue is not None and queue_len > max_queue:
                problems.append(
                    f"event {lineno}: queue_len {queue_len} exceeds "
                    f"max_queue {max_queue}"
                )
        elif type_ in TERMINAL_TYPES:
            rid = int(event["request_id"])
            terminals.setdefault(rid, []).append(type_)
        elif type_ == "fleet_degraded":
            staleness = float(event["staleness_s"])
            if staleness < 0:
                problems.append(
                    f"event {lineno}: negative staleness {staleness}"
                )
            if max_staleness is not None and staleness > max_staleness:
                problems.append(
                    f"event {lineno}: staleness {staleness:.3f}s "
                    f"exceeds bound {max_staleness:.3f}s"
                )
        elif type_ == "fleet_batch":
            size = int(event["size"])
            if size < 1:
                problems.append(
                    f"event {lineno}: batch of size {size}"
                )
            window_wait = float(event["window_wait_s"])
            if window_wait < 0:
                problems.append(
                    f"event {lineno}: negative batch window wait "
                    f"{window_wait}"
                )
            if (
                int(event["warm_hits"]) < 0
                or int(event["warm_misses"]) < 0
            ):
                problems.append(
                    f"event {lineno}: negative warm-cache counters"
                )
            queue_len = int(event["queue_len"])
            if queue_len < 0 or (
                max_queue is not None and queue_len > max_queue
            ):
                problems.append(
                    f"event {lineno}: batch queue_len {queue_len} "
                    f"outside [0, {max_queue}]"
                )
        elif type_ == "fleet_heartbeat":
            worker = str(event["worker"])
            seq = int(event["seq"])
            if worker in last_seq and seq <= last_seq[worker]:
                problems.append(
                    f"event {lineno}: worker {worker} heartbeat seq "
                    f"{seq} does not increase past {last_seq[worker]}"
                )
            last_seq[worker] = seq
        elif type_ == "fleet_restart":
            worker = str(event["worker"])
            last_seq.pop(worker, None)  # new incarnation restarts at 0
        elif type_ == "fleet_worker_state":
            worker = str(event["worker"])
            try:
                old = WorkerState(str(event["old"]))
                new = WorkerState(str(event["new"]))
            except ValueError:
                problems.append(
                    f"event {lineno}: unknown worker state in "
                    f"{event['old']!r} -> {event['new']!r}"
                )
                continue
            current = worker_state.get(worker, WorkerState.STARTING)
            if old is not current:
                problems.append(
                    f"event {lineno}: worker {worker} transition "
                    f"claims old state {old.value!r} but the worker "
                    f"was {current.value!r}"
                )
            if (old, new) not in LEGAL_TRANSITIONS:
                problems.append(
                    f"event {lineno}: illegal transition "
                    f"{old.value} -> {new.value} for worker {worker}"
                )
            worker_state[worker] = new

    for rid, kinds in sorted(terminals.items()):
        if rid not in submitted:
            problems.append(
                f"request {rid}: terminal {kinds[0]} without a "
                f"fleet_submit"
            )
        if len(kinds) > 1:
            problems.append(
                f"request {rid}: {len(kinds)} terminal events "
                f"({', '.join(kinds)}); exactly one is allowed"
            )
    for rid, lineno in sorted(submitted.items()):
        if rid not in terminals:
            problems.append(
                f"request {rid} (submitted at event {lineno}) never "
                f"reached a terminal answer"
            )
    return problems


def check_fleet_log(path) -> List[str]:
    """Run :func:`check_fleet_events` over a JSONL telemetry log."""
    path = Path(path)
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return check_fleet_events(events)


def has_fleet_events(events: Iterable[Mapping]) -> bool:
    """Whether any event in the stream is a fleet event."""
    return any(
        str(event.get("type", "")).startswith(FLEET_EVENT_PREFIX)
        for event in events
    )
