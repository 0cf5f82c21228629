"""The fleet coordinator: bounded queueing, dispatch, degraded serving.

:class:`FleetCoordinator` is the deterministic core shared by the
asyncio service (:mod:`repro.fleet.service`) and the virtual-time
runner of the chaos harness and load generator
(:func:`repro.fleet.chaos.run_virtual`).  It is a *clock-driven* state
machine: all behaviour happens inside :meth:`submit` and :meth:`tick`
calls that receive ``now`` explicitly, nothing reads wall-clock or OS
entropy, and workers are reached only through the
:class:`WorkerHandle` protocol — so the same registry, seed, chaos
schedule and tick cadence reproduce the same supervision event
sequence bit-for-bit.

The drive contract, the same for every driver:

- :meth:`submit` admits (or sheds, or fails) one query.  With no
  batching window (``batch_window_s == 0``, the default) it also ships
  the query if a worker has a free slot;
- :meth:`tick` drains worker messages (answers, heartbeats,
  snapshots), supervises, expires timed-out requests, restarts
  workers whose backoff is over, and ships whatever queued queries can
  go, including batching chunks that are full or whose window expired.

Guarantees (checked by :mod:`repro.fleet.invariants` under chaos):

- **Exactly one terminal answer per request.**  Every admitted or
  shed request ends in precisely one ``fleet_answer`` or
  ``fleet_shed`` event; late answers from abandoned attempts are
  dropped (``fleet_drop``), never double-delivered.
- **Bounded queue.**  Neither admission nor a retry grows the queue
  beyond ``max_queue``; overflow sheds by request class (BATCH first —
  an INTERACTIVE arrival evicts queued BATCH work before being shed
  itself), and a retry that finds the queue full is resolved from the
  snapshot (or FAILED) with reason ``queue_full``.
- **Bounded staleness.**  Degraded answers carry the age of the
  serving snapshot, and are refused (FAILED) beyond
  ``max_staleness_s``.
- **No duplicate side effects.**  Queries are pure reads, so a retry
  against a replica cannot double-execute anything observable; the
  coordinator still guarantees the *answer* is delivered once.

**One record per request.**  An admitted request is one record from
admission to its terminal answer: it waits in ``queue``, moves to
``inflight`` when shipped and back to the head of the queue on a
retry.  The record carries the caller's callback and, once shipped,
its worker, that worker's incarnation, its attempt deadline and the
small batch record it shares with its batch-mates.

**Micro-batching.**  Every dispatch ships a
:class:`~repro.fleet.messages.QueryBatch`, answered in a single
:meth:`~repro.fleet.compute.ChassisCompute.answer_batch` pass.  The
dispatch step coalesces compatible queued queries per target worker:
a query may be *held* in the queue for up to ``batch_window_s`` after
becoming dispatchable, and whatever coalesced ships as one batch.  A
chunk is full, and ships at once, at ``min(max_batch,
max_inflight_per_worker)`` members: the in-flight cap counts members,
so no chunk grows past it.  The batch is purely a transport/compute
grouping: every member keeps its own record, deadline, retry budget,
exclusion set and exactly-one-terminal-answer guarantee, and held
members remain ordinary queue entries (still subject to queue
timeouts and class-based shedding).  With the defaults
(``batch_window_s=0``, ``max_batch=1``) each query ships as a
one-member batch as soon as it is dispatchable and a worker has a free
slot: at admission, or at the first tick after that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Dict, List, Optional, Protocol, Set, Tuple

import numpy as np

from ..errors import FleetError
from ..obs.events import EventBus
from .compute import ChassisSnapshot, degraded_payload
from .messages import (
    AnswerStatus,
    FleetAnswer,
    QueryBatch,
    RequestClass,
)
from .registry import FleetRegistry
from .supervision import SupervisionPolicy, WorkerState, WorkerSupervisor

class WorkerHandle(Protocol):
    """What the coordinator needs from a worker transport.

    Implementations: the fork-based process handle in
    :mod:`repro.fleet.worker` and the virtual-time simulated handle in
    :mod:`repro.fleet.chaos`.
    """

    worker_id: str

    def start(self, now: float) -> Optional[bool]:
        """(Re)start the worker.

        Returns the cold-recovery flag when known synchronously
        (simulated workers), or ``None`` when it will arrive later as
        a ``("hello", cold)`` message (process workers).
        """

    def stop(self, now: float) -> None:
        """Kill the worker; any in-flight work is lost."""

    def send_batch(self, batch: QueryBatch, now: float) -> None:
        """Deliver one query batch."""

    def poll(self, now: float) -> List[Tuple]:
        """Messages ready at ``now``: ``("heartbeat", seq)``,
        ``("answer_batch", batch_id, entries, stats)`` with entries a
        list of ``(request_id, payload)`` pairs, ``("snapshot", snap)``,
        ``("hello", cold)`` or ``("exit",)``."""


@dataclass(frozen=True)
class FleetConfig:
    """Coordinator tunables.

    Attributes:
        max_queue: Bound on the admission queue (backpressure).
        max_inflight_per_worker: Dispatch window per worker.
        request_timeout_s: Dispatch-to-answer deadline per attempt.
        queue_timeout_s: Admission-to-terminal deadline; a request the
            fleet cannot dispatch within it is resolved degraded (or
            FAILED) rather than waiting forever.
        max_attempts: Worker dispatch attempts before falling back to
            the snapshot path.
        retry_jitter_s: Upper bound of the seeded uniform jitter added
            before a retry is eligible for dispatch (de-synchronises
            retry storms without breaking determinism).
        max_staleness_s: Oldest snapshot a degraded answer may serve.
        seed: Seed of the coordinator's jitter RNG.
        log_heartbeats: Emit a ``fleet_heartbeat`` event per beat
            (chaos/test runs); long-running services turn this off.
        batch_window_s: Micro-batching coalescing window: how long a
            dispatchable query may be held waiting for companions
            (finite, >= 0).
        max_batch: Most members per :class:`~repro.fleet.messages.
            QueryBatch` (>= 1).  The defaults, window 0 and max 1,
            ship every query as a one-member batch.

    Raises:
        FleetError: for an out-of-range value, or a non-finite float
            field (the message names the field).
    """

    max_queue: int = 64
    max_inflight_per_worker: int = 4
    request_timeout_s: float = 5.0
    queue_timeout_s: float = 10.0
    max_attempts: int = 2
    retry_jitter_s: float = 0.2
    max_staleness_s: float = 60.0
    seed: int = 0
    log_heartbeats: bool = True
    batch_window_s: float = 0.0
    max_batch: int = 1

    def __post_init__(self) -> None:
        for name in (
            "request_timeout_s",
            "queue_timeout_s",
            "retry_jitter_s",
            "max_staleness_s",
            "batch_window_s",
        ):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise FleetError(f"{name} must be finite, got {value!r}")
        if self.max_queue < 1:
            raise FleetError("max_queue must be >= 1")
        if self.max_inflight_per_worker < 1:
            raise FleetError("max_inflight_per_worker must be >= 1")
        if self.request_timeout_s <= 0 or self.queue_timeout_s <= 0:
            raise FleetError("timeouts must be positive")
        if self.max_attempts < 1:
            raise FleetError("max_attempts must be >= 1")
        if self.retry_jitter_s < 0:
            raise FleetError("retry jitter must be >= 0")
        if self.max_staleness_s <= 0:
            raise FleetError("max_staleness_s must be positive")
        if self.batch_window_s < 0:
            raise FleetError(
                f"batch_window_s must be >= 0, got {self.batch_window_s!r}"
            )
        if self.max_batch < 1:
            raise FleetError(
                f"max_batch must be >= 1, got {self.max_batch!r}"
            )


@dataclass(eq=False)
class _Batch:
    """What one shipped batch reports, shared by its members' records.

    Its ``fleet_batch`` event is emitted once (``reported``), on the
    first reply that still finds a member in flight on this batch from
    the dispatching incarnation.  Only its members reach it, so it goes
    with the last of them.
    """

    batch_id: int
    size: int
    window_wait_s: float
    queue_len: int = 0
    reported: bool = False


@dataclass(eq=False)
class _Request:
    """One admitted request, from admission to its terminal answer.

    Attributes:
        request_id: Coordinator-assigned id.
        query: The caller's query.
        submitted_t: Admission time; the queue deadline is
            ``submitted_t + queue_timeout_s``, retries included.
        callback: Called once with the terminal answer, if given.
        ready_t: When the request became dispatchable (admission, or
            retry eligibility): the reference point the batching window
            measures waiting against.
        attempts: Worker dispatch attempts so far, the one in flight
            included.
        exclude: Workers the next dispatch must avoid.
        worker_id: Worker of the latest attempt.
        incarnation: That worker's incarnation when it was sent.
        deadline_t: Answer deadline of the latest attempt.
        batch: The batch of the latest attempt.
    """

    request_id: int
    query: object
    submitted_t: float
    callback: Optional[Callable[[FleetAnswer], None]] = None
    ready_t: float = 0.0
    attempts: int = 0
    exclude: Tuple[str, ...] = ()
    worker_id: str = ""
    incarnation: int = 0
    deadline_t: float = 0.0
    batch: Optional[_Batch] = None


@dataclass
class FleetCoordinator:
    """Deterministic fleet coordination over abstract worker handles.

    Every driver runs one schedule: :meth:`start`, :meth:`submit` as
    queries arrive (shipping at once when no window holds them),
    :meth:`tick` at a fixed cadence, :meth:`finish`.  The queue never
    holds more than ``config.max_queue`` requests, retries included.

    Each admitted request is one record, in exactly one place until it
    is terminal: ``queue`` (waiting, in dispatch order) or ``inflight``
    (keyed by request id; ``inflight[rid].worker_id`` names the worker
    running it).  Its terminal answer then stays in ``answers``.

    Attributes:
        registry: The fleet layout.
        handles: Worker transports keyed by worker id (one per
            registry worker).
        policy: Supervision tunables shared by all workers.
        config: Coordinator tunables.
        bus: :class:`~repro.obs.events.EventBus` of the coordinator's
            and its supervisors' events (default: no subscriber).  The
            coordinator keeps no event history.
        finished: Set by :meth:`finish`; no call takes work after it.
        peak_queue_len: The longest the queue has been.
    """

    registry: FleetRegistry
    handles: Dict[str, WorkerHandle]
    policy: SupervisionPolicy = dataclass_field(
        default_factory=SupervisionPolicy
    )
    config: FleetConfig = dataclass_field(default_factory=FleetConfig)
    bus: Optional[EventBus] = None

    def __post_init__(self) -> None:
        missing = [
            w.worker_id
            for w in self.registry.workers
            if w.worker_id not in self.handles
        ]
        if missing:
            raise FleetError(f"no handle for workers {missing}")
        if self.bus is None:
            self.bus = EventBus()
        self.supervisors: Dict[str, WorkerSupervisor] = {
            w.worker_id: WorkerSupervisor(
                worker_id=w.worker_id,
                policy=self.policy,
                emit=self.bus.emit,
            )
            for w in self.registry.workers
        }
        self._worker_order = [w.worker_id for w in self.registry.workers]
        self._chassis_of = {
            w.worker_id: w.chassis_id for w in self.registry.workers
        }
        self.queue: List[_Request] = []
        self.inflight: Dict[int, _Request] = {}
        self.answers: Dict[int, FleetAnswer] = {}
        self.snapshots: Dict[str, Tuple[ChassisSnapshot, float]] = {}
        self._rng = np.random.default_rng(self.config.seed)
        self._next_id = 0
        self._awaiting_hello: set = set()
        self._started = False
        self.finished = False
        self.peak_queue_len = 0
        self._next_batch_id = 0

    # -- lifecycle ------------------------------------------------------

    def start(self, now: float = 0.0) -> None:
        """Start every worker and open the event stream."""
        if self._started:
            raise FleetError("coordinator already started")
        self._started = True
        self.bus.emit(
            "fleet_start",
            n_workers=self.registry.n_workers,
            n_chassis=self.registry.n_chassis,
            seed=int(self.config.seed),
            max_queue=int(self.config.max_queue),
            # Optional extra (schema contract allows it): lets the
            # invariant checker bound staleness from the log alone.
            max_staleness_s=float(self.config.max_staleness_s),
        )
        for wid in self._worker_order:
            self.supervisors[wid].started_t = now
            # The initial start's cold-recovery flag is not an event:
            # only *restarts* report recovery provenance.
            self.handles[wid].start(now)

    def finish(self, now: float) -> None:
        """Resolve everything still pending and close the stream.

        Raises:
            FleetError: if not started, or already finished.
        """
        # Drain one last time so answers racing the shutdown land.
        self.tick(now)
        self.finished = True
        stranded = [self.inflight[rid] for rid in sorted(self.inflight)]
        stranded += sorted(self.queue, key=lambda r: r.request_id)
        self.inflight.clear()
        self.queue.clear()
        for record in stranded:
            self._resolve_unservable(record, now, "shutdown")
        n_shed = sum(
            1
            for a in self.answers.values()
            if a.status is AnswerStatus.SHED
        )
        self.bus.emit(
            "fleet_end",
            t=float(now),
            n_answered=len(self.answers) - n_shed,
            n_shed=n_shed,
        )
        for wid in self._worker_order:
            self.handles[wid].stop(now)

    def _check_running(self) -> None:
        if not self._started:
            raise FleetError("coordinator not started")
        if self.finished:
            raise FleetError("coordinator finished")

    # -- submission & backpressure --------------------------------------

    def submit(
        self,
        query,
        now: float,
        callback: Optional[Callable[[FleetAnswer], None]] = None,
    ) -> int:
        """Admit (or shed) one query; returns its request id.

        With no batching window an admitted query ships within this
        call if a worker has a free slot; otherwise it waits in the
        queue for a :meth:`tick`.  The answer arrives through
        ``callback`` (and :attr:`answers`) once terminal — possibly
        within this very call, when the request is shed at admission or
        fails it (an unknown chassis, or a utilization vector whose
        length is not the chassis' socket count).

        Raises:
            FleetError: if not started, or finished.
        """
        self._check_running()
        record = _Request(
            request_id=self._next_id,
            query=query,
            submitted_t=now,
            callback=callback,
            ready_t=now,
        )
        self._next_id += 1
        failure = self._admission_failure(query)
        if failure is not None:
            self._log_submit(record, now)
            self._complete(record, AnswerStatus.FAILED, now, reason=failure)
            return record.request_id
        if len(self.queue) >= self.config.max_queue:
            victim = self._shed_victim(query.request_class)
            if victim is None:
                # Shed the arrival itself: a SHED answer.
                self._log_submit(record, now)
                self._shed(record, "queue_full", now)
                return record.request_id
            self.queue.remove(victim)
            self._shed(victim, "evicted_for_interactive", now)
        self.queue.append(record)
        self.peak_queue_len = max(self.peak_queue_len, len(self.queue))
        self._log_submit(record, now)
        if self.config.batch_window_s == 0:
            self._dispatch(now)
        return record.request_id

    def _log_submit(self, record: _Request, now: float) -> None:
        query = record.query
        self.bus.emit(
            "fleet_submit",
            t=float(now),
            request_id=record.request_id,
            kind=query.kind,
            request_class=query.request_class.value,
            chassis=str(query.chassis),
            queue_len=len(self.queue),
        )

    def _admission_failure(self, query) -> Optional[str]:
        """Why ``query`` can never be answered, or None if it can."""
        spec = self.registry.chassis.get(query.chassis)
        if spec is None:
            return f"unknown chassis {query.chassis!r}"
        utilization = getattr(query, "utilization", None)
        if utilization is not None and len(utilization) != spec.n_sockets:
            return (
                f"chassis {query.chassis!r} has {spec.n_sockets} sockets, "
                f"got {len(utilization)} utilization values"
            )
        return None

    def _shed_victim(self, incoming: RequestClass) -> Optional[_Request]:
        """The queued BATCH request an INTERACTIVE arrival may evict."""
        if incoming is not RequestClass.INTERACTIVE:
            return None
        for record in reversed(self.queue):
            if record.query.request_class is RequestClass.BATCH:
                return record
        return None

    def _shed(self, record: _Request, reason: str, now: float) -> None:
        self.bus.emit(
            "fleet_shed",
            t=float(now),
            request_id=record.request_id,
            request_class=record.query.request_class.value,
            reason=reason,
        )
        self._complete(record, AnswerStatus.SHED, now, reason=reason)

    # -- the drive loop -------------------------------------------------

    def tick(self, now: float) -> None:
        """Advance coordination to ``now`` (idempotent per instant).

        Raises:
            FleetError: if not started, or finished.
        """
        self._check_running()
        self._drain_workers(now)
        self._check_supervision(now)
        self._expire_inflight(now)
        self._expire_queue(now)
        self._run_restarts(now)
        self._dispatch(now)

    def _drain_workers(self, now: float) -> None:
        for wid in self._worker_order:
            sup = self.supervisors[wid]
            for msg in self.handles[wid].poll(now):
                kind = msg[0]
                if kind == "heartbeat":
                    sup.observe_heartbeat(now, int(msg[1]))
                    if (
                        self.config.log_heartbeats
                        and not sup.down
                    ):
                        self.bus.emit(
                            "fleet_heartbeat",
                            t=float(now),
                            worker=wid,
                            seq=int(msg[1]),
                        )
                elif kind == "answer_batch":
                    self._on_answer_batch(
                        wid, msg[1], msg[2], msg[3], now
                    )
                elif kind == "snapshot":
                    snap = msg[1]
                    self.snapshots[snap.chassis_id] = (snap, now)
                elif kind == "hello":
                    if wid in self._awaiting_hello:
                        self._awaiting_hello.discard(wid)
                        sup.on_restarted(now, cold=bool(msg[1]))
                elif kind == "exit":
                    if sup.note_exit(now):
                        self._recover_inflight(wid, now)

    def _running_on(self, wid: str, rid: int) -> Optional[_Request]:
        """Request ``rid`` if its attempt runs on ``wid``'s current
        incarnation, else None."""
        record = self.inflight.get(rid)
        if (
            record is None
            or record.worker_id != wid
            or record.incarnation != self.supervisors[wid].incarnation
        ):
            return None
        return record

    def _on_answer_batch(
        self,
        wid: str,
        bid: int,
        entries: List[Tuple[int, dict]],
        stats: dict,
        now: float,
    ) -> None:
        """One batch reply: report the batch once, then deliver members.

        The batch's ``fleet_batch`` event goes out on the first reply
        that still finds a member in flight on it from the dispatching
        incarnation, so a batch whose worker died or whose members were
        all abandoned emits nothing.  Each member's answer counts only
        while its request runs on this incarnation of ``wid``; a late
        answer from an abandoned attempt or a previous incarnation is
        dropped, visibly, so batching leaves exactly-once delivery
        untouched.
        """
        live = (self._running_on(wid, int(rid)) for rid, _ in entries)
        batch = next(
            (r.batch for r in live if r is not None and r.batch.batch_id == bid),
            None,
        )
        if batch is not None and not batch.reported:
            batch.reported = True
            self.bus.emit(
                "fleet_batch",
                t=float(now),
                worker=wid,
                chassis=self._chassis_of[wid],
                size=int(batch.size),
                window_wait_s=float(batch.window_wait_s),
                queue_len=int(batch.queue_len),
                warm_hits=int(stats.get("warm_hits", 0)),
                warm_misses=int(stats.get("warm_misses", 0)),
            )
        for rid, payload in entries:
            record = self._running_on(wid, int(rid))
            if record is None:
                self.bus.emit(
                    "fleet_drop",
                    t=float(now),
                    request_id=int(rid),
                    reason="late_answer",
                )
                continue
            del self.inflight[record.request_id]
            self._complete(
                record,
                AnswerStatus.OK,
                now,
                payload=payload,
                attempts=record.attempts,
            )

    def _check_supervision(self, now: float) -> None:
        for wid in self._worker_order:
            sup = self.supervisors[wid]
            if sup.check(now):
                self.handles[wid].stop(now)
                self._recover_inflight(wid, now)

    def _recover_inflight(self, wid: str, now: float) -> None:
        """Requeue (or resolve) the requests a dead worker was running."""
        for rid in sorted(self.inflight):
            record = self.inflight[rid]
            if record.worker_id == wid:
                self._abandon(record, now, exclude=())

    def _expire_inflight(self, now: float) -> None:
        for rid in sorted(self.inflight):
            record = self.inflight[rid]
            if now > record.deadline_t:
                # The worker is presumably hung on this request; abandon
                # the attempt (a late answer will be dropped) and retry
                # on a replica only — never the same worker.
                self._abandon(record, now, exclude=(record.worker_id,))

    def _abandon(
        self, record: _Request, now: float, exclude: Tuple[str, ...]
    ) -> None:
        """Take a lost attempt out of flight and put it back at the head
        of the queue, or resolve it: out of attempts, or with the queue
        at ``max_queue``."""
        del self.inflight[record.request_id]
        if record.attempts >= self.config.max_attempts:
            reason = "retries_exhausted"
        elif len(self.queue) >= self.config.max_queue:
            reason = "queue_full"
        else:
            jitter = float(
                self._rng.uniform(0.0, self.config.retry_jitter_s)
            )
            record.ready_t = now + jitter
            record.exclude = exclude
            self.queue.insert(0, record)
            self.peak_queue_len = max(
                self.peak_queue_len, len(self.queue)
            )
            return
        self._resolve_unservable(record, now, reason)

    def _expire_queue(self, now: float) -> None:
        timeout = self.config.queue_timeout_s
        for record in [
            r for r in self.queue if now > r.submitted_t + timeout
        ]:
            self.queue.remove(record)
            self._resolve_unservable(record, now, "queue_timeout")

    def _run_restarts(self, now: float) -> None:
        for wid in self._worker_order:
            sup = self.supervisors[wid]
            if not sup.due_restart(now):
                continue
            cold = self.handles[wid].start(now)
            if cold is None:
                self._awaiting_hello.add(wid)
                # The restart event is emitted when the hello (with
                # its cold-recovery flag) arrives.
            else:
                sup.on_restarted(now, cold=bool(cold))

    def _dispatch(self, now: float) -> None:
        """Coalesce dispatchable queries per worker; flush by window.

        Worker eligibility is decided per query: replica exclusions,
        serving state and the inflight cap, counting members
        tentatively grouped in this call.  A worker's group flushes in
        full chunks of ``min(max_batch, max_inflight_per_worker)``
        members (the cap counts members, so no chunk grows past it); a
        partial chunk flushes only once its oldest member has waited
        ``batch_window_s`` since becoming dispatchable, and otherwise
        stays in the queue (in order, still governed by queue timeouts
        and shedding).
        """
        full = min(
            self.config.max_batch, self.config.max_inflight_per_worker
        )
        inflight_count: Dict[str, int] = {
            wid: 0 for wid in self._worker_order
        }
        for record in self.inflight.values():
            inflight_count[record.worker_id] += 1
        groups: Dict[str, List[_Request]] = {}
        gone: Set[int] = set()
        for record in self.queue:
            if record.ready_t > now:
                continue
            workers = self.registry.workers_for(record.query.chassis)
            target = None
            all_quarantined = True
            for worker in workers:
                sup = self.supervisors[worker.worker_id]
                if sup.state is not WorkerState.QUARANTINED:
                    all_quarantined = False
                if worker.worker_id in record.exclude:
                    continue
                if not sup.serving:
                    continue
                if (
                    inflight_count[worker.worker_id]
                    >= self.config.max_inflight_per_worker
                ):
                    continue
                target = worker.worker_id
                break
            if target is not None:
                groups.setdefault(target, []).append(record)
                inflight_count[target] += 1
            elif all_quarantined:
                gone.add(record.request_id)
                self._resolve_unservable(record, now, "chassis_quarantined")
        sent: List[_Batch] = []
        for wid in self._worker_order:
            members = groups.get(wid)
            while members:
                chunk = members[:full]
                oldest_wait = now - min(m.ready_t for m in chunk)
                if (
                    len(chunk) < full
                    and oldest_wait < self.config.batch_window_s
                ):
                    break  # hold the partial chunk for companions
                sent.append(self._send_batch(chunk, wid, oldest_wait, now))
                gone.update(m.request_id for m in chunk)
                members = members[full:]
        if gone:
            self.queue = [
                r for r in self.queue if r.request_id not in gone
            ]
        for batch in sent:
            batch.queue_len = len(self.queue)

    def _send_batch(
        self,
        members: List[_Request],
        wid: str,
        window_wait_s: float,
        now: float,
    ) -> _Batch:
        """Move the members in flight on ``wid`` and ship one QueryBatch."""
        incarnation = self.supervisors[wid].incarnation
        batch = _Batch(
            batch_id=self._next_batch_id,
            size=len(members),
            window_wait_s=float(window_wait_s),
        )
        self._next_batch_id += 1
        for record in members:
            record.worker_id = wid
            record.incarnation = incarnation
            record.deadline_t = now + self.config.request_timeout_s
            record.attempts += 1
            record.batch = batch
            self.inflight[record.request_id] = record
        self.handles[wid].send_batch(
            QueryBatch(
                batch_id=batch.batch_id,
                chassis=self._chassis_of[wid],
                request_ids=tuple(m.request_id for m in members),
                queries=tuple(m.query for m in members),
            ),
            now,
        )
        return batch

    # -- terminal resolution --------------------------------------------

    def _resolve_unservable(
        self, record: _Request, now: float, reason: str
    ) -> None:
        """No live worker can answer: degrade from snapshot, or fail."""
        query = record.query
        held = self.snapshots.get(query.chassis)
        if held is not None:
            snap, received_t = held
            staleness = now - received_t
            if staleness <= self.config.max_staleness_s:
                self.bus.emit(
                    "fleet_degraded",
                    t=float(now),
                    request_id=record.request_id,
                    chassis=query.chassis,
                    staleness_s=float(staleness),
                )
                self._complete(
                    record,
                    AnswerStatus.DEGRADED,
                    now,
                    payload=degraded_payload(snap, query),
                    staleness_s=float(staleness),
                    attempts=record.attempts,
                    reason=reason,
                )
                return
            reason = f"{reason}; snapshot stale ({staleness:.1f}s)"
        else:
            reason = f"{reason}; no snapshot"
        self._complete(
            record,
            AnswerStatus.FAILED,
            now,
            attempts=record.attempts,
            reason=reason,
        )

    def _complete(
        self, record: _Request, status: AnswerStatus, now: float, **fields
    ) -> None:
        """Store the one terminal answer, log it and call the caller
        back.  A SHED answer is logged by its ``fleet_shed`` event."""
        rid = record.request_id
        if rid in self.answers:  # pragma: no cover - guarded upstream
            raise FleetError(
                f"request {rid} already has a terminal answer"
            )
        answer = FleetAnswer(request_id=rid, status=status, **fields)
        self.answers[rid] = answer
        if status is not AnswerStatus.SHED:
            self.bus.emit(
                "fleet_answer",
                t=float(now),
                request_id=rid,
                status=status.value,
                attempts=int(answer.attempts),
            )
        if record.callback is not None:
            record.callback(answer)

    # -- introspection --------------------------------------------------

    @property
    def pending(self) -> int:
        """Requests admitted but not yet terminal."""
        return len(self.queue) + len(self.inflight)

    def worker_states(self) -> Dict[str, str]:
        """Current supervision state per worker (for status output)."""
        return {
            wid: self.supervisors[wid].state.value
            for wid in self._worker_order
        }
