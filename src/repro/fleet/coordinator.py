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

**Micro-batching.**  Every dispatch ships a
:class:`~repro.fleet.messages.QueryBatch`, answered in a single
:meth:`~repro.fleet.compute.ChassisCompute.answer_batch` pass.  The
dispatch step coalesces compatible queued queries per target worker:
a query may be *held* in the queue for up to ``batch_window_s`` after
becoming dispatchable, and whatever coalesced — up to ``max_batch``
members — ships as one batch.  The batch is purely a transport/compute
grouping: every member keeps its own inflight record, deadline, retry
budget, exclusion set and exactly-one-terminal-answer guarantee, and
held members remain ordinary queue entries (still subject to queue
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


@dataclass
class _Queued:
    """One request waiting for dispatch.

    ``ready_t`` is when the request became dispatchable (admission, or
    retry eligibility) — the reference point the batching window
    measures waiting against.
    """

    request_id: int
    query: object
    request_class: RequestClass
    submitted_t: float
    deadline_t: float
    not_before: float = 0.0
    attempts: int = 0
    exclude: Tuple[str, ...] = ()
    ready_t: float = 0.0


@dataclass
class _Inflight:
    """One request executing on a worker."""

    request_id: int
    query: object
    request_class: RequestClass
    worker_id: str
    incarnation: int
    submitted_t: float
    deadline_t: float
    attempts: int
    batch_id: Optional[int] = None


@dataclass
class _BatchMeta:
    """Dispatch record of one query batch, awaiting its reply.

    ``members`` tracks which member requests are still attributed to
    the batch; abandoning a member (timeout, worker death, shutdown)
    removes it, and a meta whose members all vanished is discarded so
    the table stays bounded.  The ``fleet_batch`` event is emitted
    when (and only when) the matching reply arrives from the same
    worker incarnation.
    """

    batch_id: int
    worker_id: str
    chassis: str
    incarnation: int
    size: int
    window_wait_s: float
    members: Set[int]
    queue_len: int = 0


@dataclass
class FleetCoordinator:
    """Deterministic fleet coordination over abstract worker handles.

    Every driver runs one schedule: :meth:`start`, :meth:`submit` as
    queries arrive (shipping at once when no window holds them),
    :meth:`tick` at a fixed cadence, :meth:`finish`.  The queue never
    holds more than ``config.max_queue`` requests, retries included.

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
        self.queue: List[_Queued] = []
        self.inflight: Dict[int, _Inflight] = {}
        self.answers: Dict[int, FleetAnswer] = {}
        self.snapshots: Dict[str, Tuple[ChassisSnapshot, float]] = {}
        self._callbacks: Dict[int, Callable[[FleetAnswer], None]] = {}
        self._rng = np.random.default_rng(self.config.seed)
        self._next_id = 0
        self._awaiting_hello: set = set()
        self._started = False
        self.finished = False
        self.peak_queue_len = 0
        self._next_batch_id = 0
        self._batches: Dict[int, _BatchMeta] = {}

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
        for record in [
            self.inflight[rid] for rid in sorted(self.inflight)
        ]:
            del self.inflight[record.request_id]
            self._drop_batch_member(record)
            self._resolve_unservable(
                record.request_id,
                record.query,
                record.attempts,
                now,
                "shutdown",
            )
        for queued in sorted(self.queue, key=lambda q: q.request_id):
            self._resolve_unservable(
                queued.request_id,
                queued.query,
                queued.attempts,
                now,
                "shutdown",
            )
        self.queue.clear()
        self._batches.clear()
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
        rid = self._next_id
        self._next_id += 1
        if callback is not None:
            self._callbacks[rid] = callback
        cls = query.request_class
        chassis = query.chassis
        failure = self._admission_failure(query)
        if failure is not None:
            self.bus.emit(
                "fleet_submit",
                t=float(now),
                request_id=rid,
                kind=query.kind,
                request_class=cls.value,
                chassis=str(chassis),
                queue_len=len(self.queue),
            )
            self._complete(
                rid,
                FleetAnswer(
                    request_id=rid,
                    status=AnswerStatus.FAILED,
                    reason=failure,
                ),
                now,
            )
            return rid
        if len(self.queue) >= self.config.max_queue:
            victim = self._shed_victim(cls)
            if victim is None:
                # Shed the arrival itself: a SHED answer.
                self.bus.emit(
                    "fleet_submit",
                    t=float(now),
                    request_id=rid,
                    kind=query.kind,
                    request_class=cls.value,
                    chassis=chassis,
                    queue_len=len(self.queue),
                )
                self._shed(rid, cls, "queue_full", now)
                return rid
            self.queue.remove(victim)
            self._shed(
                victim.request_id,
                victim.request_class,
                "evicted_for_interactive",
                now,
            )
        self.queue.append(
            _Queued(
                request_id=rid,
                query=query,
                request_class=cls,
                submitted_t=now,
                deadline_t=now + self.config.queue_timeout_s,
                ready_t=now,
            )
        )
        self.peak_queue_len = max(self.peak_queue_len, len(self.queue))
        self.bus.emit(
            "fleet_submit",
            t=float(now),
            request_id=rid,
            kind=query.kind,
            request_class=cls.value,
            chassis=chassis,
            queue_len=len(self.queue),
        )
        if self.config.batch_window_s == 0:
            self._dispatch(now)
        return rid

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

    def _shed_victim(self, incoming: RequestClass) -> Optional[_Queued]:
        """The queued BATCH request an INTERACTIVE arrival may evict."""
        if incoming is not RequestClass.INTERACTIVE:
            return None
        for queued in reversed(self.queue):
            if queued.request_class is RequestClass.BATCH:
                return queued
        return None

    def _shed(
        self, rid: int, cls: RequestClass, reason: str, now: float
    ) -> None:
        self.bus.emit(
            "fleet_shed",
            t=float(now),
            request_id=rid,
            request_class=cls.value,
            reason=reason,
        )
        self._complete(
            rid,
            FleetAnswer(
                request_id=rid,
                status=AnswerStatus.SHED,
                reason=reason,
            ),
            now,
            emit_answer=False,
        )

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

    def _on_answer(
        self, wid: str, rid: int, payload: dict, now: float
    ) -> None:
        record = self.inflight.get(rid)
        sup = self.supervisors[wid]
        if (
            record is None
            or record.worker_id != wid
            or record.incarnation != sup.incarnation
        ):
            # A late answer from an abandoned attempt (timeout/retry)
            # or a previous incarnation: exactly-once delivery means
            # it is dropped, visibly.
            self.bus.emit(
                "fleet_drop",
                t=float(now),
                request_id=int(rid),
                reason="late_answer",
            )
            return
        del self.inflight[rid]
        self._drop_batch_member(record)
        self._complete(
            rid,
            FleetAnswer(
                request_id=rid,
                status=AnswerStatus.OK,
                payload=payload,
                attempts=record.attempts,
            ),
            now,
        )

    def _on_answer_batch(
        self,
        wid: str,
        bid: int,
        entries: List[Tuple[int, dict]],
        stats: dict,
        now: float,
    ) -> None:
        """One batch reply: emit its telemetry, then deliver members.

        Members route through :meth:`_on_answer` individually, so the
        per-request exactly-once guarantee (late answers dropped
        visibly) is untouched by batching.  The ``fleet_batch`` event
        is emitted only for a reply from the dispatching incarnation —
        a batch whose worker died or whose members were all abandoned
        emits nothing.
        """
        meta = self._batches.pop(bid, None)
        sup = self.supervisors[wid]
        if (
            meta is not None
            and meta.worker_id == wid
            and meta.incarnation == sup.incarnation
        ):
            self.bus.emit(
                "fleet_batch",
                t=float(now),
                worker=wid,
                chassis=meta.chassis,
                size=int(meta.size),
                window_wait_s=float(meta.window_wait_s),
                queue_len=int(meta.queue_len),
                warm_hits=int(stats.get("warm_hits", 0)),
                warm_misses=int(stats.get("warm_misses", 0)),
            )
        for rid, payload in entries:
            self._on_answer(wid, int(rid), payload, now)

    def _drop_batch_member(self, record: _Inflight) -> None:
        """Release one member's attribution in its batch record."""
        if record.batch_id is None:
            return
        meta = self._batches.get(record.batch_id)
        if meta is None:
            return
        meta.members.discard(record.request_id)
        if not meta.members:
            del self._batches[record.batch_id]

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
            if record.worker_id != wid:
                continue
            del self.inflight[rid]
            self._drop_batch_member(record)
            self._retry_or_resolve(record, now, exclude=())

    def _expire_inflight(self, now: float) -> None:
        for rid in sorted(self.inflight):
            record = self.inflight[rid]
            if now <= record.deadline_t:
                continue
            # The worker is presumably hung on this request; abandon
            # the attempt (a late answer will be dropped) and retry on
            # a replica only — never the same worker.
            del self.inflight[rid]
            self._drop_batch_member(record)
            self._retry_or_resolve(
                record, now, exclude=(record.worker_id,)
            )

    def _retry_or_resolve(
        self, record: _Inflight, now: float, exclude: Tuple[str, ...]
    ) -> None:
        """Put a lost attempt back at the head of the queue, or resolve
        it: out of attempts, or with the queue at ``max_queue``."""
        if record.attempts >= self.config.max_attempts:
            reason = "retries_exhausted"
        elif len(self.queue) >= self.config.max_queue:
            reason = "queue_full"
        else:
            jitter = float(
                self._rng.uniform(0.0, self.config.retry_jitter_s)
            )
            self.queue.insert(
                0,
                _Queued(
                    request_id=record.request_id,
                    query=record.query,
                    request_class=record.request_class,
                    submitted_t=record.submitted_t,
                    deadline_t=record.submitted_t
                    + self.config.queue_timeout_s,
                    not_before=now + jitter,
                    attempts=record.attempts,
                    exclude=exclude,
                    ready_t=now + jitter,
                ),
            )
            self.peak_queue_len = max(
                self.peak_queue_len, len(self.queue)
            )
            return
        self._resolve_unservable(
            record.request_id, record.query, record.attempts, now, reason
        )

    def _expire_queue(self, now: float) -> None:
        for queued in [
            q for q in self.queue if now > q.deadline_t
        ]:
            self.queue.remove(queued)
            self._resolve_unservable(
                queued.request_id,
                queued.query,
                queued.attempts,
                now,
                "queue_timeout",
            )

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
        tentatively grouped in this call.  A worker's
        group flushes in ``max_batch``-sized chunks; a partial chunk
        flushes only once its oldest member has waited
        ``batch_window_s`` since becoming dispatchable, and otherwise
        stays in the queue (in order, still governed by queue timeouts
        and shedding).
        """
        inflight_count: Dict[str, int] = {
            wid: 0 for wid in self._worker_order
        }
        for record in self.inflight.values():
            inflight_count[record.worker_id] += 1
        groups: Dict[str, List[_Queued]] = {}
        gone: Set[int] = set()
        for queued in self.queue:
            if queued.not_before > now:
                continue
            workers = self.registry.workers_for(queued.query.chassis)
            target = None
            all_quarantined = True
            for worker in workers:
                sup = self.supervisors[worker.worker_id]
                if sup.state is not WorkerState.QUARANTINED:
                    all_quarantined = False
                if worker.worker_id in queued.exclude:
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
                groups.setdefault(target, []).append(queued)
                inflight_count[target] += 1
            elif all_quarantined:
                gone.add(queued.request_id)
                self._resolve_unservable(
                    queued.request_id,
                    queued.query,
                    queued.attempts,
                    now,
                    "chassis_quarantined",
                )
        flushed_bids: List[int] = []
        for wid in self._worker_order:
            members = groups.get(wid)
            while members:
                chunk = members[: self.config.max_batch]
                oldest_wait = now - min(m.ready_t for m in chunk)
                if (
                    len(chunk) < self.config.max_batch
                    and oldest_wait < self.config.batch_window_s
                ):
                    break  # hold the partial chunk for companions
                flushed_bids.append(
                    self._send_batch(chunk, wid, oldest_wait, now)
                )
                gone.update(m.request_id for m in chunk)
                members = members[self.config.max_batch:]
        if gone:
            self.queue = [
                q for q in self.queue if q.request_id not in gone
            ]
        for bid in flushed_bids:
            self._batches[bid].queue_len = len(self.queue)

    def _send_batch(
        self,
        members: List[_Queued],
        wid: str,
        window_wait_s: float,
        now: float,
    ) -> int:
        """Record per-member inflight state and ship one QueryBatch."""
        sup = self.supervisors[wid]
        chassis = self._chassis_of[wid]
        bid = self._next_batch_id
        self._next_batch_id += 1
        for queued in members:
            self.inflight[queued.request_id] = _Inflight(
                request_id=queued.request_id,
                query=queued.query,
                request_class=queued.request_class,
                worker_id=wid,
                incarnation=sup.incarnation,
                submitted_t=queued.submitted_t,
                deadline_t=now + self.config.request_timeout_s,
                attempts=queued.attempts + 1,
                batch_id=bid,
            )
        self._batches[bid] = _BatchMeta(
            batch_id=bid,
            worker_id=wid,
            chassis=chassis,
            incarnation=sup.incarnation,
            size=len(members),
            window_wait_s=float(window_wait_s),
            members={m.request_id for m in members},
        )
        batch = QueryBatch(
            batch_id=bid,
            chassis=chassis,
            request_ids=tuple(m.request_id for m in members),
            queries=tuple(m.query for m in members),
        )
        self.handles[wid].send_batch(batch, now)
        return bid

    # -- terminal resolution --------------------------------------------

    def _resolve_unservable(
        self,
        rid: int,
        query,
        attempts: int,
        now: float,
        reason: str,
    ) -> None:
        """No live worker can answer: degrade from snapshot, or fail."""
        chassis = query.chassis
        held = self.snapshots.get(chassis)
        if held is not None:
            snap, received_t = held
            staleness = now - received_t
            if staleness <= self.config.max_staleness_s:
                self.bus.emit(
                    "fleet_degraded",
                    t=float(now),
                    request_id=rid,
                    chassis=chassis,
                    staleness_s=float(staleness),
                )
                self._complete(
                    rid,
                    FleetAnswer(
                        request_id=rid,
                        status=AnswerStatus.DEGRADED,
                        payload=degraded_payload(snap, query),
                        staleness_s=float(staleness),
                        attempts=attempts,
                        reason=reason,
                    ),
                    now,
                )
                return
            reason = f"{reason}; snapshot stale ({staleness:.1f}s)"
        else:
            reason = f"{reason}; no snapshot"
        self._complete(
            rid,
            FleetAnswer(
                request_id=rid,
                status=AnswerStatus.FAILED,
                attempts=attempts,
                reason=reason,
            ),
            now,
        )

    def _complete(
        self,
        rid: int,
        answer: FleetAnswer,
        now: float,
        emit_answer: bool = True,
    ) -> None:
        if rid in self.answers:  # pragma: no cover - guarded upstream
            raise FleetError(
                f"request {rid} already has a terminal answer"
            )
        self.answers[rid] = answer
        if emit_answer:
            self.bus.emit(
                "fleet_answer",
                t=float(now),
                request_id=rid,
                status=answer.status.value,
                attempts=int(answer.attempts),
            )
        callback = self._callbacks.pop(rid, None)
        if callback is not None:
            callback(answer)

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
