"""Deterministic chaos: seeded worker failures under virtual time.

The chaos harness proves the resilience claims of the coordinator the
same way :class:`~repro.faults.schedule.FaultSchedule` proves engine
degradation: failures are *data* (a :class:`ChaosSchedule` of typed,
content-fingerprinted events, optionally sampled once from a seeded
generator), time is virtual (a fixed tick cadence; nothing reads
wall-clock), and workers are :class:`SimWorkerHandle` objects whose
compute is the real :class:`~repro.fleet.compute.ChassisCompute` but
whose failures — kills, hangs, answer delays, checkpoint corruption —
replay exactly on schedule.  Two runs with the same seed therefore
produce byte-identical ``fleet.jsonl`` supervision logs, which is what
lets tests pin the full event sequence.

Checkpoint corruption is real, not simulated: when the harness runs
with an output directory, workers persist snapshots through
:class:`~repro.sim.checkpoint.SweepCheckpoint` and the corruption
event overwrites the pickle with garbage bytes on disk, so recovery
exercises the typed
:class:`~repro.errors.CheckpointCorruptionError` path end to end.
"""

from __future__ import annotations

import hashlib
import math
import shutil
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import CheckpointCorruptionError, FleetError
from ..sim.checkpoint import SweepCheckpoint
from .compute import WARM_FIELD_CACHE_MAX, ChassisCompute, ChassisSnapshot
from .coordinator import FleetConfig, FleetCoordinator
from .messages import PlacementQuery, RequestClass, WhatIfQuery
from .registry import FleetRegistry, demo_fleet
from .supervision import SupervisionPolicy
from .worker import snapshot_key

# -- chaos events -------------------------------------------------------


@dataclass(frozen=True)
class WorkerKill:
    """SIGKILL the worker at ``t`` (in-flight compute is lost)."""

    t: float
    worker: str

    def apply(self, handle: "SimWorkerHandle", now: float) -> None:
        handle.chaos_kill(now)


@dataclass(frozen=True)
class WorkerHang:
    """Freeze the worker for ``duration_s`` (no beats, no answers)."""

    t: float
    worker: str
    duration_s: float

    def apply(self, handle: "SimWorkerHandle", now: float) -> None:
        handle.chaos_hang(now, self.duration_s)


@dataclass(frozen=True)
class AnswerDelay:
    """Slow the worker: requests taken in the window run longer."""

    t: float
    worker: str
    extra_s: float
    duration_s: float

    def apply(self, handle: "SimWorkerHandle", now: float) -> None:
        handle.chaos_delay(now, self.extra_s, self.duration_s)


@dataclass(frozen=True)
class CheckpointCorruption:
    """Overwrite the worker's recovery checkpoint with garbage."""

    t: float
    worker: str

    def apply(self, handle: "SimWorkerHandle", now: float) -> None:
        handle.chaos_corrupt(now)


ChaosEvent = (WorkerKill, WorkerHang, AnswerDelay, CheckpointCorruption)


@dataclass(frozen=True)
class ChaosSchedule:
    """An immutable, fingerprinted set of chaos events.

    Events are replayed in ``(t, declaration order)`` — part of the
    determinism contract, exactly like
    :class:`~repro.faults.schedule.FaultSchedule`.
    """

    events: Tuple = ()

    def __post_init__(self) -> None:
        events = tuple(self.events)
        for event in events:
            if not isinstance(event, ChaosEvent):
                raise FleetError(
                    f"chaos schedule entries must be chaos events, "
                    f"got {type(event).__name__}"
                )
            if event.t < 0:
                raise FleetError("chaos event times must be >= 0")
        object.__setattr__(
            self,
            "events",
            tuple(
                sorted(
                    events,
                    key=lambda e: (e.t, events.index(e)),
                )
            ),
        )

    def __len__(self) -> int:
        return len(self.events)

    def fingerprint(self) -> str:
        """Content hash identifying the exact chaos scenario."""
        digest = hashlib.sha256()
        for event in self.events:
            digest.update(repr(event).encode())
        return digest.hexdigest()

    @classmethod
    def random(
        cls,
        seed: int,
        horizon_s: float,
        workers: Sequence[str],
        n_events: int = 6,
    ) -> "ChaosSchedule":
        """Sample a reproducible schedule from a seeded generator."""
        if n_events < 0:
            raise FleetError("n_events must be >= 0")
        if not workers:
            raise FleetError("chaos needs at least one worker")
        rng = np.random.default_rng(seed)
        events: List = []
        for _ in range(n_events):
            t = float(rng.uniform(0.0, horizon_s * 0.7))
            worker = str(workers[int(rng.integers(len(workers)))])
            roll = float(rng.random())
            if roll < 0.4:
                events.append(WorkerKill(t=t, worker=worker))
            elif roll < 0.65:
                events.append(
                    WorkerHang(
                        t=t,
                        worker=worker,
                        duration_s=float(rng.uniform(0.5, 2.5)),
                    )
                )
            elif roll < 0.85:
                events.append(
                    AnswerDelay(
                        t=t,
                        worker=worker,
                        extra_s=float(rng.uniform(0.5, 1.5)),
                        duration_s=float(rng.uniform(1.0, 3.0)),
                    )
                )
            else:
                events.append(
                    CheckpointCorruption(t=t, worker=worker)
                )
        return cls(events=tuple(events))


# -- simulated workers --------------------------------------------------

#: Virtual compute time per query kind, seconds.
SERVICE_TIME_S = {"placement": 0.08, "what_if": 0.35}


class SimWorkerHandle:
    """A virtual-time worker: real compute, scheduled failures.

    Satisfies the :class:`~repro.fleet.coordinator.WorkerHandle`
    protocol.  ``start`` performs genuine checkpoint recovery (when a
    checkpoint directory is configured) and returns the cold flag
    synchronously.

    ``chaos`` is this worker's part of a :class:`ChaosSchedule`, which
    the handle replays itself: an event applies at the first ``start``,
    ``send_batch`` or ``poll`` at or after its time, before that call
    does anything else.
    """

    def __init__(
        self,
        worker_id: str,
        compute: ChassisCompute,
        heartbeat_interval_s: float,
        checkpoint_dir: Optional[str] = None,
        chaos: Sequence = (),
    ) -> None:
        self.worker_id = worker_id
        self.compute = compute
        self.heartbeat_interval_s = heartbeat_interval_s
        self.checkpoint = (
            SweepCheckpoint(checkpoint_dir, expected_type=ChassisSnapshot)
            if checkpoint_dir
            else None
        )
        self._corrupt_flag = False  # checkpoint-less corruption model
        self.alive = False
        self.started_t = 0.0
        self._next_beat_t = 0.0
        self._seq = 0
        self._hangs: List[Tuple[float, float]] = []
        self._delays: List[Tuple[float, float, float]] = []
        self._pending: List[Tuple[float, int, tuple, object]] = []
        self._wire: List[Tuple[float, int, tuple]] = []
        self._counter = 0
        self._exit_pending = False
        self.kills = 0
        self._chaos = deque(chaos)

    # -- chaos inputs ---------------------------------------------------

    def chaos_kill(self, now: float) -> None:
        if not self.alive:
            return
        self._flush_sent(now)
        self.alive = False
        self.kills += 1
        self._pending.clear()
        self._exit_pending = True

    def chaos_hang(self, now: float, duration_s: float) -> None:
        if not self.alive:
            return
        until = now + duration_s
        self._hangs.append((now, until))
        # A frozen process finishes in-flight work only after thawing.
        self._pending = [
            (
                ready + (until - now) if ready >= now else ready,
                idx,
                msg,
                snap,
            )
            for ready, idx, msg, snap in self._pending
        ]

    def chaos_delay(
        self, now: float, extra_s: float, duration_s: float
    ) -> None:
        self._delays.append((now, now + duration_s, extra_s))

    def chaos_corrupt(self, now: float) -> None:
        if self.checkpoint is not None:
            path = self.checkpoint._path(snapshot_key(self.worker_id))
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(b"\x00not a pickle\xff")
        else:
            self._corrupt_flag = True

    # -- WorkerHandle protocol ------------------------------------------

    def start(self, now: float) -> Optional[bool]:
        self._replay(now)
        self.alive = True
        self.started_t = now
        self._next_beat_t = now
        self._seq = 0
        self._pending = []
        self._wire = []
        self._exit_pending = False
        cold = False
        snapshot = None
        if self.checkpoint is not None:
            try:
                snapshot = self.checkpoint.load_strict(
                    snapshot_key(self.worker_id)
                )
            except CheckpointCorruptionError:
                cold = True
        elif self._corrupt_flag:
            cold = True
            self._corrupt_flag = False
        if snapshot is None:
            snapshot = self.compute.snapshot(t=now)
            if self.checkpoint is not None:
                self.checkpoint.save(
                    snapshot_key(self.worker_id), snapshot
                )
        self._enqueue_wire(now, ("snapshot", snapshot))
        return cold

    def stop(self, now: float) -> None:
        self.alive = False
        self._pending.clear()
        self._exit_pending = False

    def send_batch(self, batch, now: float) -> None:
        """One batch costs its slowest member plus a small per-member
        marshalling overhead — not the sum of service times; that gap
        is exactly what the throughput benchmark measures."""
        self._replay(now)
        if not self.alive:
            return  # writing into a dead pipe
        taken = max(now, self._hang_end(now))
        extra = sum(
            e for (start, end, e) in self._delays if start <= now <= end
        )
        service = max(
            SERVICE_TIME_S[q.kind] for q in batch.queries
        ) + 0.01 * (len(batch) - 1)
        ready = taken + service + extra
        payloads, stats = self.compute.answer_batch(batch.queries)
        snapshot = self.compute.snapshot(
            getattr(batch.queries[-1], "utilization", None), t=ready
        )
        self._counter += 1
        self._pending.append(
            (
                ready,
                self._counter,
                (
                    "answer_batch",
                    batch.batch_id,
                    list(zip(batch.request_ids, payloads)),
                    stats,
                ),
                snapshot,
            )
        )

    def poll(self, now: float) -> List[tuple]:
        self._replay(now)
        if self.alive:
            self._flush_sent(now)
        messages = [
            msg for (_, _, msg) in sorted(self._wire, key=lambda m: m[:2])
        ]
        self._wire = []
        if self._exit_pending:
            messages.append(("exit",))
            self._exit_pending = False
        return messages

    # -- internals ------------------------------------------------------

    def _replay(self, now: float) -> None:
        """Apply every scheduled failure due by ``now``, at ``now``."""
        while self._chaos and self._chaos[0].t <= now:
            self._chaos.popleft().apply(self, now)

    def _hang_end(self, t: float) -> float:
        """When the hang covering instant ``t`` ends (or ``t``)."""
        for start, end in self._hangs:
            if start <= t < end:
                return end
        return t

    def _enqueue_wire(self, t: float, msg: tuple) -> None:
        self._counter += 1
        self._wire.append((t, self._counter, msg))

    def _flush_sent(self, now: float) -> None:
        """Move everything the worker sent by ``now`` onto the wire."""
        while self._next_beat_t <= now:
            t = self._next_beat_t
            self._next_beat_t += self.heartbeat_interval_s
            if self._hang_end(t) != t:
                continue  # a frozen worker skips this beat
            self._enqueue_wire(t, ("heartbeat", self._seq))
            self._seq += 1
        still: List[Tuple[float, int, tuple, object]] = []
        for ready, idx, msg, snapshot in self._pending:
            if ready <= now:
                self._wire.append((ready, idx, msg))
                self._counter += 1
                self._wire.append((ready, self._counter, ("snapshot", snapshot)))
                if self.checkpoint is not None:
                    self.checkpoint.save(
                        snapshot_key(self.worker_id), snapshot
                    )
            else:
                still.append((ready, idx, msg, snapshot))
        self._pending = still


# -- the harness --------------------------------------------------------


@dataclass(frozen=True)
class ChaosRunConfig:
    """Everything a chaos run depends on (and nothing else).

    Attributes:
        seed: Master seed — drives the chaos schedule, the workload
            and the coordinator's retry jitter.
        horizon_s: Virtual time to simulate.
        tick_s: Coordinator drive cadence.
        n_chassis: Fleet width (each chassis gets one replica worker).
        n_requests: Poisson-ish background request count.
        burst_size: BATCH requests injected in one tick mid-run to
            force backpressure sheds.  Queries ship at admission, so a
            burst sheds only beyond the queue (8) plus every worker's
            in-flight slots (2 each): 16 at 2 chassis, 20 at 3.
        n_chaos_events: Failures sampled into the schedule.
        heartbeat_interval_s: Virtual heartbeat cadence.
        batch_window_s: Micro-batching window passed through to
            :class:`~repro.fleet.coordinator.FleetConfig`.
        max_batch: Batch size bound passed through likewise.

    Raises:
        FleetError: for a non-positive or non-finite horizon, tick or
            heartbeat interval, a negative burst or chaos event count
            (naming the field), too small a fleet or workload, or
            batching knobs ``FleetConfig`` rejects.
    """

    seed: int = 0
    horizon_s: float = 30.0
    tick_s: float = 0.05
    n_chassis: int = 2
    n_requests: int = 40
    burst_size: int = 24
    n_chaos_events: int = 6
    heartbeat_interval_s: float = 0.25
    batch_window_s: float = 0.0
    max_batch: int = 1

    def __post_init__(self) -> None:
        for name in ("horizon_s", "tick_s", "heartbeat_interval_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise FleetError(
                    f"{name} must be positive and finite, got {value!r}"
                )
        if min(self.n_chassis, self.n_requests) < 1:
            raise FleetError("need at least one chassis and request")
        for name in ("burst_size", "n_chaos_events"):
            value = getattr(self, name)
            if value < 0:
                raise FleetError(f"{name} must be >= 0, got {value!r}")
        # Reject bad batching knobs here, before any run starts.
        FleetConfig(
            batch_window_s=self.batch_window_s, max_batch=self.max_batch
        )


@dataclass
class ChaosReport:
    """Everything a chaos run produced.

    Attributes:
        config: The run configuration.
        schedule: The chaos schedule that was replayed.
        coordinator: The driven coordinator (answers, events, state).
        problems: Invariant violations (empty means the run is clean).
        log_path: The ``fleet.jsonl`` event log, when written.
    """

    config: ChaosRunConfig
    schedule: ChaosSchedule
    coordinator: FleetCoordinator
    problems: List[str]
    log_path: Optional[Path] = None

    @property
    def ok(self) -> bool:
        return not self.problems

    def summary(self) -> dict:
        """JSON-safe digest for CLI output and CI artifacts."""
        statuses: Dict[str, int] = {}
        for answer in self.coordinator.answers.values():
            statuses[answer.status.value] = (
                statuses.get(answer.status.value, 0) + 1
            )
        return {
            "seed": self.config.seed,
            "chaos_fingerprint": self.schedule.fingerprint(),
            "n_requests": len(self.coordinator.answers),
            "statuses": statuses,
            "n_events": len(self.coordinator.events),
            "peak_queue_len": self.coordinator.peak_queue_len,
            "worker_states": self.coordinator.worker_states(),
            "problems": list(self.problems),
        }


def _workload(
    config: ChaosRunConfig, chassis_ids: Sequence[str]
) -> List[Tuple[float, object]]:
    """The seeded request schedule: ``(submit_t, query)`` pairs."""
    rng = np.random.default_rng(config.seed + 1)
    requests: List[Tuple[float, object]] = []
    times = np.sort(
        rng.uniform(0.0, config.horizon_s * 0.8, config.n_requests)
    )
    for t in times:
        chassis = str(chassis_ids[int(rng.integers(len(chassis_ids)))])
        if rng.random() < 0.7:
            query = PlacementQuery(
                chassis=chassis,
                job_power_w=float(rng.uniform(5.0, 20.0)),
                request_class=(
                    RequestClass.INTERACTIVE
                    if rng.random() < 0.7
                    else RequestClass.BATCH
                ),
            )
        else:
            query = WhatIfQuery(
                chassis=chassis,
                scenarios=(
                    (float(rng.uniform(0.2, 0.9)), float(rng.uniform(8, 16))),
                ),
            )
        requests.append((float(t), query))
    # Backpressure burst: a stampede of BATCH what-ifs in one instant.
    burst_t = config.horizon_s * 0.5
    for i in range(config.burst_size):
        requests.append(
            (
                burst_t,
                WhatIfQuery(
                    chassis=str(chassis_ids[i % len(chassis_ids)]),
                    scenarios=((0.5, 10.0 + i),),
                    request_class=RequestClass.BATCH,
                ),
            )
        )
    requests.sort(key=lambda pair: pair[0])
    return requests


def run_virtual(
    registry: FleetRegistry,
    workload: Sequence[Tuple[float, object]],
    config: FleetConfig,
    policy: SupervisionPolicy,
    tick_s: float,
    horizon_s: float = 0.0,
    drain_s: float = 0.0,
    schedule: ChaosSchedule = ChaosSchedule(),
    warm_capacity: int = WARM_FIELD_CACHE_MAX,
    checkpoint_dir: Optional[str] = None,
    session=None,
) -> FleetCoordinator:
    """Drive one workload through a simulated fleet in virtual time.

    The one drive loop of the chaos harness and the load generator.
    Each chassis gets one :class:`~repro.fleet.compute.ChassisCompute`,
    shared by its replicas, and each worker a :class:`SimWorkerHandle`
    replaying its part of ``schedule``.  Tick ``k`` runs at
    ``k * tick_s``, after the requests due by then are submitted,
    through ``horizon_s`` and then until every request is terminal or
    the last submission is more than ``drain_s`` behind.  Returns the
    finished coordinator.

    Raises:
        FleetError: for a bad ``tick_s`` or ``drain_s`` (naming the
            field) or a chaos event for an unknown worker, before any
            worker starts.
    """
    if not (math.isfinite(tick_s) and tick_s > 0):
        raise FleetError(
            f"tick_s must be positive and finite, got {tick_s!r}"
        )
    if not (math.isfinite(drain_s) and drain_s >= 0):
        raise FleetError(
            f"drain_s must be finite and >= 0, got {drain_s!r}"
        )
    worker_ids = {w.worker_id for w in registry.workers}
    strays = sorted({e.worker for e in schedule.events} - worker_ids)
    if strays:
        raise FleetError(f"chaos events for unknown workers {strays}")
    computes = {
        chassis_id: ChassisCompute(spec, warm_capacity=warm_capacity)
        for chassis_id, spec in registry.chassis.items()
    }
    handles = {
        w.worker_id: SimWorkerHandle(
            worker_id=w.worker_id,
            compute=computes[w.chassis_id],
            heartbeat_interval_s=policy.heartbeat_interval_s,
            checkpoint_dir=checkpoint_dir,
            chaos=[e for e in schedule.events if e.worker == w.worker_id],
        )
        for w in registry.workers
    }
    coordinator = FleetCoordinator(
        registry=registry,
        handles=handles,
        policy=policy,
        config=config,
        session=session,
    )
    pending = sorted(workload, key=lambda pair: pair[0])
    deadline = (pending[-1][0] if pending else 0.0) + drain_s
    n_ticks = math.ceil(horizon_s / tick_s)
    coordinator.start(0.0)
    k = next_request = 0
    while True:
        k += 1
        now = k * tick_s
        while (
            next_request < len(pending)
            and pending[next_request][0] <= now
        ):
            coordinator.submit(pending[next_request][1], now)
            next_request += 1
        coordinator.tick(now)
        drained = next_request == len(pending) and coordinator.pending == 0
        if k >= n_ticks and (drained or now > deadline):
            break
    coordinator.finish((k + 1) * tick_s)
    return coordinator


def run_chaos(
    config: ChaosRunConfig,
    out_dir=None,
    registry: Optional[FleetRegistry] = None,
    schedule: Optional[ChaosSchedule] = None,
) -> ChaosReport:
    """Drive a fleet through a seeded chaos scenario in virtual time.

    Args:
        config: The run configuration (seed fixes everything).
        out_dir: Optional directory receiving ``fleet.jsonl`` (the
            supervision event log) and real on-disk worker
            checkpoints (so corruption events exercise the typed
            recovery path).  ``out_dir/checkpoints`` is the harness's
            own state: every run empties it first, so a reused
            directory gives the same log as a fresh one.
        registry: Optional fleet layout override; defaults to
            :func:`~repro.fleet.registry.demo_fleet` with one replica
            per chassis.
        schedule: Optional explicit chaos schedule (an empty one runs
            no chaos); defaults to :meth:`ChaosSchedule.random` under
            ``config.seed``.

    Returns:
        The :class:`ChaosReport`, with
        :mod:`repro.fleet.invariants` already evaluated.
    """
    from ..obs.session import TelemetrySession
    from .invariants import check_fleet_events

    registry = registry or demo_fleet(
        n_chassis=config.n_chassis, n_rows=1, replicas=1
    )
    if schedule is None:
        schedule = ChaosSchedule.random(
            seed=config.seed,
            horizon_s=config.horizon_s,
            workers=[w.worker_id for w in registry.workers],
            n_events=config.n_chaos_events,
        )
    checkpoint_dir = None
    log_path = None
    session = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        checkpoint_dir = str(out_dir / "checkpoints")
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
        log_path = out_dir / "fleet.jsonl"
        session = TelemetrySession(log_path)

    policy = SupervisionPolicy(
        heartbeat_interval_s=config.heartbeat_interval_s,
        missed_heartbeats=2,
        restart_backoff_s=0.25,
        restart_backoff_cap_s=2.0,
        max_restarts=3,
    )
    fleet_config = FleetConfig(
        max_queue=8,
        max_inflight_per_worker=2,
        request_timeout_s=1.5,
        queue_timeout_s=4.0,
        max_attempts=2,
        retry_jitter_s=0.1,
        max_staleness_s=config.horizon_s,
        seed=config.seed,
        log_heartbeats=True,
        batch_window_s=config.batch_window_s,
        max_batch=config.max_batch,
    )
    try:
        coordinator = run_virtual(
            registry,
            _workload(config, sorted(registry.chassis)),
            fleet_config,
            policy,
            tick_s=config.tick_s,
            horizon_s=config.horizon_s,
            schedule=schedule,
            checkpoint_dir=checkpoint_dir,
            session=session,
        )
    finally:
        if session is not None:
            session.close()

    problems = check_fleet_events(coordinator.events)
    if coordinator.peak_queue_len > fleet_config.max_queue:
        problems.append(
            f"queue peaked at {coordinator.peak_queue_len}, above "
            f"max_queue {fleet_config.max_queue}"
        )
    if coordinator.pending:
        problems.append(
            f"{coordinator.pending} request(s) never reached a "
            "terminal answer"
        )
    return ChaosReport(
        config=config,
        schedule=schedule,
        coordinator=coordinator,
        problems=problems,
        log_path=log_path,
    )
