"""The per-chassis worker process and its coordinator-side handle.

One worker process serves one chassis: it rebuilds the topology from
its picklable :class:`~repro.fleet.registry.ChassisSpec` (the same
ship-the-recipe discipline as :mod:`repro.sim.parallel`), answers
queries through :class:`~repro.fleet.compute.ChassisCompute`, and
heartbeats on a fixed cadence so the supervisor can tell a hung worker
from a slow one.

State recovery: the worker persists its latest
:class:`~repro.fleet.compute.ChassisSnapshot` to a per-worker
:class:`~repro.sim.checkpoint.SweepCheckpoint` entry after every
answer.  On (re)start it recovers through the *strict* load path — a
corrupt checkpoint surfaces as a typed
:class:`~repro.errors.CheckpointCorruptionError` (poisoned files are
dropped), the worker comes up cold, and the ``hello`` it sends carries
``cold=True`` so the supervision log records the recovery provenance.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import List, Optional, Tuple

from ..errors import CheckpointCorruptionError
from ..sim.checkpoint import SweepCheckpoint
from .compute import (
    WARM_FIELD_CACHE_MAX,
    ChassisCompute,
    ChassisSnapshot,
)
from .messages import QueryBatch
from .registry import ChassisSpec


def snapshot_key(worker_id: str) -> str:
    """Checkpoint key under which a worker persists its snapshot."""
    return f"fleet-snapshot-{worker_id}"


def worker_main(
    conn,
    spec: ChassisSpec,
    worker_id: str,
    heartbeat_interval_s: float,
    checkpoint_dir: Optional[str] = None,
    warm_capacity: int = WARM_FIELD_CACHE_MAX,
) -> None:
    """Worker process entry point (runs until ``stop`` or EOF).

    Protocol (all over the duplex pipe ``conn``):

    - outbound: ``("hello", cold)`` once, then ``("snapshot", snap)``
      and ``("heartbeat", seq)`` / ``("answer", rid, payload)`` /
      ``("answer_batch", batch_id, entries, stats)``;
    - inbound: ``("request", rid, query)``,
      ``("request_batch", batch)`` and ``("stop",)``.
    """
    checkpoint = None
    snapshot: Optional[ChassisSnapshot] = None
    cold = False
    if checkpoint_dir:
        checkpoint = SweepCheckpoint(
            checkpoint_dir, expected_type=ChassisSnapshot
        )
        try:
            snapshot = checkpoint.load_strict(snapshot_key(worker_id))
        except CheckpointCorruptionError:
            # The poisoned files are already dropped: recover cold and
            # tell the supervisor so (the alternative — crashing — is
            # exactly the flap loop this path exists to break).
            cold = True
    compute = ChassisCompute(spec, warm_capacity=warm_capacity)
    try:
        conn.send(("hello", cold))
        if snapshot is None:
            snapshot = compute.snapshot()
            if checkpoint is not None:
                checkpoint.save(snapshot_key(worker_id), snapshot)
        conn.send(("snapshot", snapshot))
        seq = 0
        conn.send(("heartbeat", seq))
        last_beat = time.monotonic()
        while True:
            wait = max(
                0.0,
                last_beat + heartbeat_interval_s - time.monotonic(),
            )
            if conn.poll(wait):
                message = conn.recv()
                if message[0] == "stop":
                    return
                if message[0] == "request":
                    _, rid, query = message
                    payload = compute.answer(query)
                    conn.send(("answer", rid, payload))
                    snapshot = compute.snapshot(
                        getattr(query, "utilization", None)
                    )
                    if checkpoint is not None:
                        checkpoint.save(
                            snapshot_key(worker_id), snapshot
                        )
                    conn.send(("snapshot", snapshot))
                if message[0] == "request_batch":
                    batch: QueryBatch = message[1]
                    payloads, stats = compute.answer_batch(
                        batch.queries
                    )
                    conn.send(
                        (
                            "answer_batch",
                            batch.batch_id,
                            list(zip(batch.request_ids, payloads)),
                            stats,
                        )
                    )
                    # One snapshot per batch, from the last member's
                    # state — the same end state the serial loop
                    # would have reported after its final answer.
                    snapshot = compute.snapshot(
                        getattr(
                            batch.queries[-1], "utilization", None
                        )
                    )
                    if checkpoint is not None:
                        checkpoint.save(
                            snapshot_key(worker_id), snapshot
                        )
                    conn.send(("snapshot", snapshot))
            if time.monotonic() - last_beat >= heartbeat_interval_s:
                seq += 1
                conn.send(("heartbeat", seq))
                last_beat = time.monotonic()
    except (EOFError, BrokenPipeError, OSError):
        return  # coordinator went away; nothing to clean up


class ProcessWorkerHandle:
    """Coordinator-side transport for one real worker process.

    Satisfies the :class:`~repro.fleet.coordinator.WorkerHandle`
    protocol.  ``start`` returns ``None`` — the cold-recovery flag
    arrives asynchronously in the worker's ``hello``.
    """

    def __init__(
        self,
        spec: ChassisSpec,
        worker_id: str,
        heartbeat_interval_s: float,
        checkpoint_dir: Optional[str] = None,
        warm_capacity: int = WARM_FIELD_CACHE_MAX,
    ) -> None:
        self.spec = spec
        self.worker_id = worker_id
        self.heartbeat_interval_s = heartbeat_interval_s
        self.checkpoint_dir = checkpoint_dir
        self.warm_capacity = warm_capacity
        self._proc: Optional[multiprocessing.Process] = None
        self._conn = None
        self._exit_reported = False

    def _context(self):
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )

    def start(self, now: float) -> Optional[bool]:
        self.stop(now)
        context = self._context()
        parent, child = context.Pipe(duplex=True)
        self._conn = parent
        self._exit_reported = False
        self._proc = context.Process(
            target=worker_main,
            args=(
                child,
                self.spec,
                self.worker_id,
                self.heartbeat_interval_s,
                self.checkpoint_dir,
                self.warm_capacity,
            ),
            daemon=True,
        )
        self._proc.start()
        child.close()
        return None

    def stop(self, now: float) -> None:
        if self._proc is not None and self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(timeout=2.0)
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:  # pragma: no cover - close race
                pass
        self._proc = None
        self._conn = None

    def send(self, request_id: int, query, now: float) -> None:
        if self._conn is None:
            return
        try:
            self._conn.send(("request", request_id, query))
        except (BrokenPipeError, OSError):
            pass  # supervision will notice the corpse via poll()

    def send_batch(self, batch: QueryBatch, now: float) -> None:
        if self._conn is None:
            return
        try:
            self._conn.send(("request_batch", batch))
        except (BrokenPipeError, OSError):
            pass  # supervision will notice the corpse via poll()

    def poll(self, now: float) -> List[Tuple]:
        messages: List[Tuple] = []
        if self._conn is not None:
            try:
                while self._conn.poll(0):
                    messages.append(self._conn.recv())
            except (EOFError, BrokenPipeError, OSError):
                pass
        if (
            self._proc is not None
            and self._proc.exitcode is not None
            and not self._exit_reported
        ):
            self._exit_reported = True
            messages.append(("exit",))
        return messages
