"""The asyncio fleet service: real clock, real workers, TCP front.

:class:`FleetService` owns a
:class:`~repro.fleet.coordinator.FleetCoordinator` over real
:class:`~repro.fleet.worker.ProcessWorkerHandle` workers.  Each query
leaves for a worker as soon as it is admitted; answers, supervision,
timeouts and restarts run on wall-clock ticks at a fixed cadence on the
event loop.  All determinism-sensitive logic lives in the coordinator;
this module only supplies time, process transport and an optional
JSON-lines TCP front end (``repro fleet serve`` / ``repro fleet
query``).

Wire protocol (one JSON object per line, newline-terminated)::

    -> {"kind": "placement", "chassis": "c0", "job_power_w": 12.0}
    <- {"request_id": 0, "status": "ok", "payload": {...}, ...}

    -> {"kind": "what_if", "chassis": "c1",
        "scenarios": [[0.5, 10.0], [0.9, 14.0]]}
    <- {"request_id": 1, "status": "ok", "payload": {...}, ...}

Backpressure is visible on the wire: a shed request answers with
``"status": "shed"`` (the 503 of this protocol) instead of hanging.
A line that is not a valid query — bad or too deeply nested JSON,
invalid UTF-8, out-of-range values, or longer than the 64 KiB stream
limit — answers with one ``{"status": "error", "reason": ...}`` line
and the connection stays open.  :meth:`FleetService.stop` answers the
lines each connection has already read, then closes it.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import time
from typing import Dict, Optional, Tuple

from ..errors import FleetError
from ..obs.events import EventBus
from .coordinator import FleetConfig, FleetCoordinator
from .messages import (
    AnswerStatus,
    FleetAnswer,
    PlacementQuery,
    RequestClass,
    WhatIfQuery,
)
from .registry import FleetRegistry
from .supervision import SupervisionPolicy
from .worker import ProcessWorkerHandle


def _request_class(obj: dict, default: RequestClass) -> RequestClass:
    """Parse ``request_class`` strictly — unknown strings are rejected.

    Rejection is explicit and typed (not a silent fallback to a
    default class, which would let a typo like ``"bulk"`` quietly jump
    the shedding queue or get shed first).
    """
    raw = obj.get("request_class", default.value)
    try:
        return RequestClass(str(raw))
    except ValueError as exc:
        valid = "/".join(repr(c.value) for c in RequestClass)
        raise FleetError(
            f"unknown request_class {raw!r} (want {valid})"
        ) from exc


def query_from_json(obj: dict):
    """Build a fleet query from its wire representation.

    Raises:
        FleetError: for an unknown kind, an unknown request class or a
            malformed payload.
    """
    if not isinstance(obj, dict):
        raise FleetError("query must be a JSON object")
    kind = obj.get("kind")
    if kind == "placement":
        cls = _request_class(obj, RequestClass.INTERACTIVE)
    elif kind == "what_if":
        cls = _request_class(obj, RequestClass.BATCH)
    try:
        if kind == "placement":
            utilization = obj.get("utilization")
            return PlacementQuery(
                chassis=str(obj["chassis"]),
                job_power_w=float(obj["job_power_w"]),
                utilization=(
                    tuple(float(u) for u in utilization)
                    if utilization is not None
                    else None
                ),
                request_class=cls,
            )
        if kind == "what_if":
            return WhatIfQuery(
                chassis=str(obj["chassis"]),
                scenarios=tuple(
                    (float(u), float(p))
                    for u, p in obj["scenarios"]
                ),
                request_class=cls,
            )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FleetError(f"malformed {kind!r} query: {exc}") from exc
    raise FleetError(
        f"unknown query kind {kind!r} (want 'placement' or 'what_if')"
    )


#: Seconds :meth:`FleetService.stop` waits for a connection to write
#: its last answers before it aborts the connection.
_CLOSE_GRACE_S = 5.0

#: Seconds between the coordinator ticks of a :class:`FleetService`,
#: read at each tick.  Answers, supervision, timeouts and restarts
#: advance on this cadence.
TICK_INTERVAL_S = 0.05


def _next_tick(tick: int, now: float, interval_s: float) -> int:
    """The index of the tick to run after tick ``tick``.

    Tick ``k`` is due ``k * interval_s`` after the service started.
    The next tick is normally ``tick + 1``.  If ``now`` is already past
    its deadline (the last tick overran), the missed deadlines are
    skipped rather than run back to back: the next tick is the first
    whose deadline is not before ``now``.
    """
    return max(tick + 1, math.ceil(now / interval_s))


class FleetService:
    """Drive a fleet of process workers on the asyncio event loop.

    The coordinator ticks every :data:`TICK_INTERVAL_S` seconds.

    Attributes:
        registry: The fleet layout to serve.
        bus: Optional :class:`~repro.obs.events.EventBus` for the
            coordinator's events; the caller owns its subscribers.
        coordinator: The deterministic core (constructed on start).
    """

    def __init__(
        self,
        registry: FleetRegistry,
        policy: Optional[SupervisionPolicy] = None,
        config: Optional[FleetConfig] = None,
        checkpoint_dir: Optional[str] = None,
        bus: Optional[EventBus] = None,
    ) -> None:
        self.registry = registry
        self.policy = policy or SupervisionPolicy()
        # Long-running service: heartbeat events would dominate the
        # log, so they default off here (chaos runs keep them on).
        self.config = config or FleetConfig(log_heartbeats=False)
        self.checkpoint_dir = checkpoint_dir
        self.bus = bus
        self.coordinator: Optional[FleetCoordinator] = None
        self._epoch: Optional[float] = None
        self._tick_task: Optional[asyncio.Task] = None
        # Futures of admitted callers still waiting, by request id.
        self._waiters: Dict[int, asyncio.Future] = {}
        # The exception that ended the tick loop, if one did.
        self._failure: Optional[Exception] = None
        # The task of each open connection, with its reader and writer.
        self._connections: Dict[
            asyncio.Task, Tuple[asyncio.StreamReader, asyncio.StreamWriter]
        ] = {}

    def _now(self) -> float:
        if self._epoch is None:
            raise FleetError("service not started")
        return time.monotonic() - self._epoch

    async def start(self) -> None:
        """Start workers and the background tick loop."""
        if self.coordinator is not None:
            raise FleetError("service already started")
        self._epoch = time.monotonic()
        handles = {
            w.worker_id: ProcessWorkerHandle(
                spec=self.registry.spec_for_worker(w.worker_id),
                worker_id=w.worker_id,
                heartbeat_interval_s=self.policy.heartbeat_interval_s,
                checkpoint_dir=self.checkpoint_dir,
            )
            for w in self.registry.workers
        }
        self.coordinator = FleetCoordinator(
            registry=self.registry,
            handles=handles,
            policy=self.policy,
            config=self.config,
            bus=self.bus,
        )
        self.coordinator.start(self._now())
        self._tick_task = asyncio.ensure_future(self._tick_loop())

    async def _tick_loop(self) -> None:
        """Run tick ``k`` at ``k * TICK_INTERVAL_S`` after start.

        A tick that raises ends the loop: every waiting caller gets a
        FAILED answer naming the error, and :meth:`stop` re-raises it.
        """
        tick = 0
        try:
            while True:
                tick = _next_tick(tick, self._now(), TICK_INTERVAL_S)
                await asyncio.sleep(tick * TICK_INTERVAL_S - self._now())
                self.coordinator.tick(self._now())
        except Exception as exc:
            self._failure = exc
            waiters, self._waiters = self._waiters, {}
            for rid, future in waiters.items():
                if not future.done():
                    future.set_result(
                        FleetAnswer(
                            request_id=rid,
                            status=AnswerStatus.FAILED,
                            reason=f"service tick failed: {exc!r}",
                        )
                    )
            raise

    async def submit(self, query) -> FleetAnswer:
        """Admit one query and await its terminal answer.

        The coordinator ships an admitted query at once when a worker
        slot is free and no batching window holds it.

        Raises:
            FleetError: if not started, stopped, or the tick loop failed.
        """
        if self.coordinator is None:
            raise FleetError("service not started")
        if self._failure is not None:
            raise FleetError(f"service tick failed: {self._failure!r}")
        future: asyncio.Future = asyncio.get_running_loop().create_future()

        def resolve(answer: FleetAnswer) -> None:
            self._waiters.pop(answer.request_id, None)
            if not future.done():
                future.set_result(answer)

        rid = self.coordinator.submit(query, self._now(), callback=resolve)
        if not future.done():  # not yet answered
            self._waiters[rid] = future
        return await future

    async def stop(self) -> None:
        """Resolve stragglers, stop workers and close every connection.

        The coordinator is finished even when the tick loop died; its
        exception is re-raised after that.  Each open connection then
        writes the answers to the lines it has already read and closes.
        A second call returns at once.
        """
        task, self._tick_task = self._tick_task, None
        try:
            if task is not None:
                task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await task
        finally:
            if self.coordinator is not None and not self.coordinator.finished:
                self.coordinator.finish(self._now())
            await self._close_connections()

    async def _close_connections(self) -> None:
        """End every connection's input and await its task.

        A connection that has not finished writing within
        ``_CLOSE_GRACE_S`` (a client that stopped reading) is aborted.
        The tasks end normally, never cancelled, so asyncio's stream
        callback has no exception to report.
        """
        while self._connections:
            for reader, writer in self._connections.values():
                # No data may arrive after the end of input is fed.
                writer.transport.pause_reading()
                reader.feed_eof()
            _, stuck = await asyncio.wait(
                list(self._connections), timeout=_CLOSE_GRACE_S
            )
            for task in stuck:
                self._connections[task][1].transport.abort()

    async def handle_connection(self, reader, writer) -> None:
        """Serve one JSON-lines client connection."""
        task = asyncio.current_task()
        self._connections[task] = (reader, writer)
        try:
            while True:
                line = await _read_line(reader)
                if line == b"":
                    break
                try:
                    if line is None:
                        raise FleetError(
                            "request line exceeds the stream limit"
                        )
                    # ValueError covers JSONDecodeError, the
                    # UnicodeDecodeError of a non-UTF-8 line, and an
                    # answer that overflowed to a non-finite float
                    # (NaN is not JSON); RecursionError a too deeply
                    # nested line.
                    answer = await self.submit(
                        query_from_json(json.loads(line))
                    )
                    reply = json.dumps(
                        answer.to_dict(), sort_keys=True, allow_nan=False
                    )
                except (ValueError, RecursionError, FleetError) as exc:
                    reply = json.dumps({"status": "error", "reason": str(exc)})
                writer.write(reply.encode() + b"\n")
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            del self._connections[task]
            # A worker restarted while this connection was open was
            # forked with a copy of its socket, so close() alone sends
            # no FIN: shut the socket down so the client sees the end.
            with contextlib.suppress(OSError):
                writer.write_eof()
            writer.close()

    async def serve(self, host: str = "127.0.0.1", port: int = 7781):
        """Open the TCP front; returns the asyncio server."""
        if self.coordinator is None:
            await self.start()
        return await asyncio.start_server(
            self.handle_connection, host=host, port=port
        )


async def _read_line(reader) -> Optional[bytes]:
    """The next line (``b""`` at EOF), or None if it overran the limit.

    An over-long line is consumed through its newline, so it earns the
    client exactly one error answer and the next line parses cleanly.
    """
    overran = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            line = exc.partial  # EOF: an unterminated last line, or b""
        except asyncio.LimitOverrunError as exc:
            overran = True
            await reader.readexactly(exc.consumed)
            continue
        return None if overran else line


async def query_fleet(
    obj: dict, host: str = "127.0.0.1", port: int = 7781
) -> dict:
    """Send one wire-format query to a running service."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(json.dumps(obj).encode() + b"\n")
        await writer.drain()
        line = await reader.readline()
        if not line:
            raise FleetError("fleet service closed the connection")
        return json.loads(line)
    finally:
        writer.close()
