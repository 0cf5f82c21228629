"""Process chaos over TCP: real workers killed and stopped mid-stream.

Two TCP clients stream placements at a served fleet while one worker
process is SIGKILLed and another SIGSTOPped.  Every request must still
get exactly one terminal reply line on a connection that stays open,
the JSONL log must pass the fleet invariants, and no worker process of
the run may outlive ``stop()``.
"""

import asyncio
import json
import multiprocessing
import os
import signal

import pytest

from repro.fleet.coordinator import FleetConfig
from repro.fleet.invariants import check_fleet_log
from repro.fleet.registry import demo_fleet
from repro.fleet.service import FleetService
from repro.fleet.supervision import SupervisionPolicy
from repro.obs.events import EventBus
from repro.obs.writer import JsonlWriter

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs process workers",
)

REQUESTS_PER_CLIENT = 60
#: Replies both clients have together when the faults strike.
FAULT_AFTER = 30
TERMINAL = {"ok", "degraded", "failed", "shed"}
KILLED, STOPPED = "c0-w0", "c1-w0"


def _alive(pid: int) -> bool:
    """Whether ``pid`` exists (a zombie counts: it was never reaped)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _worker_pids(service) -> set:
    return {
        handle._proc.pid
        for handle in service.coordinator.handles.values()
        if handle._proc is not None
    }


async def _chaos_run(bus):
    service = FleetService(
        demo_fleet(2, replicas=1),
        policy=SupervisionPolicy(heartbeat_interval_s=0.1),
        config=FleetConfig(request_timeout_s=1.0),
        bus=bus,
    )
    server = await service.serve(host="127.0.0.1", port=0)
    port = server.sockets[0].getsockname()[1]
    pids = _worker_pids(service)
    replies = {0: [], 1: []}
    faults_due = asyncio.Event()

    async def client(k):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            for i in range(REQUESTS_PER_CLIENT):
                query = {
                    "kind": "placement",
                    "chassis": f"c{(i + k) % 2}",
                    "job_power_w": 6.0 + i % 5,
                }
                writer.write(json.dumps(query).encode() + b"\n")
                await writer.drain()
                line = await asyncio.wait_for(reader.readline(), 10.0)
                replies[k].append(line)
                if not line:
                    return b""  # closed early
                pids.update(_worker_pids(service))
                if sum(map(len, replies.values())) >= FAULT_AFTER:
                    faults_due.set()
            writer.write_eof()
            # Anything but EOF here is a reply nobody asked for.
            return await asyncio.wait_for(reader.read(), 10.0)
        finally:
            faults_due.set()  # a client that ended early must not hang inject
            writer.close()

    async def inject():
        await faults_due.wait()
        handles = service.coordinator.handles
        os.kill(handles[KILLED]._proc.pid, signal.SIGKILL)
        os.kill(handles[STOPPED]._proc.pid, signal.SIGSTOP)

    try:
        tails = await asyncio.gather(client(0), client(1), inject())
    finally:
        pids.update(_worker_pids(service))
        server.close()
        await server.wait_closed()
        await service.stop()
    return service, replies, tails[:2], pids


def test_workers_killed_and_stopped_under_tcp_load(tmp_path):
    log = tmp_path / "fleet.jsonl"
    bus = EventBus()
    with JsonlWriter(log) as writer:
        bus.subscribe(writer.emit)
        service, replies, tails, pids = asyncio.run(_chaos_run(bus))
    leftover = sorted(pid for pid in pids if _alive(pid))
    for pid in leftover:  # never leave a stopped process behind
        os.kill(pid, signal.SIGKILL)

    for k in (0, 1):
        assert len(replies[k]) == REQUESTS_PER_CLIENT
        assert all(replies[k]), f"client {k}'s connection closed early"
    assert tails == [b"", b""]  # exactly one line per request
    answers = [json.loads(line) for k in (0, 1) for line in replies[k]]
    assert {a["status"] for a in answers} <= TERMINAL
    assert len({a["request_id"] for a in answers}) == len(answers)
    supervisors = service.coordinator.supervisors
    assert supervisors[KILLED].restarts >= 1
    assert supervisors[STOPPED].restarts >= 1
    assert check_fleet_log(log) == []
    assert leftover == []
