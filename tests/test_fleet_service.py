"""Process-worker and asyncio service tests (real time, real pipes)."""

import asyncio
import contextlib
import json
import multiprocessing
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import FleetError
from repro.fleet.compute import ChassisSnapshot
from repro.fleet.coordinator import FleetConfig
from repro.fleet.invariants import check_fleet_events, check_fleet_log
from repro.fleet.messages import AnswerStatus, PlacementQuery, QueryBatch
from repro.fleet.registry import (
    ChassisSpec,
    FleetRegistry,
    WorkerSpec,
    demo_fleet,
)
from repro.fleet import service as service_module
from repro.fleet.service import (
    FleetService,
    _next_tick,
    _read_line,
    query_fleet,
    query_from_json,
)
from repro.fleet.supervision import SupervisionPolicy
from repro.fleet.worker import (
    ProcessWorkerHandle,
    snapshot_key,
    worker_main,
)
from repro.obs.check import check_directory
from repro.obs.events import EventBus
from repro.obs.writer import JsonlWriter

SPEC = ChassisSpec(
    chassis_id="c0",
    n_rows=1,
    lanes_per_row=1,
    chain_length=2,
    sockets_per_cartridge_depth=2,
)

REGISTRY = FleetRegistry(
    chassis={"c0": SPEC},
    workers=(WorkerSpec(worker_id="c0-w0", chassis_id="c0"),),
)


def drain(conn, timeout_s=10.0, until=None):
    """Collect messages from a worker pipe until a predicate matches."""
    messages = []
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if conn.poll(0.05):
            messages.append(conn.recv())
            if until is not None and until(messages[-1]):
                return messages
    raise AssertionError(f"timed out; got {messages}")


class TestWorkerMain:
    def run_worker(self, checkpoint_dir=None):
        parent, child = multiprocessing.Pipe(duplex=True)
        thread = threading.Thread(
            target=worker_main,
            args=(child, SPEC, "c0-w0", 0.2, checkpoint_dir),
            daemon=True,
        )
        thread.start()
        return parent, thread

    def test_hello_snapshot_heartbeat_and_answer(self):
        parent, thread = self.run_worker()
        messages = drain(parent, until=lambda m: m[0] == "heartbeat")
        kinds = [m[0] for m in messages]
        assert kinds[0] == "hello"
        assert messages[0][1] is False  # warm start (no checkpoint)
        assert "snapshot" in kinds
        parent.send(
            (
                "request_batch",
                QueryBatch(
                    batch_id=3,
                    chassis="c0",
                    request_ids=(7,),
                    queries=(PlacementQuery(chassis="c0", job_power_w=5.0),),
                ),
            )
        )
        messages = drain(parent, until=lambda m: m[0] == "answer_batch")
        _, batch_id, entries, _ = messages[-1]
        assert batch_id == 3
        ((rid, payload),) = entries
        assert rid == 7
        assert payload["socket"] in (0, 1)
        parent.send(("stop",))
        thread.join(timeout=5.0)
        assert not thread.is_alive()

    def test_corrupt_checkpoint_recovers_cold(self, tmp_path):
        from repro.sim.checkpoint import CHECKPOINT_SUFFIX

        poison = tmp_path / f"{snapshot_key('c0-w0')}{CHECKPOINT_SUFFIX}"
        poison.write_bytes(b"\x80garbage")
        parent, thread = self.run_worker(checkpoint_dir=str(tmp_path))
        messages = drain(parent, until=lambda m: m[0] == "snapshot")
        hello = messages[0]
        assert hello[0] == "hello"
        assert hello[1] is True  # cold: the checkpoint was corrupt
        # The poisoned file was dropped and replaced by a fresh,
        # valid snapshot.
        import pickle

        recovered = pickle.loads(poison.read_bytes())
        assert isinstance(recovered, ChassisSnapshot)
        parent.send(("stop",))
        thread.join(timeout=5.0)

    def test_warm_recovery_reuses_checkpointed_snapshot(self, tmp_path):
        from repro.sim.checkpoint import SweepCheckpoint

        checkpoint = SweepCheckpoint(
            tmp_path, expected_type=ChassisSnapshot
        )
        canned = ChassisSnapshot(
            chassis_id="c0",
            t=42.0,
            utilization=(0.1, 0.2),
            chip_c=(30.0, 31.0),
            power_w=(10.0, 11.0),
        )
        checkpoint.save(snapshot_key("c0-w0"), canned)
        parent, thread = self.run_worker(checkpoint_dir=str(tmp_path))
        messages = drain(parent, until=lambda m: m[0] == "snapshot")
        assert messages[0][1] is False  # warm
        snap = messages[-1][1]
        assert snap.t == 42.0  # recovered, not recomputed
        parent.send(("stop",))
        thread.join(timeout=5.0)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs process workers",
)
class TestProcessWorkerHandle:
    def test_round_trip_and_exit_reporting(self):
        handle = ProcessWorkerHandle(
            spec=SPEC, worker_id="c0-w0", heartbeat_interval_s=0.2
        )
        assert handle.start(0.0) is None  # cold flag arrives in hello
        try:
            messages = []
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                messages.extend(handle.poll(0.0))
                if any(m[0] == "hello" for m in messages):
                    break
                time.sleep(0.05)
            assert any(m[0] == "hello" for m in messages)
            handle.send_batch(
                QueryBatch(
                    batch_id=0,
                    chassis="c0",
                    request_ids=(1,),
                    queries=(PlacementQuery(chassis="c0", job_power_w=4.0),),
                ),
                0.0,
            )
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                messages.extend(handle.poll(0.0))
                if any(m[0] == "answer_batch" for m in messages):
                    break
                time.sleep(0.05)
            answers = [m for m in messages if m[0] == "answer_batch"]
            assert answers and answers[0][2][0][0] == 1
            with pytest.raises(FleetError, match="send_batch"):
                handle.send(
                    2, PlacementQuery(chassis="c0", job_power_w=4.0), 0.0
                )
        finally:
            handle.stop(0.0)
        # After stop, poll is inert and safe.
        assert handle.poll(0.0) == []

    def test_stop_kills_a_stopped_worker_quickly(self):
        """A SIGSTOPped worker ignores SIGTERM, so stop escalates."""
        handle = ProcessWorkerHandle(
            spec=SPEC, worker_id="c0-w0", heartbeat_interval_s=0.2
        )
        handle.start(0.0)
        proc = handle._proc
        os.kill(proc.pid, signal.SIGSTOP)
        try:
            started = time.monotonic()
            handle.stop(0.0)
            elapsed = time.monotonic() - started
            assert proc.exitcode is not None  # dead and reaped
        finally:
            if proc.exitcode is None:
                proc.kill()
                proc.join()
        assert elapsed < 0.5


class TestQueryFromJson:
    def test_placement_parsed(self):
        query = query_from_json(
            {
                "kind": "placement",
                "chassis": "c0",
                "job_power_w": 9.0,
            }
        )
        assert isinstance(query, PlacementQuery)
        assert query.job_power_w == 9.0

    def test_what_if_parsed(self):
        query = query_from_json(
            {
                "kind": "what_if",
                "chassis": "c0",
                "scenarios": [[0.5, 10.0]],
            }
        )
        assert query.scenarios == ((0.5, 10.0),)

    @pytest.mark.parametrize(
        "obj",
        [
            {"kind": "mystery"},
            {"kind": "placement"},
            {"kind": "placement", "chassis": "c0", "job_power_w": "x"},
            {"kind": "placement", "chassis": "c0", "job_power_w": 10**400},
            "not an object",
        ],
    )
    def test_malformed_queries_rejected(self, obj):
        with pytest.raises(FleetError):
            query_from_json(obj)


def _service(registry, bus=None):
    return FleetService(
        registry,
        policy=SupervisionPolicy(heartbeat_interval_s=0.2),
        config=FleetConfig(
            request_timeout_s=15.0,
            queue_timeout_s=30.0,
            log_heartbeats=False,
        ),
        bus=bus,
    )


@pytest.fixture
def fast_ticks(monkeypatch):
    """Tick every 20 ms, so a running service answers quickly."""
    monkeypatch.setattr(service_module, "TICK_INTERVAL_S", 0.02)


@pytest.fixture
def untimed_ticks(monkeypatch):
    """Push the first tick an hour past the start of the service."""
    monkeypatch.setattr(service_module, "TICK_INTERVAL_S", 3600.0)


def _collector():
    """A bus and the list its events land in."""
    events = []
    bus = EventBus()
    bus.subscribe(events.append)
    return bus, events


LOCAL = "127.0.0.1"

PLACEMENT_LINE = json.dumps(
    {"kind": "placement", "chassis": "c0", "job_power_w": 3.0}
).encode() + b"\n"


@contextlib.asynccontextmanager
async def _serving(service):
    """Serve ``service`` on a free local port and yield the port; then
    close the server and stop the service, which closes its
    connections."""
    server = await service.serve(host=LOCAL, port=0)
    try:
        yield server.sockets[0].getsockname()[1]
    finally:
        server.close()
        await server.wait_closed()
        await service.stop()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs process workers",
)
@pytest.mark.usefixtures("fast_ticks")
class TestFleetService:
    def test_end_to_end_over_tcp(self):
        async def scenario():
            service = _service(REGISTRY)
            server = await service.serve(host="127.0.0.1", port=0)
            port = server.sockets[0].getsockname()[1]
            try:
                answer = await asyncio.wait_for(
                    query_fleet(
                        {
                            "kind": "placement",
                            "chassis": "c0",
                            "job_power_w": 6.0,
                        },
                        port=port,
                    ),
                    timeout=30.0,
                )
            finally:
                server.close()
                await server.wait_closed()
                await service.stop()
            return answer

        answer = asyncio.run(scenario())
        assert answer["status"] == "ok"
        assert answer["payload"]["socket"] in (0, 1)
        assert answer["attempts"] == 1

    def test_submit_direct(self):
        async def scenario():
            service = _service(REGISTRY)
            await service.start()
            try:
                return await asyncio.wait_for(
                    service.submit(
                        PlacementQuery(chassis="c0", job_power_w=3.0)
                    ),
                    timeout=30.0,
                )
            finally:
                await service.stop()

        answer = asyncio.run(scenario())
        assert answer.status.value == "ok"

    def test_stopped_service_answers_one_error_line(self):
        """A stopped service refuses work at once: stop() closes the
        connection of a client that was connected, a client that
        connects afterwards gets one error line, and nothing is logged
        after ``fleet_end``."""
        bus, events = _collector()

        async def scenario():
            service = _service(REGISTRY, bus=bus)
            async with _serving(service) as port:
                reader, writer = await asyncio.open_connection(LOCAL, port)
                writer.write(PLACEMENT_LINE)
                first = await asyncio.wait_for(reader.readline(), timeout=30.0)
                await service.stop()
                end = await asyncio.wait_for(reader.readline(), timeout=3.0)
                writer.close()
                late_reader, late_writer = await asyncio.open_connection(
                    LOCAL, port
                )
                late_writer.write(PLACEMENT_LINE)
                reply = await asyncio.wait_for(
                    late_reader.readline(), timeout=3.0
                )
                late_writer.close()
                with pytest.raises(FleetError, match="finished"):
                    await asyncio.wait_for(
                        service.submit(
                            PlacementQuery(chassis="c0", job_power_w=3.0)
                        ),
                        timeout=3.0,
                    )
            return json.loads(first), end, json.loads(reply)

        first, end, reply = asyncio.run(scenario())
        assert first["status"] == "ok"
        assert end == b""
        assert reply["status"] == "error"
        assert "finished" in reply["reason"]
        assert events[-1]["type"] == "fleet_end"
        assert check_fleet_events(events) == []

    def test_client_leaving_before_its_answer_harms_nothing(self):
        """A client that sends a placement and closes at once does not
        disturb the next client, its request still gets exactly one
        terminal event, and stop() returns cleanly."""
        bus, events = _collector()

        async def scenario():
            service = _service(REGISTRY, bus=bus)
            async with _serving(service) as port:
                _, leaver = await asyncio.open_connection(LOCAL, port)
                leaver.write(PLACEMENT_LINE)
                await leaver.drain()
                leaver.close()
                await leaver.wait_closed()
                reader, writer = await asyncio.open_connection(LOCAL, port)
                writer.write(PLACEMENT_LINE)
                reply = await asyncio.wait_for(reader.readline(), timeout=30.0)
                writer.close()
            return json.loads(reply)

        reply = asyncio.run(scenario())
        assert reply["status"] == "ok"
        submitted = [
            e["request_id"] for e in events if e["type"] == "fleet_submit"
        ]
        assert len(submitted) == 2
        (left,) = set(submitted) - {reply["request_id"]}
        terminals = [
            e["type"] for e in events if e.get("request_id") == left
        ]
        assert terminals.count("fleet_answer") == 1
        assert check_fleet_events(events) == []

    def test_pipelining_client_that_reads_late_gets_every_reply(self):
        """A client that writes 20 placements at once and reads nothing
        holds up no other client, then reads exactly 20 replies in
        request order: one reply per line."""

        async def scenario():
            async with _serving(_service(REGISTRY)) as port:
                slow_reader, slow = await asyncio.open_connection(LOCAL, port)
                slow.write(PLACEMENT_LINE * 20)
                reader, writer = await asyncio.open_connection(LOCAL, port)
                writer.write(PLACEMENT_LINE)
                other = await asyncio.wait_for(reader.readline(), timeout=30.0)
                writer.close()
                replies = [
                    await asyncio.wait_for(slow_reader.readline(), timeout=30.0)
                    for _ in range(20)
                ]
                slow.write_eof()
                end = await asyncio.wait_for(slow_reader.readline(), timeout=30.0)
                slow.close()
            return json.loads(other), [json.loads(r) for r in replies], end

        other, replies, end = asyncio.run(scenario())
        assert other["status"] == "ok"
        assert [r["status"] for r in replies] == ["ok"] * 20
        ids = [r["request_id"] for r in replies]
        assert ids == sorted(set(ids)) and len(ids) == 20
        assert end == b""

    def test_stop_aborts_a_client_that_never_reads(self, monkeypatch):
        """A client whose unread replies fill every buffer cannot hold
        stop() past the grace period: its connection is aborted."""
        monkeypatch.setattr(service_module, "_CLOSE_GRACE_S", 0.2)
        service = _service(REGISTRY)

        def backed_up():
            return any(
                writer.transport.get_write_buffer_size()
                for _, writer in service._connections.values()
            )

        async def scenario():
            server = await service.serve(host=LOCAL, port=0)
            # Accepted sockets inherit this small send buffer.
            server.sockets[0].setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
            )
            client = socket.socket()
            client.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            client.connect(server.sockets[0].getsockname())
            try:
                # Each bad line earns an error reply of about 75 bytes:
                # far more than the socket buffers and the transport's
                # 64-KiB high-water mark hold.
                client.sendall(b"x\n" * 5000)
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline and not backed_up():
                    await asyncio.sleep(0.01)
                assert backed_up()
                started = time.monotonic()
                await asyncio.wait_for(service.stop(), timeout=10.0)
                return time.monotonic() - started
            finally:
                client.close()
                server.close()
                await server.wait_closed()

        assert asyncio.run(scenario()) < 5.0
        assert service._connections == {}

    def test_second_stop_returns_at_once(self):
        bus, events = _collector()

        async def scenario():
            service = _service(REGISTRY, bus=bus)
            await service.start()
            await service.stop()
            await asyncio.wait_for(service.stop(), timeout=3.0)

        asyncio.run(scenario())
        assert [e["type"] for e in events].count("fleet_end") == 1
        assert check_fleet_events(events) == []


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs process workers",
)
def test_serve_cli_closes_its_log_on_sigint(tmp_path):
    """``repro fleet serve --telemetry DIR`` answers a placement, exits 0
    on SIGINT and leaves a complete, checked ``fleet.jsonl``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "fleet", "serve", "--port", "0",
            "--chassis", "1", "--telemetry", str(tmp_path),
        ],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        port = int(re.search(r", (\d+)\)", proc.stdout.readline()).group(1))
        answer = asyncio.run(
            asyncio.wait_for(
                query_fleet(
                    {"kind": "placement", "chassis": "c0", "job_power_w": 6.0},
                    port=port,
                ),
                timeout=30.0,
            )
        )
        proc.send_signal(signal.SIGINT)
        proc.communicate(timeout=30.0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    assert answer["status"] == "ok"
    assert proc.returncode == 0
    lines = (tmp_path / "fleet.jsonl").read_text().splitlines()
    assert json.loads(lines[-1])["type"] == "fleet_end"
    assert check_directory(tmp_path) == []


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs process workers",
)
def test_serve_cli_stops_quietly_with_a_client_connected():
    """SIGINT with an idle client connected: the client reads the end
    of its stream, and the server exits 0 with nothing on stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "fleet", "serve", "--port", "0",
            "--chassis", "1",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )

    async def idle_client(port):
        reader, writer = await asyncio.open_connection(LOCAL, port)
        try:
            writer.write(PLACEMENT_LINE)
            answer = await asyncio.wait_for(reader.readline(), timeout=30.0)
            # Connected and idle: the server has served this client.
            proc.send_signal(signal.SIGINT)
            end = await asyncio.wait_for(reader.readline(), timeout=30.0)
        finally:
            writer.close()
        return json.loads(answer), end

    try:
        port = int(re.search(r", (\d+)\)", proc.stdout.readline()).group(1))
        answer, end = asyncio.run(idle_client(port))
        out, err = proc.communicate(timeout=30.0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert answer["status"] == "ok"
    assert end == b""
    assert proc.returncode == 0
    assert err == ""
    assert out == "fleet: stopped\n"


async def _exchange(service, lines):
    """Serve ``lines`` over one TCP connection; one reply per line."""
    server = await service.serve(host="127.0.0.1", port=0)
    port = server.sockets[0].getsockname()[1]
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        replies = []
        for line in lines:
            writer.write(line + b"\n")
            await writer.drain()
            reply = await asyncio.wait_for(reader.readline(), timeout=30.0)
            assert reply, f"connection dropped after {line[:40]!r}"
            replies.append(json.loads(reply))
        return replies
    finally:
        writer.close()
        server.close()
        await server.wait_closed()
        await service.stop()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs process workers",
)
@pytest.mark.usefixtures("fast_ticks")
class TestHostileInput:
    """Bad lines get one structured reply and harm nothing else."""

    def test_malformed_queries_leave_workers_in_service(self):
        registry = demo_fleet(1, n_rows=1, replicas=1)
        n_sockets = registry.chassis["c0"].build_topology().n_sockets

        def placement(power="6.0", utilization=None):
            line = f'{{"kind": "placement", "chassis": "c0", ' \
                f'"job_power_w": {power}'
            if utilization is not None:
                line += f', "utilization": {utilization}'
            return (line + "}").encode()

        def what_if(utilization, power):
            return (
                f'{{"kind": "what_if", "chassis": "c0", '
                f'"scenarios": [[{utilization}, {power}]]}}'
            ).encode()

        malformed = [
            what_if("2.0", "10.0"),
            what_if("NaN", "10.0"),
            what_if("0.5", "Infinity"),
            what_if("0.5", "-1.0"),
            placement(utilization=json.dumps([0.5] * (n_sockets + 1))),
            placement(utilization=json.dumps([1.5] * n_sockets)),
            placement(utilization=json.dumps([-0.2] * n_sockets)),
            placement(power="NaN"),
            placement(power="Infinity"),
            placement(power="-Infinity"),
            # Finite, but the answer overflows to NaN.
            what_if("0.5", "1e308"),
        ]
        service = _service(registry)
        replies = asyncio.run(
            _exchange(service, malformed + [placement()])
        )
        *bad, good = replies
        statuses = [reply["status"] for reply in bad]
        assert statuses == ["error"] * 4 + ["failed"] + ["error"] * 6
        assert f"has {n_sockets} sockets" in bad[4]["reason"]
        assert good["status"] == "ok"
        assert good["attempts"] == 1
        supervisors = service.coordinator.supervisors.values()
        assert [sup.restarts for sup in supervisors] == [0, 0]

    def test_undecodable_lines_get_one_error_each(self):
        service = _service(REGISTRY)
        valid = json.dumps(
            {"kind": "placement", "chassis": "c0", "job_power_w": 6.0}
        ).encode()
        replies = asyncio.run(
            _exchange(
                service,
                [
                    b'{"kind": "placement", "chassis": "\xff\xfe"}',
                    b'{"kind": "placement", "chassis": "' + b"x" * 70_000
                    + b'", "job_power_w": 6.0}',
                    b"[" * 30_000 + b"]" * 30_000,
                    valid,
                ],
            )
        )
        assert [reply["status"] for reply in replies] == [
            "error", "error", "error", "ok"
        ]
        assert "utf-8" in replies[0]["reason"]
        assert "limit" in replies[1]["reason"]


def test_over_long_line_is_skipped_even_when_split_across_reads():
    """The rest of an over-long line arriving later is still dropped,
    so it earns one error, not one per fragment."""

    async def scenario():
        reader = asyncio.StreamReader(limit=16)

        async def feed():
            for chunk in (b"a" * 10, b"b" * 10, b"c" * 10, b'd\n{"k": 1}\n'):
                await asyncio.sleep(0.01)
                reader.feed_data(chunk)
            reader.feed_data(b"tail")
            reader.feed_eof()

        feeder = asyncio.ensure_future(feed())
        lines = [await _read_line(reader) for _ in range(4)]
        await feeder
        return lines

    assert asyncio.run(scenario()) == [None, b'{"k": 1}\n', b"tail", b""]


def _untimed_service(**config):
    """A service for the ``untimed_ticks`` tests: its first tick would
    come only after an hour."""
    return FleetService(
        REGISTRY,
        policy=SupervisionPolicy(heartbeat_interval_s=0.2),
        config=FleetConfig(log_heartbeats=False, **config),
    )


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs process workers",
)
@pytest.mark.usefixtures("untimed_ticks")
class TestDispatchAtAdmission:
    """A query leaves for a worker when admitted, not at the next tick."""

    def test_admitted_query_is_inflight_before_any_tick(self):
        async def scenario():
            service = _untimed_service()
            await service.start()
            try:
                caller = asyncio.ensure_future(
                    service.submit(
                        PlacementQuery(chassis="c0", job_power_w=3.0)
                    )
                )
                await asyncio.sleep(0)  # run submit up to its await
                inflight = dict(service.coordinator.inflight)
                queued = list(service.coordinator.queue)
            finally:
                await service.stop()
            return inflight, queued, await caller

        inflight, queued, answer = asyncio.run(scenario())
        assert list(inflight) == [answer.request_id]
        assert inflight[answer.request_id].worker_id == "c0-w0"
        assert queued == []

    def test_terminal_admission_dispatches_nothing(self):
        """Shed and admission failures answer at once and ship nothing."""

        async def scenario():
            # One slot on the one worker, one queue place: the first
            # query ships, the second waits, the third is shed.
            service = _untimed_service(max_queue=1, max_inflight_per_worker=1)
            await service.start()
            coordinator = service.coordinator
            try:
                callers = [
                    asyncio.ensure_future(
                        service.submit(
                            PlacementQuery(chassis="c0", job_power_w=power)
                        )
                    )
                    for power in (3.0, 4.0)
                ]
                await asyncio.sleep(0)
                before = (dict(coordinator.inflight), list(coordinator.queue))
                shed = await service.submit(
                    PlacementQuery(chassis="c0", job_power_w=5.0)
                )
                failed = await service.submit(
                    PlacementQuery(chassis="nowhere", job_power_w=5.0)
                )
                after = (dict(coordinator.inflight), list(coordinator.queue))
            finally:
                await service.stop()
            await asyncio.gather(*callers)
            return before, shed, failed, after

        before, shed, failed, after = asyncio.run(scenario())
        inflight, queued = before
        assert len(inflight) == 1 and len(queued) == 1
        assert shed.status is AnswerStatus.SHED
        assert failed.status is AnswerStatus.FAILED
        assert after == before


@pytest.mark.parametrize(
    "tick, now, expected",
    [
        (0, 0.0, 1),  # the first tick is one interval after start
        (1, 0.0535, 2),  # tick 1 ended before tick 2 was due
        (3, 0.2, 4),  # tick 3 ended just as tick 4 fell due
        (3, 0.28, 6),  # tick 3 overran ticks 4 and 5: both skipped
    ],
)
def test_next_tick_follows_the_grid(tick, now, expected):
    assert _next_tick(tick, now, 0.05) == expected


def test_tick_loop_keeps_a_fixed_cadence(monkeypatch):
    """Ticks land on the start + k * interval grid, and the deadlines a
    slow tick overran are skipped, not run in a burst."""
    clock = [0.0]
    ticks = []
    costs = [0.004, 0.004, 0.13, 0.004]

    class Done(Exception):
        pass

    class Coordinator:
        def tick(self, now):
            ticks.append(round(now, 9))
            if len(ticks) == len(costs):
                raise Done
            clock[0] += costs[len(ticks) - 1]

    async def fake_sleep(delay):
        clock[0] += max(delay, 0.0)

    monkeypatch.setattr(service_module, "TICK_INTERVAL_S", 0.05)
    service = FleetService(REGISTRY)
    service.coordinator = Coordinator()
    monkeypatch.setattr(service, "_now", lambda: clock[0])
    monkeypatch.setattr(asyncio, "sleep", fake_sleep)
    with pytest.raises(Done):
        asyncio.run(service._tick_loop())
    assert ticks == [0.05, 0.1, 0.15, 0.3]


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs process workers",
)
def test_raising_tick_fails_callers_and_stop_still_cleans_up(
    tmp_path, monkeypatch
):
    """A tick that raises answers every waiting caller FAILED; stop()
    still finishes the coordinator, then re-raises."""
    monkeypatch.setattr(service_module, "TICK_INTERVAL_S", 0.01)
    log = tmp_path / "fleet.jsonl"
    writer = JsonlWriter(log)
    bus = EventBus()
    bus.subscribe(writer.emit)

    async def scenario():
        service = FleetService(
            REGISTRY,
            policy=SupervisionPolicy(heartbeat_interval_s=0.2),
            config=FleetConfig(log_heartbeats=False),
            bus=bus,
        )
        await service.start()
        tick = service.coordinator.tick
        calls = []

        def tick_raising_once(now):
            calls.append(now)
            if len(calls) == 1:
                raise RuntimeError("tick exploded")
            tick(now)

        service.coordinator.tick = tick_raising_once
        query = PlacementQuery(chassis="c0", job_power_w=3.0)
        answer = await asyncio.wait_for(service.submit(query), timeout=30.0)
        with pytest.raises(FleetError, match="tick exploded"):
            await service.submit(query)
        with pytest.raises(RuntimeError, match="tick exploded"):
            await service.stop()
        return answer, service

    try:
        answer, service = asyncio.run(scenario())
    finally:
        writer.close()
    assert answer.status is AnswerStatus.FAILED
    assert "tick exploded" in answer.reason
    assert service.coordinator.finished
    assert service.coordinator.pending == 0
    assert check_fleet_log(log) == []
    last = json.loads(log.read_text().splitlines()[-1])
    assert last["type"] == "fleet_end"
