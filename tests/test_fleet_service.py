"""Process-worker and asyncio service tests (real time, real pipes)."""

import asyncio
import json
import math
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.errors import FleetError
from repro.fleet.compute import ChassisSnapshot
from repro.fleet.coordinator import FleetConfig
from repro.fleet.invariants import check_fleet_log
from repro.fleet.messages import AnswerStatus, PlacementQuery, QueryBatch
from repro.fleet.registry import (
    ChassisSpec,
    FleetRegistry,
    WorkerSpec,
    demo_fleet,
)
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
from repro.obs.session import TelemetrySession

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


def _service(registry):
    return FleetService(
        registry,
        policy=SupervisionPolicy(heartbeat_interval_s=0.2),
        config=FleetConfig(
            request_timeout_s=15.0,
            queue_timeout_s=30.0,
            log_heartbeats=False,
        ),
        tick_interval_s=0.02,
    )


@pytest.mark.parametrize("interval", [0.0, -0.05, math.nan, math.inf])
def test_bad_tick_interval_rejected(interval):
    with pytest.raises(FleetError, match="tick_interval_s"):
        FleetService(REGISTRY, tick_interval_s=interval)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs process workers",
)
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
    """A service whose first tick would come only after an hour."""
    return FleetService(
        REGISTRY,
        policy=SupervisionPolicy(heartbeat_interval_s=0.2),
        config=FleetConfig(log_heartbeats=False, **config),
        tick_interval_s=3600.0,
    )


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs process workers",
)
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

    service = FleetService(REGISTRY, tick_interval_s=0.05)
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
def test_raising_tick_fails_callers_and_stop_still_cleans_up(tmp_path):
    """A tick that raises answers every waiting caller FAILED; stop()
    still finishes the coordinator and closes the log, then re-raises."""
    log = tmp_path / "fleet.jsonl"

    async def scenario():
        session = TelemetrySession(log)
        service = FleetService(
            REGISTRY,
            policy=SupervisionPolicy(heartbeat_interval_s=0.2),
            config=FleetConfig(log_heartbeats=False),
            session=session,
            tick_interval_s=0.01,
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
        return answer, session, service

    answer, session, service = asyncio.run(scenario())
    assert answer.status is AnswerStatus.FAILED
    assert "tick exploded" in answer.reason
    assert session.closed
    assert service.coordinator.pending == 0
    assert check_fleet_log(log) == []
    last = json.loads(log.read_text().splitlines()[-1])
    assert last["type"] == "fleet_end"
