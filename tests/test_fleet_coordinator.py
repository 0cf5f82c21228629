"""Tests for the fleet coordinator: queueing, retries, degradation."""

import pytest

from repro.errors import FleetError
from repro.fleet.compute import ChassisSnapshot
from repro.fleet.coordinator import FleetConfig, FleetCoordinator
from repro.fleet.messages import (
    AnswerStatus,
    PlacementQuery,
    RequestClass,
    WhatIfQuery,
)
from repro.fleet.registry import (
    ChassisSpec,
    FleetRegistry,
    WorkerSpec,
)
from repro.fleet.supervision import SupervisionPolicy, WorkerState


class ScriptedHandle:
    """A hand-driven WorkerHandle: tests place messages in ``inbox``.

    ``sent`` lists every dispatched batch member as
    ``(request_id, query, now)``; :meth:`answer` scripts the reply.
    """

    def __init__(self, worker_id, cold_on_start=False):
        self.worker_id = worker_id
        self.cold_on_start = cold_on_start
        self.batches = []
        self.sent = []
        self.inbox = []
        self.starts = 0
        self.stops = 0

    def start(self, now):
        self.starts += 1
        return self.cold_on_start

    def stop(self, now):
        self.stops += 1

    def send_batch(self, batch, now):
        self.batches.append(batch)
        self.sent.extend(
            (rid, q, now) for rid, q in zip(batch.request_ids, batch.queries)
        )

    def answer(self, rid, payload):
        """Queue the reply to the latest batch that carried ``rid``."""
        bid = next(
            b.batch_id for b in reversed(self.batches) if rid in b.request_ids
        )
        self.inbox.append(("answer_batch", bid, [(rid, payload)], {}))

    def poll(self, now):
        messages, self.inbox = self.inbox, []
        return messages


def make_fleet(replicas=0, **config_kw):
    registry = FleetRegistry(
        chassis={"c0": ChassisSpec(chassis_id="c0")},
        workers=tuple(
            WorkerSpec(worker_id=f"w{i}", chassis_id="c0")
            for i in range(1 + replicas)
        ),
    )
    handles = {
        w.worker_id: ScriptedHandle(w.worker_id)
        for w in registry.workers
    }
    config_kw.setdefault("retry_jitter_s", 0.0)
    coordinator = FleetCoordinator(
        registry=registry,
        handles=handles,
        policy=SupervisionPolicy(
            heartbeat_interval_s=1.0,
            missed_heartbeats=2,
            restart_backoff_s=0.5,
            restart_backoff_cap_s=2.0,
            max_restarts=1,
        ),
        config=FleetConfig(**config_kw),
    )
    coordinator.start(0.0)
    return coordinator, handles


def snapshot(chassis="c0", t=0.0):
    return ChassisSnapshot(
        chassis_id=chassis,
        t=t,
        utilization=(0.5, 0.5),
        chip_c=(48.0, 41.0),
        power_w=(22.0, 21.0),
    )


def query(cls=RequestClass.INTERACTIVE):
    return PlacementQuery(
        chassis="c0", job_power_w=10.0, request_class=cls
    )


class TestHappyPath:
    def test_answer_round_trip_exactly_once(self):
        coordinator, handles = make_fleet()
        rid = coordinator.submit(query(), 0.0)
        coordinator.tick(0.1)
        assert handles["w0"].sent[0][0] == rid
        handles["w0"].answer(rid, {"socket": 1})
        coordinator.tick(0.2)
        answer = coordinator.answers[rid]
        assert answer.status is AnswerStatus.OK
        assert answer.payload == {"socket": 1}
        assert answer.attempts == 1
        terminals = [
            e
            for e in coordinator.events
            if e["type"] in ("fleet_answer", "fleet_shed")
            and e["request_id"] == rid
        ]
        assert len(terminals) == 1
        assert coordinator.pending == 0

    def test_submit_ships_at_once_without_a_window(self):
        coordinator, handles = make_fleet()
        rid = coordinator.submit(query(), 0.0)
        assert [s[0] for s in handles["w0"].sent] == [rid]
        assert coordinator.queue == []
        assert coordinator.inflight[rid].worker_id == "w0"

    def test_default_config_ships_one_member_batches(self):
        coordinator, handles = make_fleet()
        rids = [coordinator.submit(query(), 0.0) for _ in range(3)]
        coordinator.tick(0.0)
        assert [b.request_ids for b in handles["w0"].batches] == [
            (rid,) for rid in rids
        ]
        for rid in rids:
            handles["w0"].answer(rid, {"socket": rid})
        coordinator.tick(0.1)
        batches = [
            e for e in coordinator.events if e["type"] == "fleet_batch"
        ]
        assert len(batches) == len(rids)
        assert all(e["size"] == 1 for e in batches)
        assert all(e["window_wait_s"] == 0.0 for e in batches)
        for rid in rids:
            assert coordinator.answers[rid].payload == {"socket": rid}

    def test_unknown_chassis_fails_immediately(self):
        coordinator, _ = make_fleet()
        rid = coordinator.submit(
            PlacementQuery(chassis="nope", job_power_w=5.0), 0.0
        )
        assert coordinator.answers[rid].status is AnswerStatus.FAILED
        assert "nope" in coordinator.answers[rid].reason

    def test_snapshot_messages_update_cache(self):
        coordinator, handles = make_fleet()
        handles["w0"].inbox.append(("snapshot", snapshot()))
        coordinator.tick(0.5)
        snap, received_t = coordinator.snapshots["c0"]
        assert snap.peak_chip_c == 48.0
        assert received_t == 0.5

    def test_callback_fires_on_completion(self):
        coordinator, handles = make_fleet()
        seen = []
        rid = coordinator.submit(query(), 0.0, callback=seen.append)
        coordinator.tick(0.1)
        handles["w0"].answer(rid, {})
        coordinator.tick(0.2)
        assert [a.request_id for a in seen] == [rid]


class TestBackpressure:
    def test_queue_bound_sheds_batch_arrivals(self):
        coordinator, _ = make_fleet(
            max_queue=2, max_inflight_per_worker=1
        )
        # One request goes inflight; two more fill the queue.
        blocker = coordinator.submit(query(RequestClass.BATCH), 0.0)
        coordinator.tick(0.0)
        rids = [
            blocker,
            coordinator.submit(query(RequestClass.BATCH), 0.0),
            coordinator.submit(query(RequestClass.BATCH), 0.0),
        ]
        assert len(coordinator.queue) == 2
        shed_rid = coordinator.submit(
            WhatIfQuery(chassis="c0", scenarios=((0.5, 9.0),)), 0.1
        )
        answer = coordinator.answers[shed_rid]
        assert answer.status is AnswerStatus.SHED
        assert answer.reason == "queue_full"
        for rid in rids:
            assert rid not in coordinator.answers

    def test_interactive_evicts_youngest_batch(self):
        coordinator, _ = make_fleet(
            max_queue=2, max_inflight_per_worker=1
        )
        blocker = coordinator.submit(query(RequestClass.BATCH), 0.0)
        coordinator.tick(0.0)  # blocker goes inflight
        older = coordinator.submit(query(RequestClass.BATCH), 0.1)
        younger = coordinator.submit(query(RequestClass.BATCH), 0.2)
        vip = coordinator.submit(query(RequestClass.INTERACTIVE), 0.3)
        assert coordinator.answers[younger].status is AnswerStatus.SHED
        assert (
            coordinator.answers[younger].reason
            == "evicted_for_interactive"
        )
        assert older not in coordinator.answers
        assert vip not in coordinator.answers
        assert blocker not in coordinator.answers
        assert len(coordinator.queue) == 2

    def test_interactive_full_queue_sheds_the_arrival(self):
        coordinator, _ = make_fleet(
            max_queue=1, max_inflight_per_worker=1
        )
        coordinator.submit(query(), 0.0)
        coordinator.tick(0.0)
        coordinator.submit(query(), 0.1)  # fills the queue
        shed = coordinator.submit(query(), 0.2)
        assert coordinator.answers[shed].status is AnswerStatus.SHED
        assert coordinator.answers[shed].reason == "queue_full"

    def test_shed_emits_no_answer_event(self):
        coordinator, _ = make_fleet(
            max_queue=1, max_inflight_per_worker=1
        )
        coordinator.submit(query(), 0.0)
        coordinator.tick(0.0)
        coordinator.submit(query(), 0.1)
        shed = coordinator.submit(query(), 0.2)
        kinds = [
            e["type"]
            for e in coordinator.events
            if e.get("request_id") == shed
        ]
        assert kinds == ["fleet_submit", "fleet_shed"]


class TestRetriesAndTimeouts:
    def test_timeout_retries_on_replica_only(self):
        coordinator, handles = make_fleet(
            replicas=1, request_timeout_s=1.0, max_attempts=2
        )
        rid = coordinator.submit(query(), 0.0)
        coordinator.tick(0.0)
        assert [s[0] for s in handles["w0"].sent] == [rid]
        coordinator.tick(1.5)  # w0 hung: attempt abandoned
        assert [s[0] for s in handles["w1"].sent] == [rid]
        assert [s[0] for s in handles["w0"].sent] == [rid]
        handles["w1"].answer(rid, {"socket": 0})
        coordinator.tick(1.6)
        answer = coordinator.answers[rid]
        assert answer.status is AnswerStatus.OK
        assert answer.attempts == 2

    def test_late_answer_from_abandoned_attempt_dropped(self):
        coordinator, handles = make_fleet(
            replicas=1, request_timeout_s=1.0, max_attempts=2
        )
        rid = coordinator.submit(query(), 0.0)
        coordinator.tick(0.0)
        coordinator.tick(1.5)  # retried on w1
        handles["w1"].answer(rid, {"ok": 1})
        handles["w0"].answer(rid, {"late": 1})
        coordinator.tick(1.6)
        assert coordinator.answers[rid].payload == {"late": 1} or (
            coordinator.answers[rid].payload == {"ok": 1}
        )
        drops = [
            e for e in coordinator.events if e["type"] == "fleet_drop"
        ]
        assert len(drops) == 1
        assert drops[0]["reason"] == "late_answer"
        terminals = [
            e
            for e in coordinator.events
            if e["type"] == "fleet_answer"
            and e["request_id"] == rid
        ]
        assert len(terminals) == 1

    def test_retries_exhausted_fails_without_snapshot(self):
        coordinator, handles = make_fleet(
            request_timeout_s=1.0, max_attempts=1
        )
        rid = coordinator.submit(query(), 0.0)
        coordinator.tick(0.0)
        coordinator.tick(1.5)
        answer = coordinator.answers[rid]
        assert answer.status is AnswerStatus.FAILED
        assert "retries_exhausted" in answer.reason
        assert "no snapshot" in answer.reason

    def test_retries_exhausted_degrades_with_snapshot(self):
        coordinator, handles = make_fleet(
            request_timeout_s=1.0,
            max_attempts=1,
            max_staleness_s=60.0,
        )
        handles["w0"].inbox.append(("snapshot", snapshot()))
        coordinator.tick(0.2)
        rid = coordinator.submit(query(), 0.3)
        coordinator.tick(0.3)
        coordinator.tick(1.5)
        answer = coordinator.answers[rid]
        assert answer.status is AnswerStatus.DEGRADED
        assert answer.staleness_s == pytest.approx(1.3)
        assert answer.payload["from_snapshot"] is True
        # The stale field's coolest socket is index 1 (41 C < 48 C).
        assert answer.payload["socket"] == 1

    def test_queue_timeout_resolves_waiting_request(self):
        coordinator, _ = make_fleet(
            max_inflight_per_worker=1,
            queue_timeout_s=2.0,
        )
        blocker = coordinator.submit(query(), 0.0)
        coordinator.tick(0.0)
        waiter = coordinator.submit(query(), 0.1)
        coordinator.tick(2.5)
        answer = coordinator.answers[waiter]
        assert answer.status is AnswerStatus.FAILED
        assert "queue_timeout" in answer.reason
        assert blocker not in coordinator.answers


class TestDegradedServing:
    def quarantine_w0(self, coordinator, handles, now=0.0):
        """Burn w0's restart budget (max_restarts=1) via exits."""
        handles["w0"].inbox.append(("exit",))
        coordinator.tick(now)  # exit -> RESTARTING
        sup = coordinator.supervisors["w0"]
        restart_t = sup.next_restart_t
        coordinator.tick(restart_t)  # restart runs
        handles["w0"].inbox.append(("exit",))
        coordinator.tick(restart_t + 0.1)
        assert sup.state is WorkerState.QUARANTINED

    def test_quarantined_chassis_serves_tagged_stale_answers(self):
        coordinator, handles = make_fleet(max_staleness_s=60.0)
        handles["w0"].inbox.append(("snapshot", snapshot()))
        coordinator.tick(0.0)
        self.quarantine_w0(coordinator, handles, 0.1)
        rid = coordinator.submit(query(), 5.0)
        coordinator.tick(5.0)
        answer = coordinator.answers[rid]
        assert answer.status is AnswerStatus.DEGRADED
        assert "chassis_quarantined" in answer.reason
        assert answer.staleness_s == pytest.approx(5.0)
        degraded = [
            e
            for e in coordinator.events
            if e["type"] == "fleet_degraded"
        ]
        assert degraded[-1]["staleness_s"] == pytest.approx(5.0)

    def test_stale_snapshot_beyond_bound_fails(self):
        coordinator, handles = make_fleet(max_staleness_s=2.0)
        handles["w0"].inbox.append(("snapshot", snapshot()))
        coordinator.tick(0.0)
        self.quarantine_w0(coordinator, handles, 0.1)
        rid = coordinator.submit(query(), 10.0)
        coordinator.tick(10.0)
        answer = coordinator.answers[rid]
        assert answer.status is AnswerStatus.FAILED
        assert "snapshot stale" in answer.reason

    def test_worker_death_requeues_inflight(self):
        coordinator, handles = make_fleet(replicas=1)
        rid = coordinator.submit(query(), 0.0)
        coordinator.tick(0.0)
        assert [s[0] for s in handles["w0"].sent] == [rid]
        handles["w0"].inbox.append(("exit",))
        coordinator.tick(0.5)
        # Recovered onto the replica (no exclusion: work is lost, not
        # hung).
        assert [s[0] for s in handles["w1"].sent] == [rid]
        handles["w1"].answer(rid, {})
        coordinator.tick(0.6)
        assert coordinator.answers[rid].status is AnswerStatus.OK


class TestLifecycle:
    def test_finish_resolves_stragglers_as_shutdown(self):
        coordinator, handles = make_fleet(max_inflight_per_worker=1)
        inflight = coordinator.submit(query(), 0.0)
        coordinator.tick(0.0)
        queued = coordinator.submit(query(), 0.1)
        coordinator.finish(1.0)
        for rid in (inflight, queued):
            answer = coordinator.answers[rid]
            assert answer.status is AnswerStatus.FAILED
            assert "shutdown" in answer.reason
        assert coordinator.pending == 0
        assert handles["w0"].stops == 1
        assert coordinator.events[-1]["type"] == "fleet_end"

    def test_double_start_rejected(self):
        coordinator, _ = make_fleet()
        with pytest.raises(FleetError):
            coordinator.start(1.0)

    def test_tick_before_start_rejected(self):
        registry = FleetRegistry(
            chassis={"c0": ChassisSpec(chassis_id="c0")},
            workers=(WorkerSpec(worker_id="w0", chassis_id="c0"),),
        )
        coordinator = FleetCoordinator(
            registry=registry,
            handles={"w0": ScriptedHandle("w0")},
            policy=SupervisionPolicy(heartbeat_interval_s=1.0),
        )
        with pytest.raises(FleetError):
            coordinator.tick(0.0)

    def test_missing_handle_rejected(self):
        registry = FleetRegistry(
            chassis={"c0": ChassisSpec(chassis_id="c0")},
            workers=(WorkerSpec(worker_id="w0", chassis_id="c0"),),
        )
        with pytest.raises(FleetError, match="w0"):
            FleetCoordinator(
                registry=registry,
                handles={},
                policy=SupervisionPolicy(heartbeat_interval_s=1.0),
            )

    def test_restart_with_cold_flag_emits_restart_event(self):
        coordinator, handles = make_fleet()
        handles["w0"].cold_on_start = True
        handles["w0"].inbox.append(("exit",))
        coordinator.tick(0.0)
        sup = coordinator.supervisors["w0"]
        coordinator.tick(sup.next_restart_t)
        restarts = [
            e
            for e in coordinator.events
            if e["type"] == "fleet_restart"
        ]
        assert restarts[-1]["cold"] is True
        assert handles["w0"].starts == 2  # initial + restart
