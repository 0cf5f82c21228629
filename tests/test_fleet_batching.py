"""Micro-batching differential and edge-case tests.

Batching is a transport and compute grouping only: against the same
workload, a coalescing window must produce **bit-identical** answers
to the default window 0 / max 1 configuration, where every query
ships as a one-member batch, and every per-request guarantee
(timeouts, retries, shedding, exactly one terminal answer) must hold
for members of a batch exactly as it does for lone queries.
"""

import pytest

from repro.errors import FleetError
from repro.fleet import (
    ChassisCompute,
    FleetConfig,
    FleetCoordinator,
    QueryBatch,
    WarmFieldCache,
    check_fleet_events,
    demo_fleet,
    drive_fleet,
    generate_workload,
    query_from_json,
)
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
from repro.fleet.supervision import SupervisionPolicy


def _answers(coordinator):
    return {
        rid: (answer.status.value, repr(answer.payload))
        for rid, answer in coordinator.answers.items()
    }


def _config(**kw):
    kw.setdefault("retry_jitter_s", 0.0)
    kw.setdefault("log_heartbeats", False)
    return FleetConfig(**kw)


# -- differential oracle: batched == serial, bit for bit ---------------


@pytest.mark.parametrize("seed", [3, 11, 42])
def test_batched_answers_bit_identical_to_serial(seed):
    registry = demo_fleet(n_chassis=2, n_rows=1, replicas=1)
    workload = generate_workload(
        registry,
        seed=seed,
        n_requests=60,
        horizon_s=1.0,
        what_if_fraction=0.3,
    )
    serial = drive_fleet(
        registry,
        workload,
        _config(batch_window_s=0.0, max_batch=1),
        warm_capacity=0,
    )
    batched = drive_fleet(
        registry,
        workload,
        _config(batch_window_s=0.2, max_batch=16),
        warm_capacity=8,
    )
    assert len(serial.answers) == 60
    assert _answers(serial) == _answers(batched)
    assert check_fleet_events(serial.events) == []
    assert check_fleet_events(batched.events) == []
    batch_events = [
        e for e in batched.events if e["type"] == "fleet_batch"
    ]
    assert batch_events
    assert sum(e["size"] for e in batch_events) >= 60
    assert all(e["size"] >= 1 for e in batch_events)


def test_compute_answer_batch_matches_per_query():
    spec = demo_fleet(n_chassis=1, n_rows=1).chassis["c0"]
    serial_compute = ChassisCompute(spec)
    batch_compute = ChassisCompute(spec, warm_capacity=8)
    queries = [
        PlacementQuery(chassis=spec.chassis_id, job_power_w=9.0),
        WhatIfQuery(
            chassis=spec.chassis_id,
            scenarios=((0.4, 10.0), (0.8, 14.0)),
        ),
        PlacementQuery(
            chassis=spec.chassis_id,
            job_power_w=13.5,
            utilization=(0.7,) * spec.build_topology().n_sockets,
        ),
        PlacementQuery(chassis=spec.chassis_id, job_power_w=6.25),
        WhatIfQuery(
            chassis=spec.chassis_id, scenarios=((0.6, 12.0),)
        ),
    ]
    expected = [serial_compute.answer(q) for q in queries]
    payloads, stats = batch_compute.answer_batch(queries)
    assert payloads == expected  # bit-identical floats included
    # Three placements over two distinct states, one stacked eval.
    assert stats["n_states"] == 2
    assert stats["n_evaluations"] == 1
    assert stats["warm_misses"] >= 2


# -- scripted-handle edges: window, timeout, shed, retry ---------------


class BatchScriptedHandle:
    """Hand-driven worker handle that records batch sends."""

    def __init__(self, worker_id):
        self.worker_id = worker_id
        self.batches = []
        self.inbox = []

    def start(self, now):
        return False

    def stop(self, now):
        pass

    def send_batch(self, batch, now):
        self.batches.append((batch, now))

    def poll(self, now):
        messages, self.inbox = self.inbox, []
        return messages


def make_batching_fleet(replicas=0, **config_kw):
    registry = FleetRegistry(
        chassis={"c0": ChassisSpec(chassis_id="c0")},
        workers=tuple(
            WorkerSpec(worker_id=f"w{i}", chassis_id="c0")
            for i in range(1 + replicas)
        ),
    )
    handles = {
        w.worker_id: BatchScriptedHandle(w.worker_id)
        for w in registry.workers
    }
    coordinator = FleetCoordinator(
        registry=registry,
        handles=handles,
        policy=SupervisionPolicy(
            heartbeat_interval_s=1.0,
            missed_heartbeats=1000,  # supervision is not under test
        ),
        config=_config(**config_kw),
    )
    coordinator.start(0.0)
    return coordinator, handles


def place(cls=RequestClass.INTERACTIVE):
    return PlacementQuery(
        chassis="c0", job_power_w=10.0, request_class=cls
    )


def test_partial_batch_held_until_window_expires():
    coordinator, handles = make_batching_fleet(
        batch_window_s=1.0, max_batch=4
    )
    coordinator.submit(place(), 0.0)
    coordinator.submit(place(), 0.0)
    coordinator.tick(0.5)
    assert handles["w0"].batches == []  # window still open
    assert len(coordinator.queue) == 2
    coordinator.tick(1.5)
    assert len(handles["w0"].batches) == 1
    batch, sent_at = handles["w0"].batches[0]
    assert len(batch) == 2
    assert sent_at == 1.5
    assert coordinator.queue == []


def test_full_batch_flushes_before_window():
    coordinator, handles = make_batching_fleet(
        batch_window_s=10.0, max_batch=3
    )
    for _ in range(4):
        coordinator.submit(place(), 0.0)
    assert handles["w0"].batches == []  # a window ships only at ticks
    coordinator.tick(0.1)
    # One full chunk ships immediately; the leftover member waits.
    assert [len(b) for b, _ in handles["w0"].batches] == [3]
    assert len(coordinator.queue) == 1


def test_member_timeout_retries_on_replica_only():
    coordinator, handles = make_batching_fleet(
        replicas=1,
        batch_window_s=0.1,
        max_batch=8,
        request_timeout_s=1.0,
        max_attempts=2,
    )
    rid_a = coordinator.submit(place(), 0.0)
    rid_b = coordinator.submit(place(), 0.0)
    assert handles["w0"].batches == []  # the window holds both
    coordinator.tick(0.1)  # window expired: both ship as one batch
    batch, _ = handles["w0"].batches[0]
    assert set(batch.request_ids) == {rid_a, rid_b}
    # The worker answers only member A, then hangs on B.
    handles["w0"].inbox.append(
        ("answer_batch", batch.batch_id, [(rid_a, {"ok": 1})], {})
    )
    coordinator.tick(0.2)
    assert coordinator.answers[rid_a].status is AnswerStatus.OK
    assert rid_b not in coordinator.answers
    # B times out inside the batch and retries on the replica only,
    # once the window that holds the retry has passed.
    coordinator.tick(1.5)
    coordinator.tick(1.6)
    assert len(handles["w1"].batches) == 1
    retry_batch, _ = handles["w1"].batches[0]
    assert retry_batch.request_ids == (rid_b,)
    assert handles["w0"].batches[-1][0] is batch  # never re-sent to w0
    handles["w1"].inbox.append(
        (
            "answer_batch",
            retry_batch.batch_id,
            [(rid_b, {"ok": 2})],
            {},
        )
    )
    coordinator.tick(1.7)
    assert coordinator.answers[rid_b].status is AnswerStatus.OK
    assert coordinator.answers[rid_b].attempts == 2
    # A late answer from the abandoned first attempt is dropped.
    handles["w0"].inbox.append(
        ("answer_batch", batch.batch_id, [(rid_b, {"ok": 3})], {})
    )
    coordinator.tick(1.8)
    assert coordinator.answers[rid_b].payload == {"ok": 2}
    drops = [
        e for e in coordinator.events if e["type"] == "fleet_drop"
    ]
    assert [e["request_id"] for e in drops] == [rid_b]
    problems = check_fleet_events(coordinator.events)
    assert problems == []


def test_shed_evicts_held_batch_member():
    coordinator, handles = make_batching_fleet(
        batch_window_s=3.0, max_batch=8, max_queue=2
    )
    rid_batch = coordinator.submit(place(RequestClass.BATCH), 0.0)
    coordinator.submit(place(RequestClass.BATCH), 0.0)
    coordinator.tick(0.1)
    assert handles["w0"].batches == []  # both held for the window
    # The queue is full; an interactive arrival evicts the newest
    # BATCH member even though it was already grouped once.
    rid_int = coordinator.submit(place(), 0.2)
    shed = [
        e for e in coordinator.events if e["type"] == "fleet_shed"
    ]
    assert len(shed) == 1
    assert shed[0]["reason"] == "evicted_for_interactive"
    shed_rid = shed[0]["request_id"]
    assert coordinator.answers[shed_rid].status is AnswerStatus.SHED
    # Window expiry flushes the survivors; the shed member is gone.
    coordinator.tick(3.5)
    batch, _ = handles["w0"].batches[0]
    assert shed_rid not in batch.request_ids
    assert set(batch.request_ids) == (
        {rid_batch, rid_int} - {shed_rid}
    )
    # Answer the survivors: every request ends with exactly one
    # terminal (the shed member got its SHED, nothing got two).
    handles["w0"].inbox.append(
        (
            "answer_batch",
            batch.batch_id,
            [(rid, {"ok": rid}) for rid in batch.request_ids],
            {},
        )
    )
    coordinator.tick(3.6)
    assert check_fleet_events(coordinator.events) == []


def test_queue_timeout_inside_window():
    coordinator, handles = make_batching_fleet(
        batch_window_s=100.0, max_batch=8, queue_timeout_s=1.0
    )
    rid = coordinator.submit(place(), 0.0)
    coordinator.tick(0.5)
    assert handles["w0"].batches == []
    coordinator.tick(2.0)  # queue deadline beats the window
    assert handles["w0"].batches == []
    answer = coordinator.answers[rid]
    assert answer.status in (
        AnswerStatus.DEGRADED,
        AnswerStatus.FAILED,
    )
    assert check_fleet_events(coordinator.events) == []


# -- warm-field cache --------------------------------------------------


def test_warm_cache_hits_are_bit_identical():
    spec = demo_fleet(n_chassis=1, n_rows=1).chassis["c0"]
    compute = ChassisCompute(spec, warm_capacity=4)
    query = PlacementQuery(chassis=spec.chassis_id, job_power_w=8.0)
    cold = compute.place(query)
    assert compute.warm.misses == 1
    warm = compute.place(query)
    assert compute.warm.hits == 1
    assert warm == cold


def test_snapshot_state_change_invalidates_warm_cache():
    spec = demo_fleet(n_chassis=1, n_rows=1).chassis["c0"]
    n = spec.build_topology().n_sockets
    compute = ChassisCompute(spec, warm_capacity=4)
    compute.snapshot()  # establishes the base state, retains nothing
    base_fp = compute.state_fingerprint(None)
    compute.place(
        PlacementQuery(chassis=spec.chassis_id, job_power_w=8.0)
    )
    assert base_fp in compute.warm
    # Same state again: no invalidation, the entry survives.
    compute.snapshot()
    assert base_fp in compute.warm
    # A state *change* drops every entry but re-retains the new field.
    changed = (0.9,) * n
    compute.snapshot(utilization=changed)
    assert base_fp not in compute.warm
    assert compute.state_fingerprint(changed) in compute.warm
    assert len(compute.warm) == 1


def test_warm_cache_capacity_zero_disables_retention():
    cache = WarmFieldCache(capacity=0)
    cache.put("fp", object())
    assert len(cache) == 0
    assert cache.get("fp") is None
    assert cache.misses == 1
    with pytest.raises(FleetError):
        WarmFieldCache(capacity=-1)


def test_warm_cache_evicts_least_recently_used():
    cache = WarmFieldCache(capacity=2)
    a, b, c = object(), object(), object()
    cache.put("a", a)
    cache.put("b", b)
    assert cache.get("a") is a  # refresh a; b is now LRU
    cache.put("c", c)
    assert "b" not in cache
    assert cache.get("a") is a
    assert cache.get("c") is c


# -- configuration: defaults, validation, wire parsing ----------------


def test_resolve_batching_precedence():
    # Explicit values win; the defaults ship one-member batches.
    config = FleetConfig(batch_window_s=0.5, max_batch=4)
    assert (config.batch_window_s, config.max_batch) == (0.5, 4)
    config = FleetConfig()
    assert (config.batch_window_s, config.max_batch) == (0.0, 1)
    with pytest.raises(FleetError, match="batch_window_s"):
        FleetConfig(batch_window_s=-0.5)
    with pytest.raises(FleetError, match="batch_window_s"):
        FleetConfig(batch_window_s=-1.0)
    for bad in (-1, 0):
        with pytest.raises(FleetError, match="max_batch"):
            FleetConfig(max_batch=bad)


@pytest.mark.parametrize(
    "field",
    [
        "batch_window_s",
        "request_timeout_s",
        "queue_timeout_s",
        "retry_jitter_s",
        "max_staleness_s",
    ],
)
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_config_rejected_naming_field(field, value):
    with pytest.raises(FleetError, match=field):
        FleetConfig(**{field: value})


@pytest.mark.parametrize(
    "field, value",
    [
        ("tick_s", float("nan")),
        ("tick_s", float("inf")),
        ("tick_s", 0.0),
        ("drain_s", -5.0),
        ("drain_s", float("nan")),
        ("drain_s", float("inf")),
    ],
)
def test_drive_fleet_rejects_bad_times_before_any_worker_starts(
    monkeypatch, field, value
):
    """A NaN tick used to loop forever, an infinite one died at the
    first submit, and a negative drain submitted nothing."""

    def started(self, now):
        raise AssertionError("a worker started")

    monkeypatch.setattr(FleetCoordinator, "start", started)
    registry = demo_fleet(n_chassis=1, n_rows=1, replicas=1)
    workload = generate_workload(
        registry, seed=0, n_requests=4, horizon_s=0.1
    )
    with pytest.raises(FleetError, match=field):
        drive_fleet(registry, workload, _config(), **{field: value})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
def test_generate_workload_rejects_bad_horizon(value):
    registry = demo_fleet(n_chassis=1, n_rows=1, replicas=1)
    with pytest.raises(FleetError, match="horizon_s"):
        generate_workload(registry, seed=0, n_requests=4, horizon_s=value)


def test_query_batch_validation():
    ok = PlacementQuery(chassis="c0", job_power_w=5.0)
    with pytest.raises(FleetError):
        QueryBatch(
            batch_id=0, chassis="c0", request_ids=(), queries=()
        )
    with pytest.raises(FleetError):
        QueryBatch(
            batch_id=0,
            chassis="c0",
            request_ids=(1, 2),
            queries=(ok,),
        )
    with pytest.raises(FleetError):
        QueryBatch(
            batch_id=0,
            chassis="c0",
            request_ids=(1, 1),
            queries=(ok, ok),
        )
    with pytest.raises(FleetError):
        QueryBatch(
            batch_id=0,
            chassis="c1",
            request_ids=(1,),
            queries=(ok,),
        )
    batch = QueryBatch(
        batch_id=3, chassis="c0", request_ids=(7,), queries=(ok,)
    )
    assert len(batch) == 1


def test_unknown_request_class_is_rejected():
    with pytest.raises(FleetError, match="unknown request_class"):
        query_from_json(
            {
                "kind": "placement",
                "chassis": "c0",
                "job_power_w": 5.0,
                "request_class": "bulk",
            }
        )
    with pytest.raises(FleetError, match="unknown request_class"):
        query_from_json(
            {
                "kind": "what_if",
                "chassis": "c0",
                "scenarios": [[0.5, 10.0]],
                "request_class": "Interactive",
            }
        )
    # Defaults stay per-kind: placements interactive, what-ifs batch.
    placement = query_from_json(
        {"kind": "placement", "chassis": "c0", "job_power_w": 5.0}
    )
    assert placement.request_class is RequestClass.INTERACTIVE
    what_if = query_from_json(
        {
            "kind": "what_if",
            "chassis": "c0",
            "scenarios": [[0.5, 10.0]],
        }
    )
    assert what_if.request_class is RequestClass.BATCH
    explicit = query_from_json(
        {
            "kind": "placement",
            "chassis": "c0",
            "job_power_w": 5.0,
            "request_class": "batch",
        }
    )
    assert explicit.request_class is RequestClass.BATCH
