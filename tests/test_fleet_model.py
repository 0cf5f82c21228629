"""Stateful model test of the fleet coordinator.

Hypothesis drives a :class:`~repro.fleet.coordinator.FleetCoordinator`
over virtual-time :class:`~repro.fleet.chaos.SimWorkerHandle` workers
(two chassis, one replica each) through random interleavings of
submissions, clock advances and worker kills, hangs and slowdowns, and
checks the coordinator's guarantees after every step:

- the admission queue never outgrows ``max_queue``;
- no worker holds more than ``max_inflight_per_worker`` requests;
- no request gets a second terminal event, and no caller hears back
  twice;
- every OK answer is bit-identical to ``ChassisCompute.answer`` on the
  same query.

At teardown ``finish`` must leave exactly one terminal answer per
request and the event log must pass
:func:`~repro.fleet.invariants.check_fleet_events`.  The run is
derandomised with a fixed example budget, so it costs the same few
seconds on every run.
"""

from collections import Counter

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.fleet import (
    AnswerStatus,
    ChassisCompute,
    FleetConfig,
    FleetCoordinator,
    PlacementQuery,
    RequestClass,
    SimWorkerHandle,
    SupervisionPolicy,
    WhatIfQuery,
    check_fleet_events,
    demo_fleet,
)

REGISTRY = demo_fleet(2, n_rows=1, replicas=1)
WORKERS = [w.worker_id for w in REGISTRY.workers]
HEARTBEAT_S = 0.25
#: Reference answers come from a compute that never saw the run.
REFERENCE = {
    cid: ChassisCompute(spec) for cid, spec in REGISTRY.chassis.items()
}


def _utilization(chassis, shape):
    """A fixed utilisation vector: the chassis' length, or one too many."""
    spec = REGISTRY.chassis.get(chassis)
    n = spec.n_sockets if spec is not None else 4
    if shape == "base":
        return None
    if shape == "wrong_length":
        return (0.5,) * (n + 1)
    level = {"light": 0.3, "heavy": 0.8}[shape]
    return tuple(round(level + 0.01 * (i % 5), 2) for i in range(n))


def make_fleet(batch_window_s=0.0, max_batch=1, max_queue=4):
    """The modelled fleet: real compute, scripted failures, no log."""
    computes = {
        cid: ChassisCompute(spec) for cid, spec in REGISTRY.chassis.items()
    }
    handles = {
        w.worker_id: SimWorkerHandle(
            worker_id=w.worker_id,
            compute=computes[w.chassis_id],
            heartbeat_interval_s=HEARTBEAT_S,
        )
        for w in REGISTRY.workers
    }
    coordinator = FleetCoordinator(
        registry=REGISTRY,
        handles=handles,
        policy=SupervisionPolicy(
            heartbeat_interval_s=HEARTBEAT_S,
            missed_heartbeats=2,
            restart_backoff_s=0.25,
            restart_backoff_cap_s=2.0,
            max_restarts=3,
        ),
        config=FleetConfig(
            max_queue=max_queue,
            max_inflight_per_worker=2,
            request_timeout_s=1.0,
            queue_timeout_s=3.0,
            max_attempts=2,
            retry_jitter_s=0.1,
            max_staleness_s=5.0,
            batch_window_s=batch_window_s,
            max_batch=max_batch,
        ),
    )
    coordinator.start(0.0)
    return coordinator, handles


class FleetModel(RuleBasedStateMachine):
    """Random drives of one coordinator; invariants after every step."""

    @initialize(
        batch_window_s=st.one_of(
            st.just(0.0), st.floats(min_value=0.05, max_value=0.5)
        ),
        max_batch=st.one_of(st.just(1), st.integers(min_value=2, max_value=6)),
    )
    def start(self, batch_window_s, max_batch):
        self.coordinator, self.handles = make_fleet(
            batch_window_s=batch_window_s, max_batch=max_batch
        )
        self.now = 0.0
        self.queries = {}
        self.heard = Counter()
        self.terminals = Counter()
        self.n_seen = 0
        self.checked = set()

    # -- rules ------------------------------------------------------------

    def _submit(self, query):
        rid = self.coordinator.submit(
            query, self.now, callback=lambda a: self.heard.update([a.request_id])
        )
        self.queries[rid] = query

    @rule(
        chassis=st.sampled_from(["c0", "c1", "c9"]),
        job_power_w=st.sampled_from([5.0, 12.5, 19.0]),
        shape=st.sampled_from(["base", "light", "heavy", "wrong_length"]),
        cls=st.sampled_from(RequestClass),
    )
    def submit_placement(self, chassis, job_power_w, shape, cls):
        self._submit(
            PlacementQuery(
                chassis=chassis,
                job_power_w=job_power_w,
                utilization=_utilization(chassis, shape),
                request_class=cls,
            )
        )

    @rule(
        chassis=st.sampled_from(["c0", "c1", "c9"]),
        scenario=st.sampled_from([(0.3, 8.0), (0.8, 14.0)]),
        cls=st.sampled_from(RequestClass),
    )
    def submit_what_if(self, chassis, scenario, cls):
        self._submit(
            WhatIfQuery(chassis=chassis, scenarios=(scenario,), request_class=cls)
        )

    @rule(
        chassis=st.sampled_from(["c0", "c1"]),
        size=st.integers(min_value=2, max_value=8),
    )
    def burst(self, chassis, size):
        """A stampede of what-ifs in one instant, as in the chaos runs."""
        for i in range(size):
            self._submit(WhatIfQuery(chassis=chassis, scenarios=((0.5, 9.0 + i),)))

    @rule(dt=st.floats(min_value=0.05, max_value=1.0))
    def advance(self, dt):
        self.now += dt
        self.coordinator.tick(self.now)

    @rule(worker=st.sampled_from(WORKERS))
    def kill(self, worker):
        self.handles[worker].chaos_kill(self.now)

    @rule(
        worker=st.sampled_from(WORKERS),
        duration_s=st.floats(min_value=0.2, max_value=2.5),
    )
    def hang(self, worker, duration_s):
        self.handles[worker].chaos_hang(self.now, duration_s)

    @rule(
        worker=st.sampled_from(WORKERS),
        extra_s=st.floats(min_value=0.2, max_value=1.5),
        duration_s=st.floats(min_value=0.5, max_value=3.0),
    )
    def delay(self, worker, extra_s, duration_s):
        self.handles[worker].chaos_delay(self.now, extra_s, duration_s)

    # -- invariants -------------------------------------------------------

    @invariant()
    def queue_within_bound(self):
        bound = self.coordinator.config.max_queue
        assert len(self.coordinator.queue) <= bound
        assert self.coordinator.peak_queue_len <= bound

    @invariant()
    def inflight_within_cap(self):
        per_worker = Counter(r.worker_id for r in self.coordinator.inflight.values())
        cap = self.coordinator.config.max_inflight_per_worker
        assert all(n <= cap for n in per_worker.values()), per_worker

    @invariant()
    def at_most_one_terminal_per_request(self):
        events = self.coordinator.events
        self.terminals.update(
            e["request_id"]
            for e in events[self.n_seen:]
            if e["type"] in ("fleet_answer", "fleet_shed")
        )
        self.n_seen = len(events)
        assert all(n == 1 for n in self.terminals.values()), self.terminals

    @invariant()
    def callbacks_fire_at_most_once(self):
        assert all(n == 1 for n in self.heard.values()), self.heard

    @invariant()
    def ok_answers_match_the_reference(self):
        for rid, answer in self.coordinator.answers.items():
            if rid in self.checked or answer.status is not AnswerStatus.OK:
                continue
            query = self.queries[rid]
            assert answer.payload == REFERENCE[query.chassis].answer(query)
            self.checked.add(rid)

    def teardown(self):
        coordinator = getattr(self, "coordinator", None)
        if coordinator is None:
            return
        coordinator.finish(self.now + 0.05)
        assert set(coordinator.answers) == set(self.queries)
        assert coordinator.pending == 0
        assert set(self.heard) == set(self.queries)
        assert all(n == 1 for n in self.heard.values())
        assert check_fleet_events(coordinator.events) == []


FleetModel.TestCase.settings = settings(
    max_examples=60,
    stateful_step_count=30,
    derandomize=True,
    deadline=None,
    database=None,
)
TestFleetModel = FleetModel.TestCase


def test_retry_never_overfills_the_queue():
    """A dead worker's work goes back into a full queue only within its
    bound; otherwise it is resolved from the snapshot."""
    coordinator, handles = make_fleet()
    handles["c0-w0"].chaos_kill(0.05)
    coordinator.tick(0.05)  # c0-w0's exit is seen: c0-w1 serves alone
    first = coordinator.submit(
        WhatIfQuery(chassis="c0", scenarios=((0.5, 10.0),)), 0.1
    )
    coordinator.tick(0.1)
    assert coordinator.inflight[first].worker_id == "c0-w1"
    scenario = 11.0
    while len(coordinator.queue) < coordinator.config.max_queue:
        coordinator.submit(
            WhatIfQuery(chassis="c0", scenarios=((0.5, scenario),)), 0.1
        )
        scenario += 1.0
    handles["c0-w1"].chaos_kill(0.15)
    coordinator.tick(0.15)  # c0-w1's work comes back to a full queue
    assert len(coordinator.queue) == coordinator.config.max_queue
    assert coordinator.peak_queue_len == coordinator.config.max_queue
    answer = coordinator.answers[first]
    assert answer.status is AnswerStatus.DEGRADED
    assert answer.reason == "queue_full"
