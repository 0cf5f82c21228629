"""Tests for repro.fleet.supervision: state machine, knob, backoff."""

import pytest

from repro.errors import ConfigurationError
from repro.fleet.supervision import (
    LEGAL_TRANSITIONS,
    SupervisionPolicy,
    WorkerState,
    WorkerSupervisor,
)


def make_supervisor(policy=None, events=None):
    sink = events if events is not None else []

    def emit(type_, **fields):
        sink.append({"type": type_, **fields})

    return (
        WorkerSupervisor(
            worker_id="w0",
            policy=policy
            or SupervisionPolicy(
                heartbeat_interval_s=1.0,
                missed_heartbeats=2,
                restart_backoff_s=0.5,
                restart_backoff_cap_s=4.0,
                max_restarts=2,
            ),
            emit=emit,
        ),
        sink,
    )


class TestHeartbeatKnob:
    def test_default_without_env(self):
        assert SupervisionPolicy().heartbeat_interval_s == 1.0

    @pytest.mark.parametrize(
        "value",
        [0.0, -0.5, -2.0, -1.0, float("nan"), float("inf")],
    )
    def test_explicit_non_positive_rejected(self, value):
        with pytest.raises(ConfigurationError, match="heartbeat_interval_s"):
            SupervisionPolicy(heartbeat_interval_s=value)


class TestPolicyValidation:
    def test_backoff_is_capped_exponential(self):
        policy = SupervisionPolicy(
            heartbeat_interval_s=1.0,
            restart_backoff_s=0.5,
            restart_backoff_cap_s=2.0,
        )
        assert policy.backoff_for(1) == 0.5
        assert policy.backoff_for(2) == 1.0
        assert policy.backoff_for(3) == 2.0
        assert policy.backoff_for(10) == 2.0

    def test_deadline_scales_with_missed_beats(self):
        policy = SupervisionPolicy(
            heartbeat_interval_s=0.5, missed_heartbeats=4
        )
        assert policy.heartbeat_deadline_s == 2.0

    def test_cap_below_base_rejected(self):
        with pytest.raises(ConfigurationError):
            SupervisionPolicy(
                heartbeat_interval_s=1.0,
                restart_backoff_s=2.0,
                restart_backoff_cap_s=1.0,
            )

    @pytest.mark.parametrize(
        "field", ["restart_backoff_s", "restart_backoff_cap_s"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_backoff_rejected_naming_field(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            SupervisionPolicy(heartbeat_interval_s=1.0, **{field: value})

    def test_zero_missed_heartbeats_rejected(self):
        with pytest.raises(ConfigurationError):
            SupervisionPolicy(
                heartbeat_interval_s=1.0, missed_heartbeats=0
            )


class TestStateMachine:
    def test_first_heartbeat_marks_healthy(self):
        sup, events = make_supervisor()
        assert sup.state is WorkerState.STARTING
        sup.observe_heartbeat(0.1, 0)
        assert sup.state is WorkerState.HEALTHY
        assert events[-1]["old"] == "starting"
        assert events[-1]["new"] == "healthy"

    def test_silence_goes_suspect_then_restarting(self):
        sup, events = make_supervisor()
        sup.observe_heartbeat(0.0, 0)
        assert not sup.check(1.9)  # within the 2 s deadline
        assert sup.state is WorkerState.HEALTHY
        assert not sup.check(2.1)
        assert sup.state is WorkerState.SUSPECT
        assert sup.check(4.1)  # 2x deadline of silence: dead
        assert sup.state is WorkerState.RESTARTING

    def test_heartbeat_rescues_suspect(self):
        sup, _ = make_supervisor()
        sup.observe_heartbeat(0.0, 0)
        sup.check(2.5)
        assert sup.state is WorkerState.SUSPECT
        sup.observe_heartbeat(3.0, 1)
        assert sup.state is WorkerState.HEALTHY

    def test_stale_seq_does_not_rescue(self):
        sup, _ = make_supervisor()
        sup.observe_heartbeat(0.0, 5)
        sup.check(2.5)
        assert sup.state is WorkerState.SUSPECT
        sup.observe_heartbeat(3.0, 5)  # replayed old beat
        assert sup.state is WorkerState.SUSPECT

    def test_restart_budget_exhaustion_quarantines(self):
        sup, events = make_supervisor()
        t = 0.0
        for attempt in (1, 2):
            assert sup.note_exit(t)
            assert sup.state is WorkerState.RESTARTING
            assert sup.restarts == attempt
            t = sup.next_restart_t
            assert sup.due_restart(t)
            sup.on_restarted(t, cold=False)
            assert sup.state is WorkerState.STARTING
        assert sup.note_exit(t)  # third strike: budget is 2
        assert sup.state is WorkerState.QUARANTINED
        assert sup.next_restart_t is None
        assert not sup.due_restart(t + 100.0)

    def test_backoff_grows_between_restarts(self):
        sup, _ = make_supervisor()
        sup.note_exit(10.0)
        assert sup.next_restart_t == pytest.approx(10.5)
        sup.on_restarted(10.5, cold=False)
        sup.note_exit(11.0)
        assert sup.next_restart_t == pytest.approx(12.0)

    def test_restart_event_carries_cold_flag(self):
        sup, events = make_supervisor()
        sup.note_exit(0.0)
        sup.on_restarted(0.5, cold=True)
        restart = [e for e in events if e["type"] == "fleet_restart"]
        assert restart[-1]["cold"] is True
        assert restart[-1]["attempt"] == 1
        assert sup.incarnation == 1
        assert sup.last_seq == -1  # new incarnation restarts at 0

    def test_quarantined_ignores_heartbeats(self):
        sup, _ = make_supervisor(
            policy=SupervisionPolicy(
                heartbeat_interval_s=1.0, max_restarts=0
            )
        )
        sup.note_exit(0.0)
        assert sup.state is WorkerState.QUARANTINED
        sup.observe_heartbeat(0.1, 99)
        assert sup.state is WorkerState.QUARANTINED

    def test_exit_while_restarting_is_idempotent(self):
        sup, _ = make_supervisor()
        assert sup.note_exit(0.0)
        assert not sup.note_exit(0.1)
        assert sup.restarts == 1

    def test_starting_worker_that_never_beats_is_restarted(self):
        sup, _ = make_supervisor()
        sup.started_t = 0.0
        assert not sup.check(3.9)
        assert sup.check(4.1)
        assert sup.state is WorkerState.RESTARTING

    def test_all_emitted_transitions_are_legal(self):
        sup, events = make_supervisor()
        sup.observe_heartbeat(0.0, 0)
        sup.check(2.5)
        sup.check(5.0)
        sup.on_restarted(6.0, cold=False)
        sup.observe_heartbeat(6.1, 0)
        for event in events:
            if event["type"] != "fleet_worker_state":
                continue
            pair = (
                WorkerState(event["old"]),
                WorkerState(event["new"]),
            )
            assert pair in LEGAL_TRANSITIONS
