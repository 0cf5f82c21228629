"""Chaos-harness tests: determinism, invariants, degraded serving."""

import json

import pytest

from repro.errors import FleetError
from repro.fleet.chaos import (
    AnswerDelay,
    ChaosRunConfig,
    ChaosSchedule,
    CheckpointCorruption,
    WorkerHang,
    WorkerKill,
    run_chaos,
)
from repro.fleet.invariants import (
    check_fleet_events,
    check_fleet_log,
    has_fleet_events,
)
from repro.fleet.registry import demo_fleet

CFG = ChaosRunConfig(
    seed=11,
    horizon_s=12.0,
    n_chassis=2,
    n_requests=18,
    burst_size=24,
    n_chaos_events=5,
)


class TestSchedule:
    def test_fingerprint_stable_and_content_sensitive(self):
        a = ChaosSchedule((WorkerKill(t=1.0, worker="w0"),))
        b = ChaosSchedule((WorkerKill(t=1.0, worker="w0"),))
        c = ChaosSchedule((WorkerKill(t=2.0, worker="w0"),))
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_events_sorted_by_time(self):
        schedule = ChaosSchedule(
            (
                WorkerHang(t=5.0, worker="w0", duration_s=1.0),
                WorkerKill(t=1.0, worker="w0"),
            )
        )
        assert [e.t for e in schedule.events] == [1.0, 5.0]

    def test_random_is_seed_deterministic(self):
        kwargs = dict(
            seed=3, horizon_s=10.0, workers=["a", "b"], n_events=8
        )
        assert (
            ChaosSchedule.random(**kwargs).fingerprint()
            == ChaosSchedule.random(**kwargs).fingerprint()
        )
        assert (
            ChaosSchedule.random(**kwargs).fingerprint()
            != ChaosSchedule.random(**{**kwargs, "seed": 4}).fingerprint()
        )

    def test_rejects_non_events_and_negative_times(self):
        with pytest.raises(FleetError):
            ChaosSchedule(("kill w0",))
        with pytest.raises(FleetError):
            ChaosSchedule((WorkerKill(t=-1.0, worker="w0"),))


class TestRunConfig:
    @pytest.mark.parametrize(
        "field", ["horizon_s", "tick_s", "heartbeat_interval_s"]
    )
    @pytest.mark.parametrize(
        "value", [0.0, -1.0, float("nan"), float("inf")]
    )
    def test_bad_times_rejected_naming_field(self, field, value):
        with pytest.raises(FleetError, match=field):
            ChaosRunConfig(**{field: value})

    def test_negative_burst_rejected_naming_field(self):
        with pytest.raises(FleetError, match="burst_size"):
            ChaosRunConfig(burst_size=-3)
        assert ChaosRunConfig(burst_size=0).burst_size == 0

    def test_negative_chaos_event_count_rejected_naming_field(self):
        with pytest.raises(FleetError, match="n_chaos_events"):
            ChaosRunConfig(n_chaos_events=-3)
        assert ChaosRunConfig(n_chaos_events=0).n_chaos_events == 0

    def test_chaos_for_an_unknown_worker_rejected_before_the_run(self):
        schedule = ChaosSchedule((WorkerKill(t=1.0, worker="c7-w0"),))
        with pytest.raises(FleetError, match="c7-w0"):
            run_chaos(CFG, schedule=schedule)

    def test_explicit_empty_schedule_runs_no_chaos(self):
        """An empty schedule is falsy; it must not read as "none given"."""
        report = run_chaos(CFG, schedule=ChaosSchedule())
        assert len(report.schedule) == 0
        assert report.ok, report.problems
        assert not any(
            e["type"] == "fleet_restart" for e in report.coordinator.events
        )

    def test_bad_batching_knobs_rejected(self):
        with pytest.raises(FleetError, match="batch_window_s"):
            ChaosRunConfig(batch_window_s=-1.0)
        with pytest.raises(FleetError, match="max_batch"):
            ChaosRunConfig(max_batch=0)


class TestDeterminism:
    def test_same_seed_reproduces_log_bit_for_bit(self, tmp_path):
        run_chaos(CFG, out_dir=tmp_path / "a")
        run_chaos(CFG, out_dir=tmp_path / "b")
        log_a = (tmp_path / "a" / "fleet.jsonl").read_bytes()
        log_b = (tmp_path / "b" / "fleet.jsonl").read_bytes()
        assert log_a == log_b
        assert len(log_a) > 0

    def test_reused_out_dir_reproduces_log_bit_for_bit(self, tmp_path):
        """Workers must not recover the previous run's snapshots."""
        config = ChaosRunConfig(seed=7)
        run_chaos(config, out_dir=tmp_path / "fresh")
        run_chaos(config, out_dir=tmp_path / "reused")
        run_chaos(config, out_dir=tmp_path / "reused")
        assert (tmp_path / "reused" / "fleet.jsonl").read_bytes() == (
            tmp_path / "fresh" / "fleet.jsonl"
        ).read_bytes()

    def test_different_seed_differs(self, tmp_path):
        import dataclasses

        run_chaos(CFG, out_dir=tmp_path / "a")
        run_chaos(
            dataclasses.replace(CFG, seed=CFG.seed + 1),
            out_dir=tmp_path / "b",
        )
        assert (tmp_path / "a" / "fleet.jsonl").read_bytes() != (
            tmp_path / "b" / "fleet.jsonl"
        ).read_bytes()

    def test_report_summary_is_json_safe(self):
        report = run_chaos(CFG)
        parsed = json.loads(json.dumps(report.summary()))
        assert parsed["seed"] == CFG.seed
        assert parsed["problems"] == []


class TestInvariantsUnderChaos:
    def test_every_request_reaches_exactly_one_terminal(self):
        report = run_chaos(CFG)
        assert report.ok, report.problems
        events = report.coordinator.events
        submits = [
            e["request_id"]
            for e in events
            if e["type"] == "fleet_submit"
        ]
        terminals = [
            e["request_id"]
            for e in events
            if e["type"] in ("fleet_answer", "fleet_shed")
        ]
        assert sorted(submits) == sorted(terminals)
        assert len(set(submits)) == len(submits)
        assert report.coordinator.pending == 0

    def test_queue_bound_never_exceeded(self):
        report = run_chaos(CFG)
        max_queue = report.coordinator.config.max_queue
        # The burst outruns the queue plus every worker's free slots.
        assert report.coordinator.peak_queue_len == max_queue
        for event in report.coordinator.events:
            if event["type"] == "fleet_submit":
                assert event["queue_len"] <= max_queue

    def test_queue_breach_is_reported(self, monkeypatch):
        """The log checker sees admissions only; the run checks the
        coordinator's own peak, which retries also count."""
        from repro.fleet.coordinator import FleetCoordinator

        finish = FleetCoordinator.finish

        def overfilled(self, now):
            finish(self, now)
            self.peak_queue_len = self.config.max_queue + 1

        monkeypatch.setattr(FleetCoordinator, "finish", overfilled)
        report = run_chaos(CFG)
        assert not report.ok
        assert any("above max_queue" in p for p in report.problems)

    def test_log_passes_checker_from_disk(self, tmp_path):
        report = run_chaos(CFG, out_dir=tmp_path)
        assert check_fleet_log(report.log_path) == []

    def test_obs_check_audits_fleet_logs(self, tmp_path):
        from repro.obs.check import check_directory

        run_chaos(CFG, out_dir=tmp_path)
        assert check_directory(tmp_path) == []


class TestTargetedScenarios:
    def test_flapping_worker_quarantined_chassis_serves_stale(self):
        registry = demo_fleet(n_chassis=1, replicas=0)
        schedule = ChaosSchedule(
            tuple(
                WorkerKill(t=t, worker="c0-w0")
                for t in (1.0, 2.0, 3.5, 5.0)
            )
        )
        report = run_chaos(
            ChaosRunConfig(
                seed=2,
                horizon_s=12.0,
                n_chassis=1,
                n_requests=16,
                burst_size=0,
                n_chaos_events=0,
            ),
            registry=registry,
            schedule=schedule,
        )
        assert report.ok, report.problems
        assert (
            report.coordinator.worker_states()["c0-w0"]
            == "quarantined"
        )
        degraded = [
            a
            for a in report.coordinator.answers.values()
            if a.status.value == "degraded"
        ]
        assert degraded, "quarantined chassis must serve stale answers"
        for answer in degraded:
            assert answer.staleness_s >= 0.0
            assert answer.payload.get("from_snapshot") is True

    def test_checkpoint_corruption_forces_cold_restart(self, tmp_path):
        registry = demo_fleet(n_chassis=1, replicas=0)
        schedule = ChaosSchedule(
            (
                CheckpointCorruption(t=1.0, worker="c0-w0"),
                WorkerKill(t=1.1, worker="c0-w0"),
            )
        )
        report = run_chaos(
            ChaosRunConfig(
                seed=1,
                horizon_s=8.0,
                n_chassis=1,
                n_requests=6,
                burst_size=0,
                n_chaos_events=0,
            ),
            out_dir=tmp_path,
            registry=registry,
            schedule=schedule,
        )
        assert report.ok, report.problems
        restarts = [
            e
            for e in report.coordinator.events
            if e["type"] == "fleet_restart"
        ]
        assert restarts and restarts[0]["cold"] is True

    def test_hang_triggers_suspect_and_recovery(self):
        registry = demo_fleet(n_chassis=1, replicas=1)
        schedule = ChaosSchedule(
            (WorkerHang(t=1.0, worker="c0-w0", duration_s=2.0),)
        )
        report = run_chaos(
            ChaosRunConfig(
                seed=4,
                horizon_s=10.0,
                n_chassis=1,
                n_requests=10,
                burst_size=0,
                n_chaos_events=0,
            ),
            registry=registry,
            schedule=schedule,
        )
        assert report.ok, report.problems
        states = [
            (e["worker"], e["old"], e["new"])
            for e in report.coordinator.events
            if e["type"] == "fleet_worker_state"
        ]
        assert ("c0-w0", "healthy", "suspect") in states

    def test_answer_delay_is_survivable(self):
        registry = demo_fleet(n_chassis=1, replicas=1)
        schedule = ChaosSchedule(
            (
                AnswerDelay(
                    t=0.5,
                    worker="c0-w0",
                    extra_s=2.5,
                    duration_s=4.0,
                ),
            )
        )
        report = run_chaos(
            ChaosRunConfig(
                seed=6,
                horizon_s=10.0,
                n_chassis=1,
                n_requests=8,
                burst_size=0,
                n_chaos_events=0,
            ),
            registry=registry,
            schedule=schedule,
        )
        assert report.ok, report.problems


class TestCheckerCatchesViolations:
    def base(self):
        return [
            {
                "v": 1,
                "type": "fleet_start",
                "n_workers": 1,
                "n_chassis": 1,
                "seed": 0,
                "max_queue": 2,
                "max_staleness_s": 10.0,
            },
            {
                "v": 1,
                "type": "fleet_submit",
                "t": 0.0,
                "request_id": 0,
                "kind": "placement",
                "request_class": "interactive",
                "chassis": "c0",
                "queue_len": 1,
            },
        ]

    def answer(self, rid=0, t=1.0):
        return {
            "v": 1,
            "type": "fleet_answer",
            "t": t,
            "request_id": rid,
            "status": "ok",
            "attempts": 1,
        }

    def test_clean_stream_passes(self):
        assert check_fleet_events(self.base() + [self.answer()]) == []

    def test_lost_request_detected(self):
        problems = check_fleet_events(self.base())
        assert any("never reached" in p for p in problems)

    def test_duplicate_terminal_detected(self):
        events = self.base() + [self.answer(), self.answer(t=2.0)]
        problems = check_fleet_events(events)
        assert any("2 terminal events" in p for p in problems)

    def test_orphan_terminal_detected(self):
        events = self.base() + [
            self.answer(),
            self.answer(rid=7, t=2.0),
        ]
        problems = check_fleet_events(events)
        assert any("without a" in p for p in problems)

    def test_queue_overflow_detected(self):
        events = self.base() + [self.answer()]
        events[1]["queue_len"] = 3  # max_queue is 2
        problems = check_fleet_events(events)
        assert any("exceeds" in p for p in problems)

    def test_staleness_bound_violation_detected(self):
        events = self.base() + [
            {
                "v": 1,
                "type": "fleet_degraded",
                "t": 0.5,
                "request_id": 0,
                "chassis": "c0",
                "staleness_s": 99.0,
            },
            self.answer(),
        ]
        problems = check_fleet_events(events)
        assert any("exceeds bound" in p for p in problems)

    def test_illegal_transition_detected(self):
        events = self.base() + [
            {
                "v": 1,
                "type": "fleet_worker_state",
                "t": 0.5,
                "worker": "w0",
                "old": "quarantined",
                "new": "healthy",
            },
            self.answer(),
        ]
        problems = check_fleet_events(events)
        assert any("illegal transition" in p for p in problems)

    def test_wrong_old_state_detected(self):
        events = self.base() + [
            {
                "v": 1,
                "type": "fleet_worker_state",
                "t": 0.5,
                "worker": "w0",
                "old": "healthy",  # worker was never marked healthy
                "new": "suspect",
            },
            self.answer(),
        ]
        problems = check_fleet_events(events)
        assert any("claims old state" in p for p in problems)

    def test_non_monotonic_heartbeat_detected(self):
        beat = {
            "v": 1,
            "type": "fleet_heartbeat",
            "t": 0.5,
            "worker": "w0",
            "seq": 3,
        }
        events = self.base() + [beat, dict(beat, t=0.6), self.answer()]
        problems = check_fleet_events(events)
        assert any("does not increase" in p for p in problems)

    def test_seq_reset_allowed_after_restart(self):
        events = self.base() + [
            {
                "v": 1,
                "type": "fleet_heartbeat",
                "t": 0.5,
                "worker": "w0",
                "seq": 3,
            },
            {
                "v": 1,
                "type": "fleet_restart",
                "t": 0.8,
                "worker": "w0",
                "attempt": 1,
                "backoff_s": 0.5,
                "cold": False,
            },
            {
                "v": 1,
                "type": "fleet_heartbeat",
                "t": 1.0,
                "worker": "w0",
                "seq": 0,
            },
            self.answer(t=2.0),
        ]
        assert check_fleet_events(events) == []

    def test_events_after_end_detected(self):
        events = self.base() + [
            self.answer(),
            {"v": 1, "type": "fleet_end", "t": 3.0, "n_answered": 1, "n_shed": 0},
            self.answer(rid=0, t=4.0),
        ]
        problems = check_fleet_events(events)
        assert any("after fleet_end" in p for p in problems)

    def test_time_regression_detected(self):
        events = self.base() + [self.answer(t=1.0)]
        events.append(
            {
                "v": 1,
                "type": "fleet_drop",
                "t": 0.2,
                "request_id": 0,
                "reason": "late_answer",
            }
        )
        problems = check_fleet_events(events)
        assert any("backwards" in p for p in problems)

    def test_non_fleet_events_ignored(self):
        events = [{"v": 1, "type": "sweep_start", "n_points": 3}]
        assert check_fleet_events(events) == []
        assert not has_fleet_events(events)
        assert has_fleet_events(self.base())
