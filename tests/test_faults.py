"""Tests for repro.faults: events, schedules, injection, degradation."""

import numpy as np
import pytest

from repro.config.presets import smoke
from repro.core import get_scheduler
from repro.errors import ConfigurationError
from repro.faults import (
    DVFSStuckFault,
    FanLaneFault,
    FaultResponse,
    FaultSchedule,
    FaultState,
    PowerCapFault,
    SensorFault,
    SensorFaultMode,
    SocketKillFault,
    parse_fault_spec,
)
from repro.faults.injector import FaultInjector
from repro.sim.fingerprint import result_fingerprint
from repro.sim import invariants
from repro.sim.invariants import InvariantAuditor, InvariantViolation
from repro.sim.runner import run_once
from repro.workloads.benchmark import BenchmarkSet

#: Response whose trip point sits far below normal operating chip
#: temperatures — forces trips on demand.  The recovery deadline is
#: pushed past the smoke horizon because the floor-state equilibrium
#: can sit *above* such an artificial trip point (permanent latching is
#: then the correct physical behaviour, not a response failure).
FORCE_TRIPS = FaultResponse(trip_margin_c=-40.0, trip_recovery_taus=4.0)


def _run(topology, schedule=None, scheme="CF", load=0.6, auditor=None):
    return run_once(
        topology,
        smoke(seed=11),
        get_scheduler(scheme),
        BenchmarkSet.COMPUTATION,
        load,
        auditor=auditor,
        fault_schedule=schedule,
    )


class TestEventValidation:
    def test_negative_start_rejected(self):
        with pytest.raises(ConfigurationError):
            SocketKillFault(socket_id=0, start_s=-1.0)

    def test_end_before_start_rejected(self):
        with pytest.raises(ConfigurationError):
            SocketKillFault(socket_id=0, start_s=2.0, end_s=1.0)

    @pytest.mark.parametrize("scale", [0.0, -0.5, 1.5])
    def test_fan_scale_bounds(self, scale):
        with pytest.raises(ConfigurationError):
            FanLaneFault(row=0, scale=scale)

    def test_sensor_stuck_requires_value(self):
        with pytest.raises(ConfigurationError):
            SensorFault(socket_id=0, mode=SensorFaultMode.STUCK)

    def test_sensor_bias_must_be_nonzero(self):
        with pytest.raises(ConfigurationError):
            SensorFault(
                socket_id=0, mode=SensorFaultMode.BIAS, bias_c=0.0
            )

    def test_dvfs_stuck_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            DVFSStuckFault(socket_id=0, stuck_mhz=0.0)

    def test_power_cap_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            PowerCapFault(cap_mhz=-100.0)


class TestSchedule:
    def test_rejects_non_events(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule(events=("not an event",))

    def test_fingerprint_is_content_addressed(self):
        a = FaultSchedule(
            events=(SocketKillFault(socket_id=1, start_s=1.0),)
        )
        b = FaultSchedule(
            events=(SocketKillFault(socket_id=1, start_s=1.0),)
        )
        c = FaultSchedule(
            events=(SocketKillFault(socket_id=2, start_s=1.0),)
        )
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()
        assert a.fingerprint() != FaultSchedule().fingerprint()

    def test_response_joins_the_fingerprint(self):
        base = FaultSchedule()
        harsh = FaultSchedule(
            response=FaultResponse(trip_margin_c=1.0)
        )
        assert base.fingerprint() != harsh.fingerprint()

    def test_validate_rejects_out_of_range(self, small_sut):
        bad_socket = FaultSchedule(
            events=(
                SocketKillFault(socket_id=small_sut.n_sockets),
            )
        )
        with pytest.raises(ConfigurationError):
            bad_socket.validate(small_sut)
        bad_row = FaultSchedule(
            events=(FanLaneFault(row=small_sut.n_rows, scale=0.5),)
        )
        with pytest.raises(ConfigurationError):
            bad_row.validate(small_sut)

    def test_validate_rejects_non_ladder_frequencies(self, small_sut):
        off_ladder = FaultSchedule(
            events=(DVFSStuckFault(socket_id=0, stuck_mhz=1234.0),)
        )
        with pytest.raises(ConfigurationError):
            off_ladder.validate(small_sut)

    def test_random_is_seed_deterministic(self, small_sut):
        a = FaultSchedule.random(small_sut, seed=5, n_events=6)
        b = FaultSchedule.random(small_sut, seed=5, n_events=6)
        c = FaultSchedule.random(small_sut, seed=6, n_events=6)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()
        a.validate(small_sut)
        assert len(a) == 6


class TestSpecParser:
    def test_parses_clauses(self, small_sut):
        schedule = parse_fault_spec(
            "fan:row=0,scale=0.5,start=2;kill:socket=3,start=4",
            topology=small_sut,
        )
        assert [type(e).__name__ for e in schedule.events] == [
            "FanLaneFault",
            "SocketKillFault",
        ]
        fan, kill = schedule.events
        assert fan.row == 0 and fan.scale == 0.5 and fan.start_s == 2.0
        assert kill.socket_id == 3 and kill.start_s == 4.0

    def test_random_clause(self, small_sut):
        schedule = parse_fault_spec(
            "random:seed=9,n=4", topology=small_sut
        )
        assert len(schedule) == 4
        again = parse_fault_spec("random:seed=9,n=4", topology=small_sut)
        assert schedule.fingerprint() == again.fingerprint()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_fault_spec("meteor:row=0")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_fault_spec("kill:socket=0,sockets=1")

    @pytest.mark.parametrize(
        "spec,field",
        [
            ("sensor:socket=3,mode=bias,bias=nan", "bias_c"),
            ("sensor:socket=3,mode=bias,bias=inf", "bias_c"),
            ("sensor:socket=3,mode=stuck,value=nan", "stuck_c"),
            ("sensor:socket=3,mode=stuck,value=inf", "stuck_c"),
            ("fan:row=0,scale=0.5,start=nan", "start_s"),
        ],
    )
    def test_non_finite_values_rejected(self, small_sut, spec, field):
        with pytest.raises(ConfigurationError, match=field):
            parse_fault_spec(spec, topology=small_sut)


class TestFaultState:
    @pytest.fixture
    def state(self, small_sut):
        return FaultState(small_sut, smoke(), FaultResponse())

    def test_observe_passthrough_is_readonly_and_exact(self, state):
        true = np.linspace(30.0, 60.0, state.alive.size)
        seen = state.observe("chip_c", true)
        assert not seen.flags.writeable
        assert np.array_equal(seen, true)

    def test_observe_applies_bias_stuck_dropout(self, state):
        true = np.full(state.alive.size, 50.0)
        state.sensor_bias[0] = 10.0
        state.sensor_stuck[1] = 99.0
        state.sensor_dropout[2] = True
        state._held["chip_c"][2] = 42.0
        state.sensors_faulty = True
        seen = state.observe("chip_c", true)
        assert seen[0] == 60.0
        assert seen[1] == 99.0
        assert seen[2] == 42.0
        assert seen[3] == 50.0
        assert not seen.flags.writeable

    def test_override_order_stuck_cap_trip(self, state):
        freq = np.full(state.alive.size, 1500.0)
        state.dvfs_stuck_mhz[0] = 1900.0
        state.power_cap_mhz = 1300.0
        state.tripped[1] = True
        out = state.override_frequencies(freq, min_mhz=1100.0)
        # The cap ceilings even a wedged ladder; the trip forces the
        # floor past both.
        assert out[0] == 1300.0
        assert out[1] == 1100.0
        assert out[2] == 1300.0

    def test_no_override_returns_same_object(self, state):
        freq = np.full(state.alive.size, 1500.0)
        assert state.override_frequencies(freq, 1100.0) is freq

    def test_trip_latch_hold_and_hysteresis(self, small_sut):
        response = FaultResponse(
            trip_margin_c=5.0, trip_hysteresis_c=3.0, trip_hold_s=0.1
        )
        state = FaultState(small_sut, smoke(), response)
        dt = 0.002
        hot = np.full(small_sut.n_sockets, 101.0)
        cool = np.full(small_sut.n_sockets, 98.0)
        cold = np.full(small_sut.n_sockets, 90.0)
        state.update_trips(hot, step=0, dt=dt)
        assert state.tripped.all() and state.n_trips == state.alive.size
        # Cooled below the trip point but not past the hysteresis band.
        state.update_trips(cool, step=100, dt=dt)
        assert state.tripped.all()
        # Past the band but before the hold time has elapsed.
        state.update_trips(cold, step=10, dt=dt)
        assert state.tripped.all()
        # Past the band and held long enough: untrip.
        state.update_trips(cold, step=100, dt=dt)
        assert not state.tripped.any()
        assert (state.trip_step == -1).all()

    def test_dead_sockets_never_trip(self, small_sut):
        state = FaultState(small_sut, smoke(), FaultResponse())
        state.alive[0] = False
        hot = np.full(small_sut.n_sockets, 150.0)
        state.update_trips(hot, step=0, dt=0.002)
        assert not state.tripped[0]
        assert state.tripped[1:].all()

    def test_zero_dead_power(self, state):
        power = np.full(state.alive.size, 7.0)
        state.alive[3] = False
        state.zero_dead_power(power)
        assert power[3] == 0.0
        assert (power[:3] == 7.0).all()


class TestInjectionBehaviour:
    def test_kill_empties_socket_and_revival_restores(self, small_sut):
        killed = FaultSchedule(
            events=(SocketKillFault(socket_id=3, start_s=1.0),)
        )
        result = _run(small_sut, killed, load=0.9)
        assert result.fault_summary["n_dead_at_end"] == 1
        # No job may start on the dead socket after the kill.
        for job in result.completed_jobs:
            if job.socket_id == 3:
                assert job.start_s < 1.0
        revived = FaultSchedule(
            events=(
                SocketKillFault(socket_id=3, start_s=1.0, end_s=2.0),
            )
        )
        back = _run(small_sut, revived, load=0.9)
        assert back.fault_summary["n_dead_at_end"] == 0

    def test_kill_of_busy_socket_evicts(self, small_sut):
        schedule = FaultSchedule(
            events=tuple(
                SocketKillFault(socket_id=s, start_s=1.5)
                for s in range(6)
            )
        )
        result = _run(small_sut, schedule, load=0.9)
        assert result.fault_summary["n_evictions"] >= 1
        assert result.fault_summary["n_dead_at_end"] == 6

    def test_fan_fault_heats_its_row(self, small_sut):
        healthy = _run(small_sut, load=0.9)
        faulted = _run(
            small_sut,
            FaultSchedule(
                events=(FanLaneFault(row=0, scale=0.3, start_s=0.5),)
            ),
            load=0.9,
        )
        row0 = small_sut.row_array == 0
        row1 = small_sut.row_array == 1
        delta0 = (
            faulted.max_chip_c[row0] - healthy.max_chip_c[row0]
        ).mean()
        delta1 = (
            faulted.max_chip_c[row1] - healthy.max_chip_c[row1]
        ).mean()
        assert delta0 > 1.0
        assert delta0 > 3.0 * abs(delta1)

    def test_power_cap_lowers_frequency(self, small_sut):
        healthy = _run(small_sut, load=0.7)
        capped = _run(
            small_sut,
            FaultSchedule(
                events=(PowerCapFault(cap_mhz=1100.0, start_s=0.0),)
            ),
            load=0.7,
        )
        assert (
            capped.average_relative_frequency()
            < healthy.average_relative_frequency() - 0.05
        )

    def test_transient_cap_clears(self, small_sut):
        transient = _run(
            small_sut,
            FaultSchedule(
                events=(
                    PowerCapFault(
                        cap_mhz=1100.0, start_s=0.6, end_s=1.2
                    ),
                )
            ),
            load=0.7,
        )
        permanent = _run(
            small_sut,
            FaultSchedule(
                events=(PowerCapFault(cap_mhz=1100.0, start_s=0.6),)
            ),
            load=0.7,
        )
        assert (
            transient.average_relative_frequency()
            > permanent.average_relative_frequency()
        )

    def test_sensor_fault_changes_placement_not_physics(self, small_sut):
        healthy = _run(small_sut, load=0.7)
        blinded = _run(
            small_sut,
            FaultSchedule(
                events=(
                    SensorFault(
                        socket_id=0,
                        mode=SensorFaultMode.STUCK,
                        stuck_c=10.0,
                        start_s=0.0,
                    ),
                )
            ),
            load=0.7,
            auditor=InvariantAuditor(),
        )
        # CF chases the impossibly cool reading, so the runs diverge —
        # yet the audited *true* physics stays consistent.
        assert result_fingerprint(
            healthy, include_fault_summary=False
        ) != result_fingerprint(blinded, include_fault_summary=False)

    def test_fault_runs_are_deterministic(self, small_sut):
        schedule = FaultSchedule.random(small_sut, seed=3, n_events=5)
        a = _run(small_sut, schedule, load=0.7)
        b = _run(small_sut, schedule, load=0.7)
        assert result_fingerprint(a) == result_fingerprint(b)
        assert a.fault_summary == b.fault_summary

    def test_summary_names_the_schedule(self, small_sut):
        schedule = FaultSchedule(
            events=(SocketKillFault(socket_id=0, start_s=1.0),)
        )
        result = _run(small_sut, schedule)
        assert (
            result.fault_summary["schedule_fingerprint"]
            == schedule.fingerprint()
        )
        assert result.fault_summary["n_events"] == 1

    def test_transition_step_is_deterministic(self):
        assert FaultInjector._step_of(1.0, 0.002) == 500
        assert FaultInjector._step_of(0.0, 0.002) == 0
        # A time landing within float noise of a step boundary maps to
        # that step, not the next one.
        assert FaultInjector._step_of(0.006, 0.002) == 3


class TestGracefulDegradationAudit:
    @pytest.fixture(autouse=True)
    def audit_every_25_steps(self, monkeypatch):
        monkeypatch.setattr(invariants, "AUDIT_INTERVAL_STEPS", 25)

    def test_forced_trips_pass_fault_aware_audit(self, small_sut):
        schedule = FaultSchedule(response=FORCE_TRIPS)
        result = _run(
            small_sut,
            schedule,
            scheme="CP",
            auditor=InvariantAuditor(),
        )
        assert result.fault_summary["n_trips"] > 0

    def test_broken_trip_response_fails_audit(
        self, small_sut, monkeypatch
    ):
        # Sever the emergency-throttle path: trips latch but the floor
        # is never forced.  The fault-aware envelope must catch it.
        monkeypatch.setattr(
            FaultState,
            "override_frequencies",
            lambda self, freq_mhz, min_mhz: freq_mhz,
        )
        schedule = FaultSchedule(response=FORCE_TRIPS)
        with pytest.raises(InvariantViolation) as excinfo:
            _run(
                small_sut,
                schedule,
                scheme="CP",
                auditor=InvariantAuditor(),
            )
        assert "floor" in excinfo.value.invariant

    def test_broken_kill_response_fails_audit(
        self, small_sut, monkeypatch
    ):
        # Sever the power-gating path: a killed socket keeps drawing.
        monkeypatch.setattr(
            FaultState, "zero_dead_power", lambda self, power_w: None
        )
        schedule = FaultSchedule(
            events=(SocketKillFault(socket_id=0, start_s=1.0),)
        )
        with pytest.raises(InvariantViolation) as excinfo:
            _run(
                small_sut,
                schedule,
                load=0.9,
                auditor=InvariantAuditor(),
            )
        assert excinfo.value.invariant == "dead sockets draw zero power"


class TestFaultAwareView:
    def test_dead_sockets_leave_the_idle_set(self, small_sut):
        from repro.sim.pipeline import EngineContext
        from repro.sim.view import FaultAwareSchedulerView

        ctx = EngineContext.create(
            small_sut, smoke(), get_scheduler("CF"), [], 0
        )
        state = FaultState(small_sut, smoke(), FaultResponse())
        view = FaultAwareSchedulerView(ctx.state, state)
        assert 5 in view.idle_socket_ids()
        state.alive[5] = False
        assert 5 not in view.idle_socket_ids()
        assert not view.alive[5]

    def test_view_reports_observed_temperatures(self, small_sut):
        from repro.sim.pipeline import EngineContext
        from repro.sim.view import FaultAwareSchedulerView

        ctx = EngineContext.create(
            small_sut, smoke(), get_scheduler("CF"), [], 0
        )
        state = FaultState(small_sut, smoke(), FaultResponse())
        view = FaultAwareSchedulerView(ctx.state, state)
        state.sensor_bias[0] = 25.0
        state.sensors_faulty = True
        assert view.chip_c[0] == ctx.state.chip_c[0] + 25.0
        assert view.sink_c[0] == ctx.state.sink_c[0] + 25.0
        with pytest.raises(ValueError):
            view.chip_c[0] = 0.0
