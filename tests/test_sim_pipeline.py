"""Tests for the step-pipeline decomposition of the engine.

Covers the refactor's contracts: the read-only scheduler view, the
pipeline's component order, per-run resets (auditor, tracer, engine
reuse), the ``(arrival_s, job_id)`` admission tie-break, the
interval cadence of the optional migration and fan-control phases, and
the engine's refusal of an empty pipeline.
"""

import numpy as np
import pytest

from repro.config.presets import smoke
from repro.core import get_scheduler
from repro.core.migration import MigrationPolicy
from repro.errors import SimulationError
from repro.sim.engine import Engine, Simulation
from repro.sim import invariants
from repro.sim.invariants import InvariantAuditor
from repro.sim.pipeline import (
    ArrivalAdmitter,
    Auditor,
    FanControl,
    MetricsAccumulator,
    Migrator,
    Placer,
    PowerManager,
    ThermalUpdater,
    Tracer,
    WorkRetirer,
    build_pipeline,
)
from repro.sim.state import SimulationState
from repro.sim.tracing import SimulationTrace, TraceConfig
from repro.sim.view import SchedulerView
from repro.thermal.fan_control import FanController
from repro.workloads.arrivals import ArrivalProcess
from repro.workloads.benchmark import BenchmarkSet
from repro.workloads.job import Job
from repro.workloads.pcmark import PCMARK_APPS


def make_jobs(load=0.6, seed=11, n_sockets=24, sim_time_s=3.0):
    params = smoke(seed=seed)
    arrivals = ArrivalProcess(
        benchmark_set=BenchmarkSet.COMPUTATION,
        load=load,
        n_sockets=n_sockets,
        seed=seed,
        duration_scale=params.duration_scale,
    )
    return arrivals.generate(sim_time_s)


class TestSchedulerView:
    @pytest.fixture
    def view(self, small_sut):
        return SchedulerView(SimulationState(small_sut, smoke()))

    ARRAYS = [
        "busy", "freq_mhz", "remaining_work_ms", "dyn_max_w",
        "dyn_exp", "perf_drop", "power_w", "ambient_c",
        "history_c", "busy_ema", "chip_c", "sink_c",
    ]

    @pytest.mark.parametrize("name", ARRAYS)
    def test_array_writes_raise(self, view, name):
        array = getattr(view, name)
        with pytest.raises(ValueError):
            array[0] = 1.0

    def test_attribute_assignment_raises(self, view):
        with pytest.raises(AttributeError):
            view.chip_c = np.zeros(24)

    def test_views_share_live_state(self, small_sut):
        state = SimulationState(small_sut, smoke())
        view = SchedulerView(state)
        state.thermal.chip_c[3] = 77.0
        assert view.chip_c[3] == 77.0

    def test_scheduler_writing_view_raises_in_run(self, small_sut):
        class VandalScheduler:
            name = "vandal"

            def reset(self, view, rng):
                pass

            def select_socket(self, job, idle_ids, view):
                view.chip_c[int(idle_ids[0])] = 0.0  # must raise
                return int(idle_ids[0])

        sim = Simulation(small_sut, smoke(), VandalScheduler())
        with pytest.raises(ValueError):
            sim.run(make_jobs())


class TestPipelineOrder:
    def test_standard_pipeline(self):
        kinds = [type(c) for c in build_pipeline()]
        assert kinds == [
            ArrivalAdmitter, Placer, PowerManager, WorkRetirer,
            ThermalUpdater, MetricsAccumulator,
        ]

    def test_full_pipeline_contract_order(self):
        kinds = [
            type(c)
            for c in build_pipeline(
                migrator=MigrationPolicy(),
                fan_controller=FanController(),
                trace_config=TraceConfig(),
                auditor=InvariantAuditor(),
            )
        ]
        assert kinds == [
            ArrivalAdmitter, Placer, Migrator, PowerManager,
            WorkRetirer, FanControl, ThermalUpdater,
            MetricsAccumulator, Tracer, Auditor,
        ]
        # The two load-bearing orderings, stated explicitly:
        assert kinds.index(FanControl) < kinds.index(ThermalUpdater)
        assert kinds.index(Migrator) < kinds.index(PowerManager)

    def test_telemetry_recorder_runs_last(self, small_sut, tmp_path):
        from repro.obs.session import TelemetryRecorder

        sim = Simulation(
            small_sut,
            smoke(),
            get_scheduler("CF"),
            auditor=InvariantAuditor(),
            telemetry=str(tmp_path),
        )
        components = sim.build_components()
        assert isinstance(components[-1], TelemetryRecorder)
        assert [type(c) for c in components[:-1]] == [
            type(c) for c in build_pipeline(auditor=InvariantAuditor())
        ]


class TestPerRunResets:
    def test_trace_reset_clears_all_series(self, small_sut):
        trace = SimulationTrace()
        state = SimulationState(small_sut, smoke())
        trace.sample(state, 0, 1800.0)
        trace.sample_zones(state)
        assert len(trace) == 1
        assert len(trace.zone_chip_c) == 1
        trace.reset()
        assert len(trace) == 0
        assert trace.zone_chip_c == []
        assert trace.mean_chip_c == []
        assert trace.total_power_w == []

    def test_auditor_reset_clears_energy_baseline(self, small_sut):
        state = SimulationState(small_sut, smoke())
        auditor = InvariantAuditor()
        auditor.check(state, 10, 100.0)
        assert auditor.n_audits == 1
        auditor.reset()
        assert auditor.n_audits == 0
        # A lower cumulative energy is fine after reset: the baseline
        # belongs to the previous run, not this one.
        auditor.check(state, 10, 1.0)

    def test_engine_reuse_is_independent(self, small_sut, monkeypatch):
        monkeypatch.setattr(invariants, "AUDIT_INTERVAL_STEPS", 100)
        auditor = InvariantAuditor()
        sim = Simulation(
            small_sut,
            smoke(seed=5),
            get_scheduler("CF"),
            trace_config=TraceConfig(interval_s=0.1),
            auditor=auditor,
        )
        jobs = make_jobs(seed=5)
        first = sim.run(list(jobs))
        audits_per_run = auditor.n_audits
        second = sim.run(list(jobs))
        assert second.energy_j == first.energy_j
        assert second.n_jobs_completed == first.n_jobs_completed
        assert np.array_equal(second.work_done, first.work_done)
        # Fresh trace per run — never concatenated across runs.
        assert len(second.trace) == len(first.trace)
        assert second.trace is not first.trace
        # Auditor re-audited the second run from a clean baseline.
        assert auditor.n_audits == audits_per_run


class TestAdmissionTieBreak:
    def _duplicate_arrival_jobs(self):
        apps = PCMARK_APPS[:4]
        jobs = []
        job_id = 0
        # Three waves of simultaneous arrivals; jobs are long enough
        # to finish inside the post-warm-up measurement window.
        for wave_t in (0.0, 0.4, 0.8):
            for k in range(8):
                jobs.append(
                    Job(
                        job_id=job_id,
                        app=apps[k % len(apps)],
                        arrival_s=wave_t,
                        work_ms=600.0 + 15.0 * k,
                    )
                )
                job_id += 1
        return jobs

    def test_results_independent_of_list_order(self, small_sut):
        jobs = self._duplicate_arrival_jobs()
        shuffled = list(jobs)
        np.random.default_rng(99).shuffle(shuffled)

        first = Simulation(
            small_sut, smoke(), get_scheduler("CF")
        ).run(jobs)
        second = Simulation(
            small_sut, smoke(), get_scheduler("CF")
        ).run(shuffled)

        assert second.energy_j == first.energy_j
        assert second.n_jobs_completed == first.n_jobs_completed
        finishes_first = sorted(
            (job.job_id, job.finish_s) for job in first.completed_jobs
        )
        finishes_second = sorted(
            (job.job_id, job.finish_s) for job in second.completed_jobs
        )
        assert finishes_second == finishes_first

    def test_same_timestamp_admitted_in_id_order(self, small_sut):
        jobs = self._duplicate_arrival_jobs()
        reversed_list = list(reversed(jobs))
        result = Simulation(
            small_sut, smoke(), get_scheduler("CF")
        ).run(reversed_list)
        wave_zero = [
            job for job in result.completed_jobs if job.arrival_s == 0.0
        ]
        # All first-wave jobs fit the 24-socket SUT, so they start at
        # t=0 regardless of order; the tie-break shows in placement:
        # CF walks the coolest-first ranking in job-id order.
        assert wave_zero, "first wave should complete"
        assert all(job.start_s == 0.0 for job in wave_zero)


class RecordingMigration:
    """Minimal migration policy: records consult times, never moves."""

    interval_s = 0.1
    cost_ms = 0.0

    def __init__(self):
        self.times_s = []

    def propose(self, view):
        self.times_s.append(view.time_s)
        return []


class RecordingFan(FanController):
    """Real fan controller that counts its control evaluations."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        object.__setattr__(self, "calls", [])

    def airflow_scale(self, total_heat_w):
        self.calls.append(total_heat_w)
        return super().airflow_scale(total_heat_w)


class TestIntervalCadence:
    def test_migration_fires_exactly_on_boundaries(self, small_sut):
        policy = RecordingMigration()
        params = smoke()
        sim = Simulation(
            small_sut, params, get_scheduler("CF"), migrator=policy
        )
        sim.run(make_jobs())

        dt = params.power_manager_interval_s
        n_steps = int(round(params.sim_time_s / dt))
        interval_steps = max(int(round(policy.interval_s / dt)), 1)
        expected = [
            step * dt
            for step in range(0, n_steps, interval_steps)
            if step != 0  # nothing has run at t=0; step 0 is skipped
        ]
        assert policy.times_s == expected

    def test_fan_control_fires_exactly_on_boundaries(self, small_sut):
        controller = RecordingFan(interval_s=0.05)
        params = smoke()
        sim = Simulation(
            small_sut,
            params,
            get_scheduler("CF"),
            fan_controller=controller,
        )
        sim.run(make_jobs())

        dt = params.power_manager_interval_s
        n_steps = int(round(params.sim_time_s / dt))
        interval_steps = max(int(round(controller.interval_s / dt)), 1)
        expected_calls = len(range(0, n_steps, interval_steps))
        assert len(controller.calls) == expected_calls

    def test_combined_migration_and_fan_passes_auditor(
        self, small_sut, monkeypatch
    ):
        monkeypatch.setattr(invariants, "AUDIT_INTERVAL_STEPS", 50)
        auditor = InvariantAuditor()
        sim = Simulation(
            small_sut,
            smoke(seed=2),
            get_scheduler("CF"),
            migrator=MigrationPolicy(),
            fan_controller=FanController(
                design_total_cfm=small_sut.total_airflow_cfm()
            ),
            auditor=auditor,
        )
        result = sim.run(make_jobs(seed=2))
        assert result.n_jobs_completed > 0
        assert auditor.n_audits > 0


def test_engine_requires_components():
    with pytest.raises(SimulationError):
        Engine([])
