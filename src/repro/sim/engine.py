"""The time-stepped simulation engine.

The engine is a thin clock driver over the step pipeline defined in
:mod:`repro.sim.pipeline`: a fixed-order list of
:class:`~repro.sim.pipeline.StepComponent` objects, each advancing one
concern (arrivals, placement, DVFS, thermals, …) against a shared
:class:`~repro.sim.pipeline.EngineContext`.  :class:`Simulation` is the
user-facing binding of a topology, parameters and a policy; it
assembles the standard pipeline and delegates to :class:`Engine`.
"""

from __future__ import annotations

import functools
from typing import List, Sequence

import numpy as np

from ..errors import SimulationError
from ..workloads.job import Job
from .pipeline import EngineContext, StepComponent, build_pipeline
from .results import SimulationResult


@functools.lru_cache(maxsize=None)
def _step_driver(n_components: int, instrumented: bool):
    """Compile the step loop for an ``n``-component pipeline.

    A generic inner loop over the hook list spends more on dispatch
    and (when profiling) list indexing than on the hooks' bookkeeping
    itself — measured ~1.8 us per step against ~0.25 us for an
    unrolled body.  So, ``namedtuple``-style, we generate the unrolled
    source for the exact component count and ``exec`` it once (cached
    per count).  Both engine variants run through this template so
    that profiled and unprofiled processes execute near-identical
    code: the instrumented flavour only adds one chained
    ``clock()``-and-accumulate per hook (timestamps are chained
    between consecutive hooks rather than paired around each, halving
    the clock reads).  The trajectory is bit-identical either way.
    """
    names = [f"h{i}" for i in range(n_components)]
    args = "steps, ctx, state, dt, warmup, hooks"
    if instrumented:
        args += ", clock, totals"
    lines = [
        f"def _driver({args}):",
        f"    {', '.join(names)}{',' if n_components == 1 else ''} = hooks",
    ]
    if instrumented:
        accs = [f"a{i}" for i in range(n_components)]
        lines.append(f"    {' = '.join(accs)} = 0.0")
    lines += [
        "    for step in steps:",
        "        t = step * dt",
        "        ctx.step = step",
        "        ctx.time_s = t",
        "        state.time_s = t",
        "        ctx.in_window = t >= warmup",
    ]
    if instrumented:
        lines.append("        prev = clock()")
    for i in range(n_components):
        lines.append(f"        h{i}(ctx)")
        if instrumented:
            lines += [
                "        now = clock()",
                f"        a{i} += now - prev",
                "        prev = now",
            ]
    if instrumented:
        lines.append(
            "    "
            + "; ".join(
                f"totals[{i}] += a{i}" for i in range(n_components)
            )
        )
    namespace: dict = {}
    exec("\n".join(lines), namespace)  # noqa: S102 - static template
    return namespace["_driver"]


class Engine:
    """Owns the clock; drives an ordered component pipeline.

    The engine itself holds no simulation logic: it calls
    ``on_run_start`` on every component, advances ``ctx.n_steps`` fixed
    steps calling ``on_step`` in pipeline order, then calls
    ``on_run_end``.  All physics, policy and bookkeeping live in the
    components.
    """

    def __init__(
        self, components: Sequence[StepComponent], profiler=None
    ):
        """Bind a pipeline, optionally with a profiler riding along.

        Args:
            profiler: Optional :class:`repro.obs.profiler.StepProfiler`.
                When set, the engine drives the instrumented loop
                variant, which accounts every component's wall-clock
                with *chained* timestamps — one clock reading between
                consecutive hooks, not a start/stop pair around each —
                so profiling costs a single ``perf_counter`` call per
                component per step.  ``benchmarks/bench_step_pipeline.py``
                measures the overhead: 2.93% on the 180-socket SUT, the
                median of 30 per-round ratios on a 2-core VM
                (``benchmarks/results/profiler_overhead.json``).  The
                finished profile lands in ``result.profile``.
        """
        if not components:
            raise SimulationError("engine needs at least one component")
        self.components = list(components)
        self.profiler = profiler

    def run(self, ctx: EngineContext) -> SimulationResult:
        """Drive the pipeline over the configured horizon."""
        if self.profiler is not None:
            return self._run_profiled(ctx)
        for component in self.components:
            component.on_run_start(ctx)
        hooks = tuple(c.on_step for c in self.components)
        driver = _step_driver(len(hooks), instrumented=False)
        driver(
            range(ctx.n_steps),
            ctx,
            ctx.state,
            ctx.dt,
            ctx.warmup_s,
            hooks,
        )
        for component in self.components:
            component.on_run_end(ctx)
        return ctx.result

    def _run_profiled(self, ctx: EngineContext) -> SimulationResult:
        """The identical drive loop with per-component accounting.

        Kept as a separate variant so the unprofiled hot loop carries
        zero instrumentation cost.  The simulation trajectory is
        bit-identical either way — the profiler only reads the clock.
        """
        profiler = self.profiler
        profiler.bind(self.components)
        clock = profiler.clock
        totals = profiler.totals_s
        ctx.profile_buckets = profiler.buckets
        ctx.profile_clock = clock
        run_started = clock()
        prev = run_started
        for i, component in enumerate(self.components):
            component.on_run_start(ctx)
            now = clock()
            totals[i] += now - prev
            prev = now
        hooks = tuple(c.on_step for c in self.components)
        driver = _step_driver(len(hooks), instrumented=True)
        driver(
            range(ctx.n_steps),
            ctx,
            ctx.state,
            ctx.dt,
            ctx.warmup_s,
            hooks,
            clock,
            totals,
        )
        for i, component in enumerate(self.components):
            prev = clock()
            component.on_run_end(ctx)
            totals[i] += clock() - prev
        # Call counts are exact arithmetic, not accounting: the engine
        # contract drives every hook of every component exactly once
        # per phase, so counting inside the hot loop would only buy
        # overhead.
        n_calls = ctx.n_steps + 2
        profiler.calls = [n_calls] * len(self.components)
        profiler.n_steps = ctx.n_steps
        profiler.engine_elapsed_s = clock() - run_started
        ctx.result.profile = profiler.profile()
        return ctx.result


class Simulation:
    """One simulation run binding a topology, parameters and a policy.

    Usage::

        sim = Simulation(moonshot_sut(), scaled(), CoolestFirst())
        result = sim.run(arrival_process.generate(params.sim_time_s))

    A ``Simulation`` object is reusable: every :meth:`run` builds a
    fresh state, result and RNG, and each pipeline component resets its
    per-run state in ``on_run_start`` (the auditor and tracer included),
    so back-to-back runs are independent and reproducible.
    """

    def __init__(
        self,
        topology,
        params,
        scheduler,
        migrator=None,
        fan_controller=None,
        trace_config=None,
        auditor=None,
        fault_schedule=None,
        telemetry=None,
        profile: bool = False,
        run_name: str = "run",
    ):
        """Bind a run configuration.

        Args:
            topology: Server geometry.
            params: Simulation parameters.
            scheduler: Placement policy (see :mod:`repro.core`); it
                receives a read-only :class:`~repro.sim.view.
                SchedulerView`, never the mutable state.
            migrator: Optional :class:`repro.core.migration.
                MigrationPolicy`; consulted every ``migrator.interval_s``
                to move long-running jobs to faster sockets.
            fan_controller: Optional :class:`repro.thermal.fan_control.
                FanController`; modulates airflow with load, scaling the
                coupling strength and charging cubic fan power.
            trace_config: Optional :class:`repro.sim.tracing.
                TraceConfig`; samples aggregate state periodically into
                ``result.trace``.
            auditor: Optional :class:`repro.sim.invariants.
                InvariantAuditor`; checks physical invariants every
                :data:`~repro.sim.invariants.AUDIT_INTERVAL_STEPS`
                steps and raises on violation.  Reset at every run
                start.
            fault_schedule: Optional :class:`repro.faults.schedule.
                FaultSchedule`; replayed deterministically by a
                :class:`repro.faults.injector.FaultInjector` spliced
                into the pipeline.  Runs without one (or with an empty
                schedule) are bit-identical to the fault-free engine.
            telemetry: Optional directory: record a structured JSONL
                event log per run there.  Purely observational — a
                telemetry-enabled run is bit-identical to a
                telemetry-off run.
            profile: Account per-component wall-clock with a
                :class:`repro.obs.profiler.StepProfiler`; the finished
                profile lands in ``result.profile``.
            run_name: Base name of telemetry log files (each run
                appends ``-r<k>`` so reuse never interleaves logs).
        """
        self.topology = topology
        self.params = params
        self.scheduler = scheduler
        self.migrator = migrator
        self.fan_controller = fan_controller
        self.trace_config = trace_config
        self.auditor = auditor
        self.fault_schedule = fault_schedule
        self.telemetry = telemetry
        self.profile = bool(profile)
        self.run_name = run_name
        # Both persist across runs: the recorder's run counter keeps
        # back-to-back logs in distinct files, and the profiler rebinds
        # (zeroing its accounting) at every run start.
        self._recorder = None
        self._profiler = None

    def build_components(self) -> List[StepComponent]:
        """The pipeline this simulation runs, in contract order.

        :func:`~repro.sim.pipeline.build_pipeline`'s components, then
        the telemetry recorder when ``telemetry`` is set.  Override to
        customise the pipeline; see ``docs/architecture.md`` for the
        ordering contract.
        """
        fault_injector = None
        if self.fault_schedule is not None:
            # Local import: repro.faults imports the pipeline module.
            from ..faults.injector import FaultInjector

            fault_injector = FaultInjector(self.fault_schedule)
        components = build_pipeline(
            migrator=self.migrator,
            fan_controller=self.fan_controller,
            trace_config=self.trace_config,
            auditor=self.auditor,
            fault_injector=fault_injector,
        )
        if self.telemetry is not None:
            if self._recorder is None:
                # Local import: repro.obs is an optional observer layer.
                from ..obs.session import TelemetryRecorder

                self._recorder = TelemetryRecorder(
                    self.telemetry, base_name=self.run_name
                )
            components.append(self._recorder)
        return components

    def run(self, jobs: Sequence[Job]) -> SimulationResult:
        """Simulate the given job stream to the configured horizon.

        Args:
            jobs: Jobs with pre-sampled arrival times and durations.
                Admission order is ``(arrival_s, job_id)``, so results
                do not depend on the caller's list order.

        Returns:
            A :class:`SimulationResult` covering the post-warm-up
            window.
        """
        ordered = sorted(
            jobs, key=lambda job: (job.arrival_s, job.job_id)
        )
        ctx = EngineContext.create(
            self.topology,
            self.params,
            self.scheduler,
            ordered,
            n_jobs_submitted=len(jobs),
        )
        if self.params.warm_start and ordered:
            _warm_start(ctx.state, ordered)
        profiler = None
        if self.profile:
            if self._profiler is None:
                from ..obs.profiler import StepProfiler

                self._profiler = StepProfiler()
            profiler = self._profiler
        engine = Engine(self.build_components(), profiler=profiler)
        result = engine.run(ctx)
        if not result.completed_jobs:
            raise SimulationError(
                "no jobs completed in the measurement window; increase "
                "sim_time_s or the offered load"
            )
        return result


def _warm_start(state, ordered: List[Job]) -> None:
    """Initialise the thermal field at the load-consistent fixed point.

    The sink chain converges stage by stage along the airflow direction
    (each position needs a few sink time constants after its upwind
    neighbours settle), so a cold start needs a horizon of dozens of
    time constants — affordable in the paper's 30-minute runs, not in
    scaled ones.  We instead solve the steady state for a *uniform*
    placement at the offered utilisation (leakage iterated to a fixed
    point) and start there; the warm-up window then relaxes the field
    to the scheduler-specific distribution.
    """
    from ..workloads.benchmark import profile_for
    from ..workloads.power_model import LEAKAGE_TDP_FRACTION
    from .steady_state import solve_steady_state

    topology = state.topology
    params = state.params
    n = topology.n_sockets
    horizon = params.sim_time_s
    total_work_s = sum(job.work_ms for job in ordered) / 1000.0
    utilization = min(total_work_s / (horizon * n), 1.0)

    sustained = float(state.ladder.sustained_mhz)
    max_mhz = float(state.ladder.max_mhz)
    apps = [job.app for job in ordered[:512]]
    dyn_max = (
        float(np.mean([app.power_at_max_w for app in apps]))
        - LEAKAGE_TDP_FRACTION * topology.tdp_array
    )
    dyn_exp = float(
        np.mean(
            [
                profile_for(app.benchmark_set).dynamic_exponent
                for app in apps
            ]
        )
    )
    dyn_sustained = dyn_max * (sustained / max_mhz) ** dyn_exp

    field = solve_steady_state(
        topology,
        params,
        dyn_sustained,
        np.full(n, utilization),
    )
    state.thermal.sink_c = field.sink_c.copy()
    state.thermal.chip_c = field.chip_c.copy()
    state.ambient_c = field.ambient_c.copy()
    state.history_c = field.chip_c.copy()
    state.busy_ema = np.full(n, utilization)
