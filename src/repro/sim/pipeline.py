"""The step-pipeline decomposition of the simulation engine.

Historically every cross-cutting concern of a run — arrivals, placement,
migration, DVFS, coupled thermals, fan control, metrics, tracing,
auditing — was hand-inlined in one monolithic ``Simulation.run`` loop,
so each new feature meant another ``if step % k == 0`` branch threaded
through 350 lines.  This module decomposes that loop into explicit,
ordered :class:`StepComponent` objects driven by a slim
:class:`~repro.sim.engine.Engine` that owns nothing but the clock.

Component ordering is a *contract*, not a convenience: the pipeline is
bit-identical to the historical monolith only because each phase reads
exactly the values its predecessor produced within the same step.  The
fixed order is::

    ArrivalAdmitter   admit arrivals into the central queue
    FaultInjector     (optional) apply due fault transitions
    Placer            scheduling decisions over idle sockets
    Migrator          (optional) periodic thermal-aware migration
    PowerManager      DVFS selection and electrical power draw
    WorkRetirer       retire work, interpolate completions
    FanControl        (optional) airflow scale for *this* step's thermals
    ThermalUpdater    coupling chain + two-node transient advance
    MetricsAccumulator measurement-window metric accumulation
    Tracer            (optional) time-series sampling
    Auditor           (optional) read-only invariant checks

Notably ``FanControl`` runs *before* ``ThermalUpdater`` (the airflow
scale it computes applies to the same step's coupling), and
``MetricsAccumulator`` runs *after* ``ThermalUpdater`` (the
max-chip-temperature metric sees post-advance temperatures).  See
``docs/architecture.md`` for the full contract and a recipe for adding
components.

Every component implements a three-hook protocol against a shared
:class:`EngineContext`:

- ``on_run_start(ctx)`` — reset per-run state (pointers, cadences);
- ``on_step(ctx)`` — advance one engine step;
- ``on_run_end(ctx)`` — finalise results (counters, derived metrics).

Components communicate only through the context (engine state, scratch
arrays, per-step scalars), never directly with each other.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..config.parameters import SimulationParameters
from ..server.topology import ServerTopology
from ..workloads.job import Job
from ..workloads.power_model import leakage_array
from . import invariants
from .power_manager import SelectionWorkspace, select_frequencies
from .results import SimulationResult
from .state import SimulationState
from .view import SchedulerView


@dataclass
class EngineContext:
    """Everything one simulation run shares across its components.

    Bundles the mutable :class:`~repro.sim.state.SimulationState`, the
    read-only :class:`~repro.sim.view.SchedulerView` handed to
    policies, precomputed topology arrays, the run RNG, the
    accumulating :class:`~repro.sim.results.SimulationResult`, and the
    per-step scratch values the pipeline phases hand to each other.

    Attributes:
        topology: Server geometry.
        params: Simulation parameters.
        scheduler: Placement policy.
        state: Mutable engine state (components own all mutation).
        view: Read-only state view handed to policies.
        rng: Run RNG (seeded from ``params.seed``); policies draw from
            it in decision order, which fixes the draw sequence.
        result: Accumulating run result.
        ordered_jobs: Jobs sorted by ``(arrival_s, job_id)``.
        queue: Central FIFO of admitted-but-unplaced jobs.
        dt: Engine step, seconds (the power-manager interval).
        dt_ms: Engine step, milliseconds.
        n_steps: Total steps to the configured horizon.
        warmup_s: Measurement-window start time, seconds.
        history_alpha: Per-step EMA weight of the temperature history.
        r_ext: Per-socket external (sink) thermal resistance, degC/W.
        theta_offset: Per-socket Equation 1 offset, degC.
        theta_slope: Per-socket Equation 1 slope, degC/W.
        gated_power: Per-socket idle (power-gated) draw, W.
        tdp: Per-socket TDP, W.
        inlet_c: Server inlet air temperature, degC.
        max_mhz: Top ladder frequency, MHz.
        span_mhz: Ladder frequency span, MHz.
        sustained_mhz: Highest non-boost frequency, MHz.
        step: Current step index (engine-owned).
        time_s: Current simulation time (engine-owned), seconds.
        in_window: Whether the current step is past warm-up.
        power: This step's per-socket power draw, W (written by
            :class:`PowerManager`, completion-adjusted by
            :class:`WorkRetirer`; aliases ``state.power_w``).
        retired: This step's per-socket retired work, ms (written by
            :class:`WorkRetirer`).
        busy_frac: Fraction of this step each socket was busy (written
            by :class:`WorkRetirer`).
        airflow_scale: Relative airflow this step (1.0 without fan
            control).
        fan_power_w: Electrical fan power this step, W.
        fan_active: Whether a fan controller is part of the pipeline.
    """

    topology: ServerTopology
    params: SimulationParameters
    scheduler: object
    state: SimulationState
    view: SchedulerView
    rng: np.random.Generator
    result: SimulationResult
    ordered_jobs: List[Job]
    queue: deque = field(default_factory=deque)

    # Clock constants.
    dt: float = 0.0
    dt_ms: float = 0.0
    n_steps: int = 0
    warmup_s: float = 0.0
    history_alpha: float = 0.0

    # Precomputed topology arrays.
    r_ext: np.ndarray = None
    theta_offset: np.ndarray = None
    theta_slope: np.ndarray = None
    gated_power: np.ndarray = None
    tdp: np.ndarray = None
    inlet_c: float = 0.0

    # Ladder constants.
    max_mhz: float = 0.0
    span_mhz: float = 0.0
    sustained_mhz: float = 0.0

    # Engine-owned clock state.
    step: int = 0
    time_s: float = 0.0
    in_window: bool = False

    # Per-step scratch handed between phases.
    power: np.ndarray = None
    retired: np.ndarray = None
    busy_frac: np.ndarray = None
    airflow_scale: float = 1.0
    fan_power_w: float = 0.0
    fan_active: bool = False

    # Fault machinery (a repro.faults.injector.FaultState when a fault
    # schedule is configured).  Every fault hook in the pipeline is
    # gated on this being non-None, which keeps fault-free runs
    # bit-identical to the pre-fault engine.
    fault_state: Optional[object] = None

    # Telemetry stream (a repro.obs.events.EventBus while a run
    # records telemetry, bound by the TelemetryRecorder component).
    # Every emission site is gated on this being non-None and only
    # *reads* state, which keeps telemetry-off runs bit-identical to
    # telemetry-on runs.
    telemetry: Optional[object] = None

    # Profiling sub-buckets (non-None only on profiled runs): the bound
    # StepProfiler's ``name -> [calls, total_s]`` accumulator dict and
    # its clock.  Components opt in to finer-than-component accounting
    # through these (e.g. the Placer's per-policy ``place:*`` bucket);
    # like the profiler itself they only read the clock, so bucketed
    # runs stay bit-identical to plain ones.
    profile_buckets: Optional[dict] = None
    profile_clock: Optional[object] = None

    @classmethod
    def create(
        cls,
        topology: ServerTopology,
        params: SimulationParameters,
        scheduler,
        ordered_jobs: List[Job],
        n_jobs_submitted: int,
    ) -> "EngineContext":
        """Build a fully initialised context for one run."""
        state = SimulationState(topology, params)
        rng = np.random.default_rng(params.seed + 0x5EED)
        ladder = state.ladder
        dt = params.power_manager_interval_s
        result = SimulationResult(
            scheduler_name=getattr(scheduler, "name", "unknown"),
            params=params,
            topology=topology,
            n_jobs_submitted=n_jobs_submitted,
            measured_span_s=params.measured_span_s,
        )
        return cls(
            topology=topology,
            params=params,
            scheduler=scheduler,
            state=state,
            view=SchedulerView(state),
            rng=rng,
            result=result,
            ordered_jobs=ordered_jobs,
            dt=dt,
            dt_ms=dt * 1000.0,
            n_steps=int(round(params.sim_time_s / dt)),
            warmup_s=params.warmup_s,
            history_alpha=1.0 - np.exp(-dt / params.history_tau_s),
            r_ext=topology.r_ext_array,
            theta_offset=topology.theta_offset_array,
            theta_slope=topology.theta_slope_array,
            gated_power=topology.gated_power_array,
            tdp=topology.tdp_array,
            inlet_c=params.inlet_c,
            max_mhz=float(ladder.max_mhz),
            span_mhz=float(ladder.max_mhz - ladder.min_mhz),
            sustained_mhz=float(ladder.sustained_mhz),
        )


class StepComponent:
    """One ordered phase of the simulation step pipeline.

    Subclasses override any of the three hooks; the defaults do
    nothing, so pure observers only implement what they need.  A
    component must confine its writes to its own phase's outputs (see
    the module docstring for the ordering contract) and must reset all
    per-run state in :meth:`on_run_start` so engine objects can be
    reused across runs.
    """

    def on_run_start(self, ctx: EngineContext) -> None:
        """Reset per-run state before the first step."""

    def on_step(self, ctx: EngineContext) -> None:
        """Advance this component's phase by one engine step."""

    def on_run_end(self, ctx: EngineContext) -> None:
        """Finalise results after the last step."""


class ArrivalAdmitter(StepComponent):
    """Admit jobs whose arrival time has come into the central queue.

    Jobs are consumed from ``ctx.ordered_jobs`` (sorted by
    ``(arrival_s, job_id)`` — the id tie-break makes results
    independent of the caller's list order for same-timestamp
    arrivals).
    """

    def __init__(self) -> None:
        self._pointer = 0

    def on_run_start(self, ctx: EngineContext) -> None:
        self._pointer = 0
        ctx.queue.clear()

    def on_step(self, ctx: EngineContext) -> None:
        ordered = ctx.ordered_jobs
        pointer = self._pointer
        t = ctx.time_s
        queue = ctx.queue
        while pointer < len(ordered) and ordered[pointer].arrival_s <= t:
            queue.append(ordered[pointer])
            pointer += 1
        self._pointer = pointer
        if len(queue) > ctx.result.max_queue_length:
            ctx.result.max_queue_length = len(queue)


class Placer(StepComponent):
    """Drain the queue onto idle sockets via the scheduling policy.

    The policy sees only the read-only :class:`~repro.sim.view.
    SchedulerView`; all mutation (the actual assignment) happens here
    through the engine-owned state.  Killed sockets are excluded from
    the idle set, so a policy can never be offered a dead socket.
    """

    def __init__(self) -> None:
        self._bucket = None
        self._clock = None

    def on_run_start(self, ctx: EngineContext) -> None:
        ctx.scheduler.reset(ctx.view, ctx.rng)
        # Per-policy placement bucket (profiled runs only): this step
        # component opts in to sub-component accounting, attributing
        # each step's drain (dominated by select_socket scoring) to
        # "place:<policy name>" with a placement count.  Resolved once
        # per run so the step hook only pays two clock reads.
        buckets = ctx.profile_buckets
        self._bucket = None
        if buckets is not None:
            scheduler = ctx.scheduler
            name = getattr(scheduler, "name", type(scheduler).__name__)
            self._bucket = buckets.setdefault(f"place:{name}", [0, 0.0])
            self._clock = ctx.profile_clock

    def on_step(self, ctx: EngineContext) -> None:
        queue = ctx.queue
        if not queue:
            return
        state = ctx.state
        scheduler = ctx.scheduler
        view = ctx.view
        idle = state.idle_socket_ids()
        faults = ctx.fault_state
        if faults is not None and faults.any_dead:
            idle = idle[faults.alive[idle]]
        telemetry = ctx.telemetry
        acc = self._bucket
        if acc is not None:
            # Timing the drain once per step instead of per placement
            # keeps the bucket to two clock reads a step, whatever the
            # number of placements (the whole profile measured 2.93%,
            # benchmarks/results/profiler_overhead.json).
            queued = len(queue)
            started = self._clock()
        while queue and idle.size:
            job = queue.popleft()
            socket_id = int(scheduler.select_socket(job, idle, view))
            state.assign(job, socket_id)
            idle = idle[idle != socket_id]
            if telemetry is not None:
                telemetry.emit(
                    "placement",
                    step=ctx.step,
                    t=ctx.time_s,
                    job_id=int(job.job_id),
                    socket=socket_id,
                )
        if acc is not None:
            acc[1] += self._clock() - started
            acc[0] += queued - len(queue)


class Migrator(StepComponent):
    """Periodically consult the migration policy and apply its moves.

    Registered only when a :class:`repro.core.migration.
    MigrationPolicy` is configured.  Fires every
    ``policy.interval_s`` (skipping step 0 — nothing has run yet).
    """

    def __init__(self, policy) -> None:
        self.policy = policy
        self._interval_steps = 1
        self._migrations = 0

    def on_run_start(self, ctx: EngineContext) -> None:
        self._interval_steps = max(
            int(round(self.policy.interval_s / ctx.dt)), 1
        )
        self._migrations = 0

    def on_step(self, ctx: EngineContext) -> None:
        step = ctx.step
        if step == 0 or step % self._interval_steps != 0:
            return
        state = ctx.state
        telemetry = ctx.telemetry
        for source, destination in self.policy.propose(ctx.view):
            state.migrate(source, destination, self.policy.cost_ms)
            self._migrations += 1
            if telemetry is not None:
                telemetry.emit(
                    "migration",
                    step=ctx.step,
                    t=ctx.time_s,
                    source=int(source),
                    destination=int(destination),
                )

    def on_run_end(self, ctx: EngineContext) -> None:
        ctx.result.n_migrations = self._migrations


class PowerManager(StepComponent):
    """Select per-socket DVFS states and compute electrical power.

    Runs the batched frequency selection from the current sink
    temperature with ``r_ext=0.0`` (see
    :func:`repro.sim.power_manager.select_frequencies`), then derives
    socket power: dynamic + leakage while busy, the gated floor while
    idle.  The leakage vector is computed once and shared with the
    frequency selection — both need the identical quantity.

    Under a fault schedule this phase is also the graceful-degradation
    seat: it advances the thermal-trip machine on the **true** chip
    temperatures, applies wedged-ladder / power-cap / trip frequency
    overrides before power is derived, and zeroes the draw of killed
    sockets (see :class:`repro.faults.injector.FaultState`).
    """

    def __init__(self) -> None:
        self._leak: Optional[np.ndarray] = None
        self._busy_power: Optional[np.ndarray] = None
        self._workspace: Optional[SelectionWorkspace] = None
        self._last_throttled = 0

    def on_run_start(self, ctx: EngineContext) -> None:
        n = ctx.topology.n_sockets
        self._leak = np.empty(n)
        self._busy_power = np.empty(n)
        self._workspace = SelectionWorkspace.for_ladder(
            ctx.state.ladder, n
        )
        self._last_throttled = 0

    def on_step(self, ctx: EngineContext) -> None:
        state = ctx.state
        params = ctx.params
        ladder = state.ladder
        leak = leakage_array(state.chip_c, ctx.tdp, out=self._leak)
        freq = select_frequencies(
            ambient_c=state.sink_c,
            chip_c=state.chip_c,
            dyn_max_w=state.dyn_max_w,
            dyn_exp=state.dyn_exp,
            tdp_w=ctx.tdp,
            r_ext=0.0,
            theta_offset=ctx.theta_offset,
            theta_slope=ctx.theta_slope,
            ladder=ladder,
            params=params,
            leakage_w=leak,
            workspace=self._workspace,
        )
        faults = ctx.fault_state
        if faults is not None:
            faults.update_trips(state.chip_c, ctx.step, ctx.dt)
            freq = faults.override_frequencies(
                freq, float(ladder.min_mhz)
            )
        busy = state.busy
        state.freq_mhz = np.where(busy, freq, float(ladder.min_mhz))
        # busy_power = dyn_max * (freq / max) ** exp + leak, in place
        # (see dynamic_power; commutative reorder only).
        busy_power = np.divide(
            state.freq_mhz, ctx.max_mhz, out=self._busy_power
        )
        busy_power **= state.dyn_exp
        busy_power *= state.dyn_max_w
        busy_power += leak
        power = np.where(busy, busy_power, ctx.gated_power)
        if faults is not None:
            faults.zero_dead_power(power)
        state.power_w = power
        ctx.power = power
        telemetry = ctx.telemetry
        if telemetry is not None:
            if faults is not None:
                # trip_step == step picks exactly this step's new trips.
                for socket_id in np.nonzero(
                    faults.trip_step == ctx.step
                )[0]:
                    telemetry.emit(
                        "thermal_trip",
                        step=ctx.step,
                        t=ctx.time_s,
                        socket=int(socket_id),
                    )
            # Edge-triggered: one event whenever the number of busy
            # sockets held below the sustained frequency changes.
            n_throttled = int(
                np.count_nonzero(
                    busy & (state.freq_mhz < ctx.sustained_mhz)
                )
            )
            if n_throttled != self._last_throttled:
                self._last_throttled = n_throttled
                telemetry.emit(
                    "dvfs_throttle",
                    step=ctx.step,
                    t=ctx.time_s,
                    n_throttled=n_throttled,
                )


class WorkRetirer(StepComponent):
    """Retire work at the granted frequency; interpolate completions.

    A completing socket's final sub-step is interpolated: the job
    retires exactly its remaining work, the socket counts as busy for
    the matching fraction of the step, and its power blends toward the
    gated floor for the remainder.  Completed jobs inside the
    measurement window are appended to the result in socket order.
    """

    def __init__(self) -> None:
        self._done_ms: Optional[np.ndarray] = None
        self._busy_frac: Optional[np.ndarray] = None
        self._retired: Optional[np.ndarray] = None
        self._completing: Optional[np.ndarray] = None

    def on_run_start(self, ctx: EngineContext) -> None:
        n = ctx.topology.n_sockets
        self._done_ms = np.empty(n)
        self._busy_frac = np.empty(n)
        self._retired = np.empty(n)
        self._completing = np.empty(n, dtype=bool)

    def on_step(self, ctx: EngineContext) -> None:
        state = ctx.state
        power = ctx.power
        max_mhz = ctx.max_mhz
        span_mhz = ctx.span_mhz if ctx.span_mhz > 0 else 1.0
        # done_ms = (1 - perf_drop * (max - freq) / span) * dt_ms,
        # accumulated in place (commutative reorder only).
        done_ms = np.subtract(max_mhz, state.freq_mhz, out=self._done_ms)
        done_ms *= state.perf_drop
        done_ms /= span_mhz
        np.subtract(1.0, done_ms, out=done_ms)
        done_ms *= ctx.dt_ms
        busy = state.busy
        busy_frac = self._busy_frac
        np.copyto(busy_frac, busy)
        # retired = where(busy, done_ms, 0) == busy * done_ms exactly
        # (1.0 * x and 0.0 * x are exact for finite positive work).
        retired = np.multiply(busy, done_ms, out=self._retired)
        completing = np.less_equal(
            state.remaining_work_ms, done_ms, out=self._completing
        )
        completing &= busy
        if completing.any():
            ids = np.nonzero(completing)[0]
            remaining = state.remaining_work_ms[ids]
            frac = remaining / done_ms[ids]
            retired[ids] = remaining
            busy_frac[ids] = frac
            power[ids] = (
                power[ids] * frac
                + ctx.gated_power[ids] * (1.0 - frac)
            )
            t = ctx.time_s
            dt = ctx.dt
            in_window = ctx.in_window
            completed = ctx.result.completed_jobs
            for i, socket_id in enumerate(ids):
                job = state.release(int(socket_id))
                job.finish_s = t + frac[i] * dt
                if in_window:
                    completed.append(job)
        # Completions already released; subtract in place only where
        # still running (masked ufunc instead of fancy-index copies).
        remaining = state.remaining_work_ms
        np.subtract(
            remaining, done_ms, out=remaining, where=state.busy
        )
        ctx.retired = retired
        ctx.busy_frac = busy_frac


class FanControl(StepComponent):
    """Modulate delivered airflow with the server's heat load.

    Registered only when a :class:`repro.thermal.fan_control.
    FanController` is configured.  Runs *before* the thermal update:
    the scale computed from this step's power applies to this step's
    coupling (less airflow strengthens coupling as 1/scale) and its
    cubic electrical power is charged to this step's cooling energy.
    """

    def __init__(self, controller) -> None:
        self.controller = controller
        self._interval_steps = 1

    def on_run_start(self, ctx: EngineContext) -> None:
        self._interval_steps = max(
            int(round(self.controller.interval_s / ctx.dt)), 1
        )
        ctx.fan_active = True
        ctx.airflow_scale = 1.0
        ctx.fan_power_w = self.controller.fan_power_w(1.0)

    def on_step(self, ctx: EngineContext) -> None:
        if ctx.step % self._interval_steps != 0:
            return
        scale = self.controller.airflow_scale(float(ctx.power.sum()))
        ctx.airflow_scale = scale
        ctx.fan_power_w = self.controller.fan_power_w(scale)


class ThermalUpdater(StepComponent):
    """Advance the coupling chain and the two-node thermal model.

    Computes each sink's heat output into the air stream, maps it
    through the coupling matrix to per-socket entry temperatures
    (scaled by the current airflow), and relaxes the sink and chip
    nodes toward their new targets with precomputed per-run decay
    factors.  Also maintains the smoothed temperature history and
    utilisation EMAs that policies consume.
    """

    def __init__(self) -> None:
        self._sink_decay = 1.0
        self._chip_decay = 1.0
        self._scratch: Optional[np.ndarray] = None
        self._theta: Optional[np.ndarray] = None
        self._ema: Optional[np.ndarray] = None
        self._matrix: Optional[np.ndarray] = None
        self._ambient: Optional[np.ndarray] = None

    def on_run_start(self, ctx: EngineContext) -> None:
        thermal = ctx.state.thermal
        self._sink_decay = float(
            np.exp(-ctx.dt / thermal.socket_tau_s)
        )
        self._chip_decay = float(np.exp(-ctx.dt / thermal.chip_tau_s))
        n = ctx.topology.n_sockets
        self._scratch = np.empty(n)
        self._theta = np.empty(n)
        self._ema = np.empty(n)
        self._matrix = ctx.topology.coupling.matrix
        self._ambient = np.empty(n)

    def on_step(self, ctx: EngineContext) -> None:
        state = ctx.state
        power = ctx.power
        inlet = ctx.inlet_c
        sink_heat = state.thermal.sink_heat_output_w(
            state.ambient_c, ctx.r_ext, out=self._scratch
        )
        # entry = inlet + M @ heat; the rise over inlet is divided by
        # the airflow scale and re-based on the inlet.  The round-trip
        # through the rise is kept even at scale 1.0 (the rounded
        # subtraction is part of the historical trajectory); only the
        # exact division by 1.0 is skipped.
        ambient = np.matmul(self._matrix, sink_heat, out=self._ambient)
        ambient += inlet
        ambient -= inlet
        if ctx.airflow_scale != 1.0:
            ambient /= ctx.airflow_scale
        faults = ctx.fault_state
        if faults is not None and faults.airflow_degraded:
            # Degraded fan lanes amplify their sockets' entry rises
            # as 1/residual-airflow, on top of any global
            # fan-control scale.
            ambient /= faults.airflow_factor
        ambient += inlet
        state.ambient_c = ambient
        theta = np.multiply(ctx.theta_slope, power, out=self._theta)
        theta += ctx.theta_offset
        state.thermal.step_decayed(
            self._sink_decay,
            self._chip_decay,
            ambient,
            power,
            ctx.params.r_int,
            ctx.r_ext,
            theta,
            scratch=self._scratch,
        )
        # history += alpha * (chip - history), accumulated in place.
        alpha = ctx.history_alpha
        ema = np.subtract(state.chip_c, state.history_c, out=self._ema)
        ema *= alpha
        state.history_c += ema
        np.subtract(state.busy, state.busy_ema, out=ema)
        ema *= alpha
        state.busy_ema += ema


class MetricsAccumulator(StepComponent):
    """Accumulate measurement-window metrics into the run result.

    Pure observer over the step's final state: energy, cooling energy,
    retired work, busy/boost time, the frequency-time product and the
    per-socket temperature high-water mark.
    """

    def __init__(self) -> None:
        self._scale_time_product = 0.0
        self._buf: Optional[np.ndarray] = None

    def on_run_start(self, ctx: EngineContext) -> None:
        self._scale_time_product = 0.0
        self._buf = np.empty(ctx.topology.n_sockets)

    def on_step(self, ctx: EngineContext) -> None:
        if not ctx.in_window:
            return
        result = ctx.result
        state = ctx.state
        dt = ctx.dt
        busy_frac = ctx.busy_frac
        buf = self._buf
        result.energy_j += float(ctx.power.sum()) * dt
        result.cooling_energy_j += ctx.fan_power_w * dt
        self._scale_time_product += ctx.airflow_scale * dt
        result.work_done += ctx.retired
        np.multiply(busy_frac, dt, out=buf)
        result.busy_time_s += buf
        # freq_time += (freq / max) * busy_frac * dt, in place.
        np.divide(state.freq_mhz, ctx.max_mhz, out=buf)
        buf *= busy_frac
        buf *= dt
        result.freq_time_product += buf
        boosting = (state.freq_mhz > ctx.sustained_mhz) & (
            busy_frac > 0
        )
        np.multiply(boosting, busy_frac, out=buf)
        buf *= dt
        result.boost_time_s += buf
        np.maximum(
            result.max_chip_c, state.chip_c, out=result.max_chip_c
        )

    def on_run_end(self, ctx: EngineContext) -> None:
        if ctx.params.measured_span_s > 0:
            ctx.result.mean_airflow_scale = (
                self._scale_time_product / ctx.params.measured_span_s
                if ctx.fan_active
                else 1.0
            )


class Tracer(StepComponent):
    """Sample aggregate state into a fresh per-run time-series trace.

    Registered only when a :class:`repro.sim.tracing.TraceConfig` is
    configured.  Each run gets its own
    :class:`~repro.sim.tracing.SimulationTrace`, so reusing the engine
    never concatenates traces across runs.
    """

    def __init__(self, config) -> None:
        self.config = config
        self._interval_steps = 1
        self._trace = None

    def reset(self) -> None:
        """Drop any trace left from a previous (possibly aborted) run.

        ``on_run_start`` already builds a fresh trace per run; this
        exists for the engine-reuse contract shared with the telemetry
        recorder, so harnesses can scrub observers between runs without
        knowing their types.
        """
        self._trace = None

    def on_run_start(self, ctx: EngineContext) -> None:
        from .tracing import SimulationTrace

        self.reset()
        self._interval_steps = max(
            int(round(self.config.interval_s / ctx.dt)), 1
        )
        self._trace = SimulationTrace()
        ctx.result.trace = self._trace

    def on_step(self, ctx: EngineContext) -> None:
        if ctx.step % self._interval_steps != 0:
            return
        self._trace.sample(ctx.state, len(ctx.queue), ctx.max_mhz)
        self._trace.sample_zones(ctx.state)


class Auditor(StepComponent):
    """Periodically check physical invariants of the full state.

    Registered only when an :class:`repro.sim.invariants.
    InvariantAuditor` is configured; it checks every
    :data:`~repro.sim.invariants.AUDIT_INTERVAL_STEPS` steps, read at
    each step.  The auditor is reset at run start, so reusing a
    `Simulation` across runs audits each run independently instead of
    silently accumulating energy baselines.
    Auditing reads state only — an audited run is bit-identical to an
    unaudited one.
    """

    def __init__(self, auditor) -> None:
        self.auditor = auditor

    def on_run_start(self, ctx: EngineContext) -> None:
        self.auditor.reset()

    def on_step(self, ctx: EngineContext) -> None:
        if ctx.step % invariants.AUDIT_INTERVAL_STEPS != 0:
            return
        self.auditor.check(
            ctx.state,
            ctx.step,
            ctx.result.energy_j,
            airflow_scale=ctx.airflow_scale,
            faults=ctx.fault_state,
        )


def build_pipeline(
    migrator=None,
    fan_controller=None,
    trace_config=None,
    auditor=None,
    fault_injector=None,
) -> List[StepComponent]:
    """The standard component pipeline in contract order.

    ``ArrivalAdmitter``, ``Placer``, ``PowerManager``, ``WorkRetirer``,
    ``ThermalUpdater`` and ``MetricsAccumulator`` are always present;
    ``Migrator``, ``FanControl``, ``Tracer``, ``Auditor`` and the
    ``fault_injector`` (a :class:`repro.faults.injector.FaultInjector`)
    join only when configured.  The fault injector is spliced between
    ``ArrivalAdmitter`` and ``Placer``: fault transitions must land
    before any placement decision so a socket killed at time t never
    receives a job at time t, and the injector's view swap must happen
    before the placer hands the view to the scheduler's ``reset``.
    A caller may append read-only observers to the returned list (the
    engine's telemetry recorder joins this way); components that
    mutate state must instead be spliced in explicitly at the right
    phase (see ``docs/architecture.md``).
    """
    components: List[StepComponent] = [ArrivalAdmitter()]
    if fault_injector is not None:
        components.append(fault_injector)
    components.append(Placer())
    if migrator is not None:
        components.append(Migrator(migrator))
    components.append(PowerManager())
    components.append(WorkRetirer())
    if fan_controller is not None:
        components.append(FanControl(fan_controller))
    components.append(ThermalUpdater())
    components.append(MetricsAccumulator())
    if trace_config is not None:
        components.append(Tracer(trace_config))
    if auditor is not None:
        components.append(Auditor(auditor))
    return components

