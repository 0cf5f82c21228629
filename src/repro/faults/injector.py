"""Runtime fault state and the pipeline component that drives it.

The :class:`FaultInjector` is a :class:`~repro.sim.pipeline.
StepComponent` spliced between ``ArrivalAdmitter`` and ``Placer`` (see
``docs/architecture.md`` for why that slot): at run start it compiles
its :class:`~repro.faults.schedule.FaultSchedule` into per-step
transitions and swaps the context's scheduler view for a
:class:`~repro.sim.view.FaultAwareSchedulerView`; each step it applies
the transitions that fall due *before* any placement decision, so a
socket killed at time t never receives a job at time t.

All runtime flags live in one :class:`FaultState` object shared (via
``ctx.fault_state``) with the engine phases that must react:

- ``Placer`` filters dead sockets out of the idle set;
- ``PowerManager`` runs the thermal-trip machine on **true** chip
  temperatures, overrides wedged DVFS ladders, applies transient
  power caps, and zeroes power on dead sockets;
- ``ThermalUpdater`` divides each socket's entry-air rise by its
  residual airflow factor;
- the scheduler view overlays sensor corruption onto every observed
  temperature channel;
- the :class:`~repro.sim.invariants.InvariantAuditor` asserts the
  fault-aware envelopes.

Bit-identity contract: every hook in the engine is gated on
``ctx.fault_state is not None`` *and* on the specific fault class
being active, so a run with no schedule — or with an empty one — is
bit-identical to the pre-fault engine.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..sim.pipeline import EngineContext, StepComponent
from ..sim.view import FaultAwareSchedulerView, _readonly
from .events import (
    DVFSStuckFault,
    FanLaneFault,
    FaultEvent,
    PowerCapFault,
    SensorFault,
    SensorFaultMode,
    SocketKillFault,
)
from .schedule import FaultSchedule

#: Temperature channels subject to sensor corruption (the socket's
#: telemetry block reports all of them through one faulty path).
OBSERVED_CHANNELS = ("chip_c", "sink_c", "ambient_c", "history_c")


class FaultState:
    """Mutable per-run fault flags consumed across the pipeline.

    One instance is created per run by the :class:`FaultInjector` and
    exposed as ``ctx.fault_state``.  All arrays are per-socket.

    Attributes:
        alive: ``False`` while a socket is killed.
        airflow_factor: Residual airflow per socket in (0, 1]; entry
            rises are divided by it.
        airflow_degraded: Fast-path flag, ``True`` iff any factor < 1.
        tripped: Thermal-trip latch per socket.
        trip_step: Step at which the current trip began (-1 untripped).
        response: The schedule's :class:`~repro.faults.schedule.
            FaultResponse`.
        n_trips: Trips latched over the run.
        n_evictions: Jobs evicted off killed sockets over the run.
    """

    def __init__(self, topology, params, response) -> None:
        n = topology.n_sockets
        self.topology = topology
        self.response = response
        self._trip_c = (
            params.temperature_limit_c + response.trip_margin_c
        )
        self.alive = np.ones(n, dtype=bool)
        self.airflow_factor = np.ones(n)
        self.airflow_degraded = False
        self.sensor_bias = np.zeros(n)
        self.sensor_stuck = np.full(n, np.nan)
        self.sensor_dropout = np.zeros(n, dtype=bool)
        self._held = {
            channel: np.full(n, np.nan) for channel in OBSERVED_CHANNELS
        }
        self.sensors_faulty = False
        self.dvfs_stuck_mhz = np.full(n, np.nan)
        self.power_cap_mhz = float("inf")
        self._active_caps: List[float] = []
        self._active_fans: List[FanLaneFault] = []
        self.tripped = np.zeros(n, dtype=bool)
        self.trip_step = np.full(n, -1, dtype=np.int64)
        self.n_trips = 0
        self.n_evictions = 0

    @property
    def trip_c(self) -> float:
        """The emergency-throttle trip temperature, degC."""
        return self._trip_c

    @property
    def any_dead(self) -> bool:
        """Whether at least one socket is currently killed."""
        return not self.alive.all()

    # -- observed telemetry ---------------------------------------------

    def observe(
        self, channel: str, true_values: np.ndarray
    ) -> np.ndarray:
        """The values policies see for one temperature channel.

        With no active sensor fault this is a zero-copy read-only view
        of the true array (preserving bit-identity and allocation
        behaviour); otherwise a corrupted copy with the per-socket
        bias / stuck / dropout overlays applied.
        """
        if not self.sensors_faulty:
            return _readonly(true_values)
        observed = true_values + self.sensor_bias
        stuck = ~np.isnan(self.sensor_stuck)
        observed[stuck] = self.sensor_stuck[stuck]
        dropout = self.sensor_dropout
        observed[dropout] = self._held[channel][dropout]
        observed.flags.writeable = False
        return observed

    # -- power-manager hooks --------------------------------------------

    def update_trips(
        self, chip_c: np.ndarray, step: int, dt: float
    ) -> None:
        """Advance the thermal-trip state machine one engine step.

        Runs on the *true* chip temperatures (a hardware trip uses the
        on-die analog path, so sensor faults cannot mask it).  Dead
        sockets draw no power and never trip.
        """
        response = self.response
        newly = (chip_c > self._trip_c) & ~self.tripped & self.alive
        if newly.any():
            self.tripped |= newly
            self.trip_step[newly] = step
            self.n_trips += int(newly.sum())
        if self.tripped.any():
            held = (
                (step - self.trip_step) * dt >= response.trip_hold_s
            )
            cool = chip_c < self._trip_c - response.trip_hysteresis_c
            clear = self.tripped & held & cool
            if clear.any():
                self.tripped[clear] = False
                self.trip_step[clear] = -1

    def override_frequencies(
        self, freq_mhz: np.ndarray, min_mhz: float
    ) -> np.ndarray:
        """Apply DVFS faults and responses to the manager's selection.

        Order matters and models the hardware: a wedged ladder replaces
        the selection, a power cap ceilings whatever the ladder
        produced, and a thermal trip forces the floor past both (the
        trip path is downstream of the ladder *and* the cap governor).
        Returns ``freq_mhz`` unchanged (same object) when no override
        is active.
        """
        stuck = ~np.isnan(self.dvfs_stuck_mhz)
        if stuck.any():
            freq_mhz = np.where(stuck, self.dvfs_stuck_mhz, freq_mhz)
        if self.power_cap_mhz != float("inf"):
            freq_mhz = np.minimum(freq_mhz, self.power_cap_mhz)
        if self.tripped.any():
            freq_mhz = np.where(self.tripped, min_mhz, freq_mhz)
        return freq_mhz

    def zero_dead_power(self, power_w: np.ndarray) -> None:
        """Force exactly zero draw on killed sockets (in place)."""
        if self.any_dead:
            power_w[~self.alive] = 0.0

    # -- summary --------------------------------------------------------

    def summary(self, schedule: FaultSchedule) -> Dict[str, object]:
        """Plain-data digest of the run's fault activity."""
        return {
            "schedule_fingerprint": schedule.fingerprint(),
            "n_events": len(schedule),
            "n_trips": self.n_trips,
            "n_evictions": self.n_evictions,
            "n_dead_at_end": int((~self.alive).sum()),
            "tripped_at_end": int(self.tripped.sum()),
        }


class FaultInjector(StepComponent):
    """Pipeline component replaying a :class:`FaultSchedule`.

    Must sit between ``ArrivalAdmitter`` and ``Placer``: its
    ``on_run_start`` swaps ``ctx.view`` for the fault-aware view
    *before* the placer hands it to the scheduler's ``reset``, and its
    ``on_step`` applies fault transitions before any placement, so the
    placer never sees a stale alive set.
    """

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule
        self.fault_state: Optional[FaultState] = None
        self._transitions: Dict[
            int, List[Tuple[bool, FaultEvent]]
        ] = {}

    def on_run_start(self, ctx: EngineContext) -> None:
        self.schedule.validate(ctx.topology)
        state = FaultState(
            ctx.topology, ctx.params, self.schedule.response
        )
        self.fault_state = state
        ctx.fault_state = state
        ctx.view = FaultAwareSchedulerView(ctx.state, state)
        transitions: Dict[int, List[Tuple[bool, FaultEvent]]] = {}
        for event in self.schedule.events:
            start = self._step_of(event.start_s, ctx.dt)
            if start < ctx.n_steps:
                transitions.setdefault(start, []).append((True, event))
            if event.end_s is not None:
                end = self._step_of(event.end_s, ctx.dt)
                if end < ctx.n_steps:
                    transitions.setdefault(end, []).append(
                        (False, event)
                    )
        self._transitions = transitions

    @staticmethod
    def _step_of(time_s: float, dt: float) -> int:
        """First engine step whose time is >= ``time_s``."""
        return int(np.ceil(time_s / dt - 1e-9))

    def on_step(self, ctx: EngineContext) -> None:
        due = self._transitions.get(ctx.step)
        if not due:
            return
        telemetry = ctx.telemetry
        for activating, event in due:
            self._apply(ctx, event, activating)
            if telemetry is not None:
                telemetry.emit(
                    "fault_activation",
                    step=ctx.step,
                    t=ctx.time_s,
                    fault=type(event).__name__,
                    activating=activating,
                )

    def on_run_end(self, ctx: EngineContext) -> None:
        ctx.result.fault_summary = self.fault_state.summary(
            self.schedule
        )

    # -- transition application -----------------------------------------

    def _apply(
        self, ctx: EngineContext, event: FaultEvent, activating: bool
    ) -> None:
        state = self.fault_state
        if isinstance(event, FanLaneFault):
            if activating:
                state._active_fans.append(event)
            else:
                state._active_fans.remove(event)
            self._recompute_airflow(ctx)
        elif isinstance(event, SensorFault):
            self._apply_sensor(ctx, event, activating)
        elif isinstance(event, DVFSStuckFault):
            state.dvfs_stuck_mhz[event.socket_id] = (
                event.stuck_mhz if activating else np.nan
            )
        elif isinstance(event, PowerCapFault):
            if activating:
                state._active_caps.append(event.cap_mhz)
            else:
                state._active_caps.remove(event.cap_mhz)
            state.power_cap_mhz = (
                min(state._active_caps)
                if state._active_caps
                else float("inf")
            )
        elif isinstance(event, SocketKillFault):
            self._apply_kill(ctx, event, activating)

    def _recompute_airflow(self, ctx: EngineContext) -> None:
        state = self.fault_state
        topology = ctx.topology
        factor = state.airflow_factor
        factor.fill(1.0)
        for fault in state._active_fans:
            mask = topology.row_array == fault.row
            if fault.lane is not None:
                mask = mask & (topology.lane_array == fault.lane)
            factor[mask] *= fault.scale
        state.airflow_degraded = bool((factor != 1.0).any())

    def _apply_sensor(
        self, ctx: EngineContext, event: SensorFault, activating: bool
    ) -> None:
        state = self.fault_state
        socket = event.socket_id
        if event.mode is SensorFaultMode.BIAS:
            state.sensor_bias[socket] += (
                event.bias_c if activating else -event.bias_c
            )
        elif event.mode is SensorFaultMode.STUCK:
            state.sensor_stuck[socket] = (
                event.stuck_c if activating else np.nan
            )
        else:  # DROPOUT: hold the last good reading of every channel
            state.sensor_dropout[socket] = activating
            if activating:
                sim = ctx.state
                true = {
                    "chip_c": sim.thermal.chip_c,
                    "sink_c": sim.thermal.sink_c,
                    "ambient_c": sim.ambient_c,
                    "history_c": sim.history_c,
                }
                for channel, values in true.items():
                    state._held[channel][socket] = values[socket]
        state.sensors_faulty = bool(
            state.sensor_bias.any()
            or (~np.isnan(state.sensor_stuck)).any()
            or state.sensor_dropout.any()
        )

    def _apply_kill(
        self, ctx: EngineContext, event: SocketKillFault, activating: bool
    ) -> None:
        state = self.fault_state
        socket = event.socket_id
        if activating:
            state.alive[socket] = False
            # A dead socket cannot stay latched in a trip.
            if state.tripped[socket]:
                state.tripped[socket] = False
                state.trip_step[socket] = -1
            if ctx.state.busy[socket]:
                job = ctx.state.release(socket)
                job.socket_id = None
                # Fail-stop: progress is lost; the job restarts from
                # scratch when re-placed.  It rejoins the tail of the
                # central queue (behind same-step arrivals).
                ctx.queue.append(job)
                state.n_evictions += 1
                if ctx.telemetry is not None:
                    ctx.telemetry.emit(
                        "eviction",
                        step=ctx.step,
                        t=ctx.time_s,
                        socket=int(socket),
                        job_id=int(job.job_id),
                    )
        else:
            state.alive[socket] = True
