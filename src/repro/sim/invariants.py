"""Runtime invariant auditing for simulation runs.

The engine advances thousands of vectorised steps per run; a silent
physics bug (a NaN leaking out of a thermal update, a power excursion
past the TDP envelope, work retiring twice) can corrupt every metric
downstream without crashing anything.  The :class:`InvariantAuditor` is
an opt-in guard hooked into :meth:`repro.sim.engine.Simulation.run`:
every :data:`AUDIT_INTERVAL_STEPS` steps it checks the physical
consistency of the full simulation state and raises a structured
:class:`InvariantViolation` (a :class:`~repro.errors.SimulationError`)
naming the step, the offending socket and the violated invariant.

Checked invariants:

- every temperature, power and work value is finite;
- temperatures are ordered along the heat path: ``inlet <= ambient``
  exactly (coupling only ever heats the air) and
  ``ambient <= sink + lag`` / ``sink <= chip + lag`` within a
  thermal-mass lag tolerance (the sink node may transiently trail a
  fast-moving ambient, and the chip node its target, by a bounded
  amount set by the time constants);
- per-socket power stays inside ``[gated, tdp + leakage margin]``;
- remaining work on every socket is non-negative, and idle sockets
  carry exactly zero remaining work;
- cumulative energy is monotone non-decreasing between audits.

Under a fault schedule (a :class:`repro.faults.injector.FaultState`
passed as ``faults``) the envelopes become fault-aware:

- a killed socket must draw exactly zero power (and is exempted from
  the gated floor);
- a thermally tripped socket must sit at the ladder floor once the
  trip has been latched for ``trip_response_steps`` engine steps;
- a socket continuously tripped for ``trip_recovery_taus`` heat-sink
  time constants must have cooled back below the trip temperature
  (within the lag tolerance) — the check that a broken emergency
  response cannot pass.

Auditing reads state only — it never mutates anything — so an audited
run produces bit-identical results to an unaudited one.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import SimulationError

#: Audit cadence, in power-manager steps.
AUDIT_INTERVAL_STEPS = 50

#: Thermal-mass lag tolerance, degC.  The sink node relaxes with
#: a multi-second time constant while entry air can move within one
#: step, so ``sink >= ambient`` only holds up to the transient lag; the
#: same applies to chip vs its target.  5 degC comfortably bounds the
#: lag for every calibrated topology while still catching real ordering
#: bugs, which show up as tens of degrees.
LAG_TOLERANCE_C = 5.0

#: Slack on the power envelope, W.
POWER_TOLERANCE_W = 0.5

#: Extra chip-temperature headroom assumed when sizing the leakage
#: margin of the power upper bound, degC.
_LEAKAGE_HEADROOM_C = 15.0

#: Absolute slack for exact (non-lag) comparisons.
_EPS = 1e-9


class InvariantViolation(SimulationError):
    """A runtime invariant failed during a simulation step.

    Attributes:
        invariant: Short name of the violated invariant.
        step: Engine step index at which the audit fired.
        socket_id: Offending socket, or ``None`` for global invariants
            (e.g. energy monotonicity).
        value: The offending value.
    """

    def __init__(
        self,
        invariant: str,
        step: int,
        socket_id: Optional[int],
        value: float,
        detail: str,
    ):
        self.invariant = invariant
        self.step = step
        self.socket_id = socket_id
        self.value = value
        self.detail = detail
        where = (
            f"socket {socket_id}" if socket_id is not None else "global"
        )
        super().__init__(
            f"invariant '{invariant}' violated at step {step} "
            f"({where}): {detail}"
        )

    def __reduce__(self):
        # Default exception pickling would replay ``args`` (the single
        # formatted message) into the five-argument constructor; rebuild
        # from the structured fields so violations cross process
        # boundaries intact.
        return (
            InvariantViolation,
            (
                self.invariant,
                self.step,
                self.socket_id,
                self.value,
                self.detail,
            ),
        )


class InvariantAuditor:
    """Periodic physical-consistency checker for one simulation run.

    An auditor is stateful: it tracks the last audited cumulative
    energy and the number of audits performed.  The engine's
    :class:`~repro.sim.pipeline.Auditor` component calls :meth:`reset`
    at every run start, so one auditor instance can safely observe
    back-to-back runs — each run is audited independently instead of
    silently inheriting the previous run's energy baseline (which
    would trip the monotonicity check or, worse, mask a regression).

    The cadence and tolerances are the module constants
    :data:`AUDIT_INTERVAL_STEPS`, :data:`LAG_TOLERANCE_C` and
    :data:`POWER_TOLERANCE_W`, read at each check.

    Attributes:
        n_audits: Number of audits performed in the current run.
    """

    def __init__(self) -> None:
        self.n_audits = 0
        self._last_energy_j = 0.0

    def reset(self) -> None:
        """Forget per-run state (audit count, energy baseline).

        Called by the engine at run start; also safe to call manually
        between hand-driven :meth:`check` sequences.
        """
        self.n_audits = 0
        self._last_energy_j = 0.0

    def check(
        self,
        state,
        step: int,
        energy_j: float,
        airflow_scale: float = 1.0,
        faults=None,
    ) -> None:
        """Audit the state after engine step ``step``.

        Args:
            state: The engine's :class:`~repro.sim.state.
                SimulationState`.
            step: Current step index (for error context).
            energy_j: Cumulative measured energy so far, joules.
            airflow_scale: Relative airflow this step (1.0 without fan
                control).  Slowed airflow amplifies every entry-air
                rise by ``1/scale``, so the sink-lag check compares
                the sink against the rise *at design airflow* — the
                regime the lag tolerance is calibrated for.
            faults: Optional :class:`repro.faults.injector.FaultState`
                of the run; enables the fault-aware envelopes (dead
                sockets hold zero power, tripped sockets respect the
                emergency-throttle response).

        Raises:
            InvariantViolation: on the first violated invariant.
        """
        topology = state.topology
        params = state.params
        chip = state.chip_c
        sink = state.sink_c
        ambient = state.ambient_c
        power = state.power_w
        remaining = state.remaining_work_ms

        self._check_finite("chip temperature", chip, step)
        self._check_finite("sink temperature", sink, step)
        self._check_finite("ambient temperature", ambient, step)
        self._check_finite("power", power, step)
        self._check_finite("remaining work", remaining, step)

        self._check_lower(
            "ambient >= inlet", ambient, params.inlet_c - _EPS, step
        )
        lag = LAG_TOLERANCE_C
        degraded = faults is not None and faults.airflow_degraded
        if airflow_scale < 1.0 or degraded:
            # Rises above inlet scale as 1/airflow; the sink tracks
            # them with the same lag either way, so bound it by the
            # design-airflow ambient.  Degraded fan lanes divide their
            # sockets' rises by a further per-socket factor.
            rise = (ambient - params.inlet_c) * airflow_scale
            if degraded:
                rise = rise * faults.airflow_factor
            design_ambient = params.inlet_c + rise
        else:
            design_ambient = ambient
        self._check_pair(
            "sink >= ambient - lag", sink, design_ambient - lag, step
        )
        self._check_pair("chip >= sink - lag", chip, sink - lag, step)

        tol = POWER_TOLERANCE_W
        gated = topology.gated_power_array
        upper = self._power_upper_bound(topology, params)
        low_bad = power < gated - tol
        if faults is not None:
            # Killed sockets legitimately sit below the gated floor —
            # they must instead hold *exactly* zero (checked below).
            low_bad &= faults.alive
        if low_bad.any():
            socket = int(np.argmax(low_bad))
            raise InvariantViolation(
                "power >= gated",
                step,
                socket,
                float(power[socket]),
                f"power {power[socket]:.3f} W below gated floor "
                f"{gated[socket]:.3f} W",
            )
        high_bad = power > upper + tol
        if high_bad.any():
            socket = int(np.argmax(high_bad))
            raise InvariantViolation(
                "power <= tdp + leakage margin",
                step,
                socket,
                float(power[socket]),
                f"power {power[socket]:.3f} W exceeds envelope "
                f"{upper[socket]:.3f} W",
            )

        neg = remaining < -_EPS
        if neg.any():
            socket = int(np.argmax(neg))
            raise InvariantViolation(
                "remaining work >= 0",
                step,
                socket,
                float(remaining[socket]),
                f"remaining work {remaining[socket]:.6f} ms is negative",
            )
        idle_with_work = (~state.busy) & (np.abs(remaining) > _EPS)
        if idle_with_work.any():
            socket = int(np.argmax(idle_with_work))
            raise InvariantViolation(
                "idle sockets carry no work",
                step,
                socket,
                float(remaining[socket]),
                f"idle socket holds {remaining[socket]:.6f} ms of work",
            )

        if faults is not None:
            self._check_fault_envelopes(state, step, faults)

        if energy_j < self._last_energy_j - _EPS:
            raise InvariantViolation(
                "energy monotone",
                step,
                None,
                float(energy_j),
                f"cumulative energy fell from {self._last_energy_j:.6f} "
                f"to {energy_j:.6f} J",
            )
        self._last_energy_j = energy_j
        self.n_audits += 1

    def _check_fault_envelopes(self, state, step: int, faults) -> None:
        """The degraded-operation envelopes (see module docstring)."""
        power = state.power_w
        dead = ~faults.alive
        dead_hot = dead & (np.abs(power) > _EPS)
        if dead_hot.any():
            socket = int(np.argmax(dead_hot))
            raise InvariantViolation(
                "dead sockets draw zero power",
                step,
                socket,
                float(power[socket]),
                f"killed socket draws {power[socket]:.6f} W",
            )

        tripped = faults.tripped
        if not tripped.any():
            return
        response = faults.response
        params = state.params
        elapsed = step - faults.trip_step
        floor_due = tripped & (elapsed >= response.trip_response_steps)
        min_mhz = float(state.ladder.min_mhz)
        floor_bad = floor_due & (state.freq_mhz > min_mhz + _EPS)
        if floor_bad.any():
            socket = int(np.argmax(floor_bad))
            raise InvariantViolation(
                "tripped sockets throttle to the floor",
                step,
                socket,
                float(state.freq_mhz[socket]),
                f"socket tripped {int(elapsed[socket])} steps ago "
                f"still runs at {state.freq_mhz[socket]:.0f} MHz "
                f"(floor {min_mhz:.0f} MHz)",
            )

        dt = params.power_manager_interval_s
        recovery_steps = int(
            np.ceil(
                response.trip_recovery_taus * params.socket_tau_s / dt
            )
        )
        recovered_due = tripped & (elapsed >= recovery_steps)
        limit = faults.trip_c + LAG_TOLERANCE_C
        recover_bad = recovered_due & (state.chip_c > limit)
        if recover_bad.any():
            socket = int(np.argmax(recover_bad))
            raise InvariantViolation(
                "tripped sockets cool below the trip point",
                step,
                socket,
                float(state.chip_c[socket]),
                f"socket tripped {int(elapsed[socket])} steps ago "
                f"still at {state.chip_c[socket]:.2f} degC "
                f"(envelope {limit:.2f} degC)",
            )

    @staticmethod
    def _power_upper_bound(topology, params) -> np.ndarray:
        """Per-socket power envelope: TDP plus a hot-leakage margin."""
        from ..workloads.power_model import leakage_power

        tdp = topology.tdp_array
        margin = leakage_power(
            params.temperature_limit_c + _LEAKAGE_HEADROOM_C, 1.0
        )
        return tdp * (1.0 + margin)

    @staticmethod
    def _check_finite(
        name: str, values: np.ndarray, step: int
    ) -> None:
        bad = ~np.isfinite(values)
        if bad.any():
            socket = int(np.argmax(bad))
            raise InvariantViolation(
                f"finite {name}",
                step,
                socket,
                float(values[socket]),
                f"{name} is {values[socket]}",
            )

    @staticmethod
    def _check_lower(
        name: str, values: np.ndarray, floor: float, step: int
    ) -> None:
        bad = values < floor
        if bad.any():
            socket = int(np.argmax(bad))
            raise InvariantViolation(
                name,
                step,
                socket,
                float(values[socket]),
                f"value {values[socket]:.4f} below bound {floor:.4f}",
            )

    @staticmethod
    def _check_pair(
        name: str,
        values: np.ndarray,
        bounds: np.ndarray,
        step: int,
    ) -> None:
        bad = values < bounds
        if bad.any():
            socket = int(np.argmax(bad))
            raise InvariantViolation(
                name,
                step,
                socket,
                float(values[socket]),
                f"value {values[socket]:.4f} below bound "
                f"{bounds[socket]:.4f}",
            )
