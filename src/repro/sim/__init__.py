"""Discrete-event simulation engine for dense-server scheduling studies.

The engine advances in fixed steps equal to the power-manager interval
(1 ms in Table III).  Each step runs an ordered pipeline of
:class:`~repro.sim.pipeline.StepComponent` phases (see
:mod:`repro.sim.pipeline` and ``docs/architecture.md``):

1. ``ArrivalAdmitter`` — admit newly arrived jobs to the central queue,
2. ``Placer`` — let the scheduling policy place queued jobs onto idle
   sockets (policies see a read-only
   :class:`~repro.sim.view.SchedulerView`),
3. ``Migrator`` (optional) — periodic thermal-aware job migration,
4. ``PowerManager`` — per socket, the highest DVFS state whose
   predicted chip temperature stays under the 95 degC limit (boost
   states additionally require headroom under the boost governor
   threshold; see :mod:`repro.sim.power_manager`),
5. ``WorkRetirer`` — retire work on busy sockets at the
   frequency-dependent rate and record completions (with sub-step
   interpolation),
6. ``FanControl`` (optional) — airflow modulation with load,
7. ``ThermalUpdater`` — the two-node thermal model and the
   inter-socket coupling chain,
8. ``MetricsAccumulator`` — metric accumulation once past the warm-up
   window,
9. ``Tracer`` / ``Auditor`` (optional) — time-series sampling and
   physical-invariant auditing.

A :class:`~repro.faults.injector.FaultInjector` (optional) slots
between the admitter and the placer, replaying a deterministic
:class:`~repro.faults.schedule.FaultSchedule` (fan degradation, sensor
faults, stuck DVFS, socket kills, power caps) while the power manager
and auditor enforce graceful degradation; see
:mod:`repro.faults`.

All per-socket quantities are numpy arrays — batched over the DVFS
ladder inside the power manager — so a step costs a fixed handful of
vector operations regardless of socket count.
"""

from .state import SimulationState
from .view import SchedulerView
from .power_manager import select_frequencies
from .engine import Engine, Simulation
from .pipeline import EngineContext, StepComponent, build_pipeline
from .invariants import InvariantAuditor, InvariantViolation
from .results import SimulationResult
from .runner import run_once, run_sweep
from .parallel import SweepCache, clear_shared_cache, execute_sweep
from .checkpoint import SweepCheckpoint
from .fingerprint import result_fingerprint

__all__ = [
    "SimulationState",
    "SchedulerView",
    "select_frequencies",
    "Engine",
    "EngineContext",
    "StepComponent",
    "build_pipeline",
    "Simulation",
    "SimulationResult",
    "InvariantAuditor",
    "InvariantViolation",
    "SweepCache",
    "SweepCheckpoint",
    "clear_shared_cache",
    "execute_sweep",
    "result_fingerprint",
    "run_once",
    "run_sweep",
]
