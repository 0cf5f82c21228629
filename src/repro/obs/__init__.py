"""Run-wide observability: telemetry events, profiling, manifests.

Three orthogonal capabilities, all strictly observational (a run with
any of them enabled is bit-identical to a run with none — pinned by
the fingerprint oracle tests):

- **Structured telemetry** (:mod:`~repro.obs.events`,
  :mod:`~repro.obs.writer`, :mod:`~repro.obs.session`): an
  :class:`~repro.obs.events.EventBus` validates each event of every
  layer (engine, sweep harness, room solver, fleet) once and fans it
  out to subscribers, such as a buffered JSONL writer that writes on
  the emitting thread and leaves parseable logs even when the process
  is SIGKILLed.
- **Per-step profiling** (:mod:`~repro.obs.profiler`): per-component
  wall-clock accounting of the step pipeline, measured at 2.93%
  overhead on the 180-socket SUT (the median of 30 per-round ratios
  on a 2-core VM, ``benchmarks/results/profiler_overhead.json``).
- **Run manifests** (:mod:`~repro.obs.manifest`): per-run provenance
  records (parameters, topology recipe, fault schedule, versions,
  result fingerprint) naming the recipe behind each artifact; beside a
  sweep checkpoint, the manifest also guards its package version.

Enable from the CLI with ``--telemetry DIR`` / ``--profile``, or from
the environment with ``REPRO_TELEMETRY`` / ``REPRO_PROFILE`` (read only
in :mod:`repro.experiments.common`).  Check
artifacts with ``python -m repro.obs.check DIR``; summarise with
``python -m repro.metrics.obs_report DIR``.
"""

from .events import EVENT_TYPES, SCHEMA_VERSION, EventBus, make_event, validate_event
from .manifest import (
    MANIFEST_SUFFIX,
    MANIFEST_VERSION,
    RunManifest,
    manifest_for_point,
)
from .profiler import ComponentProfile, RunProfile, StepProfiler
from .session import TelemetryRecorder
from .writer import JsonlWriter, encode_event, iter_events, read_events

__all__ = [
    "SCHEMA_VERSION",
    "EVENT_TYPES",
    "EventBus",
    "make_event",
    "validate_event",
    "JsonlWriter",
    "encode_event",
    "iter_events",
    "read_events",
    "ComponentProfile",
    "RunProfile",
    "StepProfiler",
    "TelemetryRecorder",
    "MANIFEST_VERSION",
    "MANIFEST_SUFFIX",
    "RunManifest",
    "manifest_for_point",
]
