"""The pipeline's telemetry recorder.

:class:`TelemetryRecorder` is the :class:`~repro.sim.pipeline.
StepComponent` that owns one run's event log in a telemetry directory:
each ``on_run_start`` opens a fresh ``<base>-r<k>.jsonl`` (the
``-r<k>`` suffix counts runs on the reused engine, so back-to-back
runs can never interleave or concatenate their logs) on a new bus
bound to ``ctx.telemetry``; ``on_run_end`` emits the run summary and
closes the log.

Determinism: events carry only simulation-clock fields, and every
emission site in the engine is gated on ``ctx.telemetry is not None``
— a telemetry-off run is bit-identical to a telemetry-on run, and two
telemetry-on runs of one configuration write identical bytes.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from .events import EventBus
from .writer import JsonlWriter


class TelemetryRecorder:
    """Pipeline component owning one event log per run.

    Appended at the end of the standard pipeline (it is a pure
    observer; other components emit through ``ctx.telemetry`` during
    their own phases).  The recorder honours engine reuse the same way
    the tracer does: every run start opens a *fresh* log file with an
    incremented ``-r<k>`` suffix and closes it at run end, so two
    back-to-back runs on one engine produce two independent,
    non-interleaved logs.
    """

    def __init__(self, directory, base_name: str = "run") -> None:
        self.directory = directory
        self.base_name = base_name
        self.run_index = 0
        self._writer: Optional[JsonlWriter] = None

    # -- StepComponent protocol -----------------------------------------

    def on_run_start(self, ctx) -> None:
        self.reset()
        name = f"{self.base_name}-r{self.run_index}"
        self.run_index += 1
        self._writer = JsonlWriter(Path(self.directory) / f"{name}.jsonl")
        ctx.telemetry = EventBus()
        ctx.telemetry.subscribe(self._writer.emit)
        ctx.telemetry.emit(
            "run_start",
            run=name,
            scheduler=getattr(ctx.scheduler, "name", "unknown"),
            seed=int(ctx.params.seed),
            n_sockets=int(ctx.topology.n_sockets),
            n_steps=int(ctx.n_steps),
        )

    def on_step(self, ctx) -> None:
        """Nothing per step — emission happens at the source phases."""

    def on_run_end(self, ctx) -> None:
        if self._writer is None:  # pragma: no cover - engine misuse
            return
        ctx.telemetry.emit(
            "run_end",
            run=f"{self.base_name}-r{self.run_index - 1}",
            n_completed=len(ctx.result.completed_jobs),
            energy_j=float(ctx.result.energy_j),
            max_queue_length=int(ctx.result.max_queue_length),
        )
        ctx.telemetry = None
        self.reset()

    # -- engine-reuse contract ------------------------------------------

    def reset(self) -> None:
        """Close any straggling log from an aborted previous run."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None
