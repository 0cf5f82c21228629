"""Telemetry configuration and the pipeline recorder.

Two layers:

- :class:`TelemetryConfig` is the *declaration* — a frozen, picklable
  value (directory, profiling flag, buffer depth) that travels across
  process boundaries into sweep workers and is parsed from the
  ``REPRO_TELEMETRY`` / ``REPRO_PROFILE`` environment variables.
- :class:`TelemetryRecorder` is the :class:`~repro.sim.pipeline.
  StepComponent` that owns one run's event log: each ``on_run_start``
  opens a fresh ``<base>-r<k>.jsonl`` (the ``-r<k>`` suffix counts runs
  on the reused engine, so back-to-back runs can never interleave or
  concatenate their logs) on a new bus bound to ``ctx.telemetry``;
  ``on_run_end`` emits the run summary and closes the log.

Determinism: events carry only simulation-clock fields, and every
emission site in the engine is gated on ``ctx.telemetry is not None``
— a telemetry-off run is bit-identical to a telemetry-on run, and two
telemetry-on runs of one configuration write identical bytes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from ..errors import ObservabilityError
from .events import EventBus
from .writer import DEFAULT_BUFFER_LINES, JsonlWriter

#: Environment variable naming the telemetry output directory.
ENV_TELEMETRY = "REPRO_TELEMETRY"

#: Environment variable enabling per-component profiling (any
#: non-empty value other than "0").
ENV_PROFILE = "REPRO_PROFILE"


@dataclass(frozen=True)
class TelemetryConfig:
    """Where and how to record telemetry for a run or sweep.

    Picklable by construction — sweep workers receive it by value.

    Attributes:
        directory: Directory receiving ``*.jsonl`` event logs and
            ``*.manifest.json`` provenance files (created on demand).
        profile: Also run the per-component :class:`~repro.obs.
            profiler.StepProfiler` on every simulation.
        buffer_lines: Event lines buffered between flushes to the OS
            (the truncation-safety granularity).
    """

    directory: str
    profile: bool = False
    buffer_lines: int = DEFAULT_BUFFER_LINES

    def __post_init__(self) -> None:
        if not str(self.directory):
            raise ObservabilityError(
                "telemetry directory must be non-empty"
            )
        if self.buffer_lines < 1:
            raise ObservabilityError("buffer_lines must be >= 1")

    @classmethod
    def coerce(cls, value, profile: bool = False):
        """Normalise a config, directory path, or ``None``.

        Accepts an existing :class:`TelemetryConfig` (returned as-is,
        with ``profile`` OR-ed in), a directory path, or ``None``.
        """
        if value is None:
            return None
        if isinstance(value, cls):
            if profile and not value.profile:
                return cls(
                    directory=value.directory,
                    profile=True,
                    buffer_lines=value.buffer_lines,
                )
            return value
        return cls(directory=os.fspath(value), profile=profile)

    @classmethod
    def from_env(cls) -> Optional["TelemetryConfig"]:
        """The configuration declared by the environment, if any.

        ``REPRO_TELEMETRY`` names the output directory (unset or empty
        disables telemetry); ``REPRO_PROFILE`` enables profiling.
        """
        directory = os.environ.get(ENV_TELEMETRY)
        if not directory:
            return None
        return cls(directory=directory, profile=profile_from_env())


def profile_from_env() -> bool:
    """Whether ``REPRO_PROFILE`` asks for per-component profiling."""
    raw = os.environ.get(ENV_PROFILE)
    return raw is not None and raw not in ("", "0")


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

    def __init__(
        self, config: TelemetryConfig, base_name: str = "run"
    ) -> None:
        self.config = config
        self.base_name = base_name
        self.run_index = 0
        self._writer: Optional[JsonlWriter] = None

    # -- StepComponent protocol -----------------------------------------

    def on_run_start(self, ctx) -> None:
        self.reset()
        name = f"{self.base_name}-r{self.run_index}"
        self.run_index += 1
        self._writer = JsonlWriter(
            Path(self.config.directory) / f"{name}.jsonl",
            self.config.buffer_lines,
        )
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
