"""Telemetry configuration, per-run sessions and the pipeline recorder.

Three layers:

- :class:`TelemetryConfig` is the *declaration* — a frozen, picklable
  value (directory, profiling flag, buffer depth) that travels across
  process boundaries into sweep workers and is parsed from the
  ``REPRO_TELEMETRY`` / ``REPRO_PROFILE`` environment variables.
- :class:`TelemetrySession` is one run's *open event stream*: a
  :class:`~repro.obs.writer.JsonlWriter` plus the schema-checked
  ``emit`` used by engine components via ``ctx.telemetry``.
- :class:`TelemetryRecorder` is the :class:`~repro.sim.pipeline.
  StepComponent` that owns session lifecycle: each ``on_run_start``
  opens a fresh ``<base>-r<k>.jsonl`` (the ``-r<k>`` suffix counts runs
  on the reused engine, so back-to-back runs can never interleave or
  concatenate their logs) and binds it to the context; ``on_run_end``
  emits the run summary and closes the stream.

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
from .events import make_event
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


class TelemetrySession:
    """One run's (or one sweep's) open, schema-checked event stream."""

    def __init__(
        self,
        path,
        buffer_lines: int = DEFAULT_BUFFER_LINES,
        append: bool = False,
    ) -> None:
        self.path = Path(path)
        # Sweep streams survive resume: append mode re-opens after
        # whatever an interrupted attempt managed to flush.
        self._writer = JsonlWriter(
            self.path, buffer_lines, append=append
        )

    def emit(self, type_: str, **fields) -> None:
        """Validate and enqueue one event."""
        self._writer.emit(make_event(type_, **fields))

    @property
    def closed(self) -> bool:
        return self._writer._closed

    def close(self) -> None:
        """Flush and close the underlying writer (idempotent)."""
        self._writer.close()

    def __enter__(self) -> "TelemetrySession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class TelemetryRecorder:
    """Pipeline component owning per-run telemetry session lifecycle.

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
        self.last_path: Optional[Path] = None
        self._session: Optional[TelemetrySession] = None

    # -- StepComponent protocol -----------------------------------------

    def on_run_start(self, ctx) -> None:
        self.reset()
        name = f"{self.base_name}-r{self.run_index}"
        self.run_index += 1
        path = Path(self.config.directory) / f"{name}.jsonl"
        self.last_path = path
        self._session = TelemetrySession(
            path, buffer_lines=self.config.buffer_lines
        )
        ctx.telemetry = self._session
        self._session.emit(
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
        session = self._session
        if session is None:  # pragma: no cover - engine misuse
            return
        session.emit(
            "run_end",
            run=f"{self.base_name}-r{self.run_index - 1}",
            n_completed=len(ctx.result.completed_jobs),
            energy_j=float(ctx.result.energy_j),
            max_queue_length=int(ctx.result.max_queue_length),
        )
        ctx.telemetry = None
        self._session = None
        session.close()

    # -- engine-reuse contract ------------------------------------------

    def reset(self) -> None:
        """Close any straggling session from an aborted previous run."""
        if self._session is not None:
            self._session.close()
            self._session = None
