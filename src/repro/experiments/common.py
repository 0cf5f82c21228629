"""Shared configuration for simulation-backed experiments."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

from ..config.parameters import SimulationParameters
from ..config.presets import scaled
from ..errors import ConfigurationError
from ..server.topology import ServerTopology, moonshot_sut
from ..sim.results import SimulationResult
from ..workloads.benchmark import BenchmarkSet

#: Environment variable overriding the number of SUT rows.
ENV_ROWS = "REPRO_ROWS"

#: Environment variable overriding the simulated horizon (seconds).
ENV_SIM_TIME = "REPRO_SIM_TIME"

#: Environment variable overriding the sweep worker-process count.
ENV_WORKERS = "REPRO_WORKERS"

#: Environment variable enabling runtime invariant auditing (any
#: non-empty value other than "0").
ENV_AUDIT = "REPRO_AUDIT"


@dataclass
class ExperimentConfig:
    """Scale knobs for the simulation experiments.

    The defaults give a scaled-down SUT (3 of 15 rows, 36 sockets) and a
    16-second scaled horizon — enough to reproduce every qualitative
    result in minutes on a laptop.  Set the ``REPRO_ROWS`` /
    ``REPRO_SIM_TIME`` environment variables (or pass explicit values)
    to approach the paper's full 180-socket, 30-minute configuration.

    Attributes:
        n_rows: SUT rows (the paper uses 15).
        sim_time_s: Simulated horizon, seconds.
        warmup_s: Warm-up excluded from metrics, seconds.
        seed: Workload seed.
        loads: Load levels for sweep experiments.
        benchmark_sets: Benchmark sets for sweep experiments.
        max_workers: Worker processes for sweep execution (1 = serial;
            results are bit-identical either way).
        audit: Run every simulation under an invariant auditor.
        telemetry_dir: Record structured JSONL telemetry and
            provenance manifests into this directory (``None``
            disables; also settable via ``REPRO_TELEMETRY``).
        profile: Attach per-component wall-clock profiles to results
            (also settable via ``REPRO_PROFILE``).
    """

    n_rows: int = 3
    sim_time_s: float = 16.0
    warmup_s: float = 6.0
    seed: int = 0
    loads: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9)
    benchmark_sets: Sequence[BenchmarkSet] = (
        BenchmarkSet.COMPUTATION,
        BenchmarkSet.GENERAL_PURPOSE,
        BenchmarkSet.STORAGE,
    )
    max_workers: int = 1
    audit: bool = False
    telemetry_dir: "str | None" = None
    profile: bool = False

    def __post_init__(self) -> None:
        from ..obs.session import ENV_TELEMETRY, profile_from_env

        env_rows = _env_number(ENV_ROWS, int)
        if env_rows is not None:
            self.n_rows = env_rows
        env_time = _env_number(ENV_SIM_TIME, float)
        if env_time is not None:
            self.sim_time_s = env_time
            self.warmup_s = min(self.warmup_s, self.sim_time_s / 3.0)
        env_workers = _env_number(ENV_WORKERS, int)
        if env_workers is not None:
            self.max_workers = env_workers
        env_audit = os.environ.get(ENV_AUDIT)
        if env_audit is not None and env_audit not in ("", "0"):
            self.audit = True
        env_telemetry = os.environ.get(ENV_TELEMETRY)
        if self.telemetry_dir is None and env_telemetry:
            self.telemetry_dir = env_telemetry
        if profile_from_env():
            self.profile = True
        if self.n_rows < 1:
            raise ConfigurationError("n_rows must be >= 1")
        if self.max_workers < 1:
            raise ConfigurationError("max_workers must be >= 1")
        if not 0 < self.warmup_s < self.sim_time_s:
            raise ConfigurationError(
                "warmup must be positive and below the horizon"
            )

    def topology(self, **kwargs) -> ServerTopology:
        """The (possibly scaled-down) Moonshot SUT."""
        return moonshot_sut(n_rows=self.n_rows, **kwargs)

    def parameters(self) -> SimulationParameters:
        """Scaled simulation parameters for this configuration."""
        return scaled(
            sim_time_s=self.sim_time_s,
            warmup_s=self.warmup_s,
            seed=self.seed,
        )

    def sweep(
        self,
        scheduler_names: Sequence[str],
        benchmark_sets: "Sequence[BenchmarkSet] | None" = None,
        loads: "Sequence[float] | None" = None,
    ) -> Dict[Tuple[str, BenchmarkSet, float], SimulationResult]:
        """Run a sweep under this configuration's scale knobs.

        Points fan out over ``max_workers`` processes, run under the
        invariant auditor when ``audit`` is set, and memoise into the
        process-wide sweep cache — figures sharing grid points (e.g.
        Figures 14 and 15) recompute nothing.
        """
        from ..sim.runner import run_sweep

        return run_sweep(
            self.topology(),
            self.parameters(),
            scheduler_names,
            self.benchmark_sets if benchmark_sets is None else benchmark_sets,
            self.loads if loads is None else loads,
            max_workers=self.max_workers,
            audit=self.audit,
            use_cache=True,
            telemetry=self.telemetry_dir,
            profile=self.profile,
        )


def _env_number(name: str, kind: type):
    """Environment knob ``name`` parsed as ``kind``; ``None`` if unset.

    Raises:
        ConfigurationError: naming the variable, when the value does not
            parse or is not finite.
    """
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        value = kind(raw)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    label = "an integer" if kind is int else "a finite number"
    raise ConfigurationError(f"{name} must be {label}, got {raw!r}")


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Render an ASCII table for experiment ``main()`` output."""
    columns = [
        [str(h)] + [str(row[i]) for row in rows]
        for i, h in enumerate(headers)
    ]
    widths = [max(len(cell) for cell in col) for col in columns]
    lines = []
    header_line = "  ".join(
        h.ljust(w) for h, w in zip([str(h) for h in headers], widths)
    )
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            "  ".join(str(c).ljust(w) for c, w in zip(row, widths))
        )
    return "\n".join(lines)
