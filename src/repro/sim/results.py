"""Simulation results and derived per-run statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..config.parameters import SimulationParameters
from ..errors import SimulationError
from ..server.topology import ServerTopology
from ..workloads.job import Job


@dataclass
class SimulationResult:
    """Everything measured during one simulation run.

    All array metrics cover the measurement window only (after warm-up).

    Attributes:
        scheduler_name: Policy that produced this run.
        params: Parameters the run used.
        topology: Topology the run used.
        completed_jobs: Jobs that finished inside the measurement
            window.
        n_jobs_submitted: Jobs offered to the system over the full run.
        energy_j: Total server energy over the window, joules.
        work_done: Work units retired per socket over the window (one
            unit = one millisecond at the top frequency).
        busy_time_s: Seconds each socket spent busy.
        freq_time_product: Per-socket integral of relative frequency
            over busy time (divide by ``busy_time_s`` for the average
            relative frequency).
        boost_time_s: Seconds each socket spent in a boost state.
        max_chip_c: Hottest chip temperature ever observed per socket.
        measured_span_s: Length of the measurement window, seconds.
        max_queue_length: Largest scheduler queue depth observed.
        n_migrations: Job migrations performed (0 without a migration
            policy).
        cooling_energy_j: Fan energy over the window, joules (0 without
            a fan controller).
        mean_airflow_scale: Time-averaged relative airflow (1.0 means
            the fixed design airflow).
        fault_summary: Digest of the run's fault activity (schedule
            fingerprint, trips, evictions), or ``None`` for fault-free
            runs.
        profile: Per-component wall-clock accounting
            (:class:`repro.obs.profiler.RunProfile`), or ``None`` when
            the run was not profiled.  Excluded from result
            fingerprints — wall-clock is not part of the trajectory.
    """

    scheduler_name: str
    params: SimulationParameters
    topology: ServerTopology
    completed_jobs: List[Job] = field(default_factory=list)
    n_jobs_submitted: int = 0
    energy_j: float = 0.0
    work_done: Optional[np.ndarray] = None
    busy_time_s: Optional[np.ndarray] = None
    freq_time_product: Optional[np.ndarray] = None
    boost_time_s: Optional[np.ndarray] = None
    max_chip_c: Optional[np.ndarray] = None
    measured_span_s: float = 0.0
    max_queue_length: int = 0
    n_migrations: int = 0
    cooling_energy_j: float = 0.0
    mean_airflow_scale: float = 1.0
    trace: Optional[object] = None
    fault_summary: Optional[dict] = None
    profile: Optional[object] = None

    def __post_init__(self) -> None:
        n = self.topology.n_sockets
        if self.work_done is None:
            self.work_done = np.zeros(n)
        if self.busy_time_s is None:
            self.busy_time_s = np.zeros(n)
        if self.freq_time_product is None:
            self.freq_time_product = np.zeros(n)
        if self.boost_time_s is None:
            self.boost_time_s = np.zeros(n)
        if self.max_chip_c is None:
            self.max_chip_c = np.full(n, -np.inf)

    @property
    def n_jobs_completed(self) -> int:
        """Number of jobs completed inside the window."""
        return len(self.completed_jobs)

    @property
    def mean_runtime_expansion(self) -> float:
        """Average runtime expansion across completed jobs.

        The paper's primary metric (Figure 11, lower is better): service
        time divided by the job's nominal duration at the top frequency.

        Raises:
            SimulationError: if no job completed in the window.
        """
        if not self.completed_jobs:
            raise SimulationError("no jobs completed in the window")
        return float(
            np.mean([job.runtime_expansion for job in self.completed_jobs])
        )

    @property
    def performance(self) -> float:
        """Throughput-style performance score (higher is better).

        Defined as the inverse of the mean runtime expansion, so a run
        whose jobs expand 10% less scores ~10% higher — the quantity
        Figure 14 reports relative to CF.
        """
        return 1.0 / self.mean_runtime_expansion

    @property
    def mean_response_time_s(self) -> float:
        """Mean arrival-to-completion time, seconds."""
        if not self.completed_jobs:
            raise SimulationError("no jobs completed in the window")
        return float(
            np.mean([job.response_time_s for job in self.completed_jobs])
        )

    @property
    def average_power_w(self) -> float:
        """Mean server power over the window, W."""
        if self.measured_span_s <= 0:
            raise SimulationError("measurement window is empty")
        return self.energy_j / self.measured_span_s

    @property
    def utilization(self) -> float:
        """Fraction of socket-time spent busy over the window."""
        if self.measured_span_s <= 0:
            raise SimulationError("measurement window is empty")
        total = self.topology.n_sockets * self.measured_span_s
        return float(self.busy_time_s.sum()) / total

    @property
    def total_energy_j(self) -> float:
        """Compute plus cooling energy over the window, joules."""
        return self.energy_j + self.cooling_energy_j

    @property
    def ed2_j_s2(self) -> float:
        """Energy-delay-squared product (J * expansion^2).

        The delay term is the mean runtime expansion, making the metric
        workload-size independent; Figure 15 reports it relative to CF.
        """
        return self.energy_j * self.mean_runtime_expansion**2

    def average_relative_frequency(
        self, mask: Optional[np.ndarray] = None
    ) -> float:
        """Busy-time-weighted average frequency relative to the maximum.

        Args:
            mask: Optional boolean socket mask restricting the average
                (e.g. front half, even zones).

        Returns:
            Average of (frequency / max frequency) over busy time within
            the masked sockets, or ``nan`` if they were never busy.
        """
        if mask is None:
            mask = np.ones(self.topology.n_sockets, dtype=bool)
        busy = float(self.busy_time_s[mask].sum())
        if busy <= 0:
            return float("nan")
        return float(self.freq_time_product[mask].sum()) / busy

    def work_fraction(self, mask: np.ndarray) -> float:
        """Fraction of total retired work done by the masked sockets."""
        total = float(self.work_done.sum())
        if total <= 0:
            return 0.0
        return float(self.work_done[mask].sum()) / total
