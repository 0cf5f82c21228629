"""Job arrival process parameterized by system load.

The paper varies the job inter-arrival duration to impose different
loads.  We use a Poisson process: at load ``L`` on a server with ``N``
sockets and set mean job duration ``E[d]`` (measured at the top
frequency), arrivals occur at rate

.. math::

    \\lambda = L \\cdot N \\cdot perf(f_{sustained}) / E[d]

so that ``L = 1`` exactly saturates the server running at the highest
*sustained* (non-boost) frequency — the paper's fully-loaded operating
point, where a socket is only expected to hold 1500 MHz.  Loads are
therefore comparable across benchmark sets with different frequency
sensitivities, and the 80-100% range sits at the saturation edge where
scheduling quality matters most, rather than beyond it.  Each arrival
samples an application uniformly from the chosen set and a duration
from that application's distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..errors import WorkloadError
from .benchmark import BenchmarkSet, profile_for
from .job import Job
from .pcmark import Application, apps_in_set


def check_load(load: float) -> None:
    """Reject an offered load outside (0, 1]; NaN is outside too.

    Raises:
        WorkloadError: for an out-of-range load.
    """
    if not 0.0 < load <= 1.0:
        raise WorkloadError(f"load must lie in (0, 1], got {load}")


def load_to_arrival_rate(
    load: float, n_sockets: int, mean_duration_ms: float
) -> float:
    """Arrival rate (jobs/second) that offers ``load`` of server capacity.

    Raises:
        WorkloadError: for out-of-range inputs.
    """
    check_load(load)
    if n_sockets <= 0:
        raise WorkloadError(f"n_sockets must be positive, got {n_sockets}")
    if mean_duration_ms <= 0:
        raise WorkloadError(
            f"mean duration must be positive, got {mean_duration_ms}"
        )
    return load * n_sockets / (mean_duration_ms / 1000.0)


@dataclass
class ArrivalProcess:
    """Poisson arrival stream over a benchmark set.

    Attributes:
        benchmark_set: Set to draw applications from.
        load: Offered load in (0, 1].
        n_sockets: Number of sockets the load is normalised to.
        seed: RNG seed; identical seeds give identical streams, which is
            how experiments hold the workload fixed across schedulers.
        apps: Application pool (defaults to the set's applications).
        duration_scale: Multiplier applied to every job duration (and to
            the mean duration used for the rate, so the offered load is
            unchanged).  Scaled-down simulations use this to keep the
            job count tractable while preserving utilisation patterns.
    """

    benchmark_set: BenchmarkSet
    load: float
    n_sockets: int
    seed: int = 0
    apps: Sequence[Application] = ()
    duration_scale: float = 1.0

    def __post_init__(self) -> None:
        check_load(self.load)
        if self.n_sockets <= 0:
            raise WorkloadError("n_sockets must be positive")
        if not self.apps:
            self.apps = apps_in_set(self.benchmark_set)
        if not self.apps:
            raise WorkloadError(
                f"no applications registered for {self.benchmark_set}"
            )
        if self.duration_scale <= 0:
            raise WorkloadError("duration_scale must be positive")

    @property
    def mean_duration_ms(self) -> float:
        """Mean (scaled) job duration across the application pool, ms."""
        return self.duration_scale * float(
            np.mean([app.mean_duration_ms for app in self.apps])
        )

    @property
    def sustained_perf_factor(self) -> float:
        """Relative performance at the sustained frequency for this set.

        With the X2150 ladder, ``1 - perf_drop / 2`` (1500 MHz sits
        halfway down the 1900-1100 MHz range).
        """
        from ..server.processors import X2150_LADDER
        from .perf_model import relative_performance

        drop = profile_for(self.benchmark_set).perf_drop_at_min
        return float(
            relative_performance(
                X2150_LADDER.sustained_mhz, drop, X2150_LADDER
            )
        )

    @property
    def rate_per_s(self) -> float:
        """Poisson arrival rate, jobs per second."""
        return self.sustained_perf_factor * load_to_arrival_rate(
            self.load, self.n_sockets, self.mean_duration_ms
        )

    def generate(self, until_s: float) -> List[Job]:
        """Generate every arrival in ``[0, until_s)``.

        Args:
            until_s: Horizon, seconds.

        Returns:
            Jobs sorted by arrival time with durations pre-sampled.
        """
        if until_s <= 0:
            raise WorkloadError(f"horizon must be positive, got {until_s}")
        rng = np.random.default_rng(self.seed)
        rate = self.rate_per_s
        expected = int(rate * until_s * 1.2) + 16
        gaps = rng.exponential(1.0 / rate, size=expected)
        times = np.cumsum(gaps)
        while times.size and times[-1] < until_s:
            more = rng.exponential(1.0 / rate, size=expected)
            times = np.concatenate([times, times[-1] + np.cumsum(more)])
        times = times[times < until_s]

        app_indices = rng.integers(0, len(self.apps), size=times.size)
        jobs: List[Job] = []
        for job_id, (arrival, app_index) in enumerate(
            zip(times, app_indices)
        ):
            app = self.apps[app_index]
            duration = self.duration_scale * float(
                app.sample_durations_ms(1, rng)[0]
            )
            jobs.append(
                Job(
                    job_id=job_id,
                    app=app,
                    arrival_s=float(arrival),
                    work_ms=duration,
                )
            )
        return jobs
