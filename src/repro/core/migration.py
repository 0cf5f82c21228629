"""Thermal-aware workload migration (the paper's Section VI extension).

The paper notes its scheduling strategy "can just as easily be used to
choose sockets for workload migration in suitable systems, or even
identify when migration would be profitable" — migration matters when
job durations are long relative to thermal time constants.  This module
provides that extension: a :class:`MigrationPolicy` that the engine
consults periodically, moving long-running jobs from throttled sockets
to sockets where they are predicted to run faster, charging a
configurable migration cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, TYPE_CHECKING, Tuple

import numpy as np

from ..errors import SchedulingError
from .kernels import PlacementKernel
from .prediction import predict_job_placement

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.view import SchedulerView


@dataclass
class MigrationPolicy:
    """Periodically migrate throttled long jobs to faster sockets.

    Migration on a thermally coupled server is easy to get wrong: every
    move spreads heat over one more warm socket, so naive
    chase-the-boost migration loses to doing nothing.  The policy is
    therefore deliberately conservative — it only rescues *deeply
    throttled* long jobs (below the sustained frequency, i.e. pinned by
    the 95 degC limit), and scores destinations the way CP scores
    placements: predicted own frequency minus the predicted slowdown
    inflicted on the destination's downwind sockets.

    Attributes:
        interval_s: How often the engine consults the policy, seconds.
        min_remaining_ms: Only jobs with at least this much work left
            are candidates (migration must amortise its cost).
        min_gain_mhz: Required net predicted gain (own improvement
            minus downwind damage); also absorbs prediction noise as
            hysteresis.
        cost_ms: Work-equivalent penalty added to a migrated job
            (state transfer, cache refill).
        max_moves_per_round: Cap on simultaneous migrations.
        only_below_sustained: Restrict candidates to jobs throttled
            below the sustained frequency (the regime where the source
            socket is genuinely pathological).
    """

    interval_s: float = 0.1
    min_remaining_ms: float = 50.0
    min_gain_mhz: float = 250.0
    cost_ms: float = 2.0
    max_moves_per_round: int = 4
    only_below_sustained: bool = True

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise SchedulingError("migration interval must be positive")
        if self.min_remaining_ms < 0 or self.cost_ms < 0:
            raise SchedulingError(
                "migration thresholds must be non-negative"
            )
        if self.min_gain_mhz <= 0:
            raise SchedulingError("migration gain must be positive")
        if self.max_moves_per_round < 1:
            raise SchedulingError("max moves must be >= 1")
        self._kernel = None

    def propose(self, view: "SchedulerView") -> List[Tuple[int, int]]:
        """Propose (source, destination) socket moves.

        Destinations are idle sockets; each destination is used at most
        once per round, and a job is only moved when the predicted
        frequency gain clears ``min_gain_mhz``.  The idle destinations
        are scored in one pass, as CP scores a placement pool:
        :func:`~repro.core.prediction.predict_job_placement` and the
        topology's :class:`~repro.core.kernels.PlacementKernel`.
        """
        idle = view.idle_socket_ids()
        if idle.size == 0:
            return []
        eligible = view.busy & (
            view.remaining_work_ms >= self.min_remaining_ms
        )
        if self.only_below_sustained:
            eligible &= view.freq_mhz < float(
                view.ladder.sustained_mhz
            )
        candidates = np.nonzero(eligible)[0]
        if candidates.size == 0:
            return []

        # Most-throttled jobs first: they have the most to gain.
        candidates = candidates[np.argsort(view.freq_mhz[candidates])]
        moves: List[Tuple[int, int]] = []
        taken = np.zeros(view.n_sockets, dtype=bool)
        for source in candidates:
            if len(moves) >= self.max_moves_per_round:
                break
            job = view.running_jobs[source]
            if job is None:
                continue
            available = idle[~taken[idle]]
            if available.size == 0:
                break
            freq, powers = predict_job_placement(view, available, job)
            kernel = self._kernel
            if kernel is None or kernel.topology is not view.topology:
                kernel = self._kernel = PlacementKernel(view.topology)
            scores = freq - kernel.downwind_losses(view, available, powers)
            best = int(np.argmax(scores))
            gain = float(scores[best]) - float(view.freq_mhz[source])
            if gain >= self.min_gain_mhz:
                destination = int(available[best])
                moves.append((int(source), destination))
                taken[destination] = True
        return moves
