"""CouplingPredictor (CP) — the paper's proposed policy.

CP extends Predictive with an explicit account of inter-socket thermal
coupling.  For every candidate socket it predicts (a) the frequency the
job would achieve there and (b) the total frequency the sockets downwind
of the candidate would *lose* because of the added heat, and places the
job where the net benefit is largest.  Given a socket that runs the job
at 1700 MHz but costs two downstream sockets 300 MHz combined, and one
that runs it at 1600 MHz costing nothing, CP picks the second.

Mechanics (Section IV-C): at each decision the scheduler picks a row of
cartridges with idle sockets at random and evaluates only the candidates
within that row — keeping the scheduler cheap — using Equation 1 with
one leakage-compensation pass and a table lookup into the offline
coupling map for downwind entry temperatures.

The scoring itself runs through the vectorised
:class:`~repro.core.kernels.PlacementKernel` (batched candidate
evaluation plus a per-step downwind frequency cache).  Every decision
is pinned by the committed oracle ``tests/goldens/kernel_oracle.json``;
the per-candidate scalar loop it replaced lives on only as the
reference in ``tests/test_kernel_identity.py`` and the kernel bench.
"""

from __future__ import annotations

import numpy as np

from .base import Scheduler, register_scheduler
from .kernels import PlacementKernel
from .prediction import predict_job_frequency, predict_job_powers
from .predictive import SINK_TIEBREAK_WEIGHT


@register_scheduler
class CouplingPredictor(Scheduler):
    """Net-benefit placement: own speed minus downwind slowdown."""

    name = "CP"

    def __init__(
        self,
        row_restricted: bool = True,
        coupling_aware: bool = True,
    ) -> None:
        """Create a CP scheduler.

        Args:
            row_restricted: Evaluate candidates only within one randomly
                chosen row per decision (the paper's cost-saving
                mechanic).  Disabled, CP searches every idle socket.
            coupling_aware: Include the downwind-slowdown term.  With it
                disabled CP degenerates to row-restricted Predictive
                (used by the ablation benches).
        """
        super().__init__()
        self.row_restricted = row_restricted
        self.coupling_aware = coupling_aware
        self._kernel = None

    def reset(self, view, rng) -> None:
        super().reset(view, rng)
        # Engine reuse re-enters with fresh state under the same
        # timestamps; drop any cached per-step frequencies.
        if self._kernel is not None:
            self._kernel.invalidate()

    def select_socket(self, job, idle_ids, view) -> int:
        self._require_candidates(idle_ids)
        candidates = self._candidate_pool(idle_ids, view)
        freq = predict_job_frequency(view, candidates, job)
        topology = view.topology
        kernel = self._kernel
        if kernel is None or kernel.topology is not topology:
            kernel = self._kernel = PlacementKernel(topology)
        powers = predict_job_powers(view, candidates, job, freq)
        if self.coupling_aware:
            slowdown = kernel.downwind_losses(view, candidates, powers)
        else:
            slowdown = 0.0
        sink_ss = (
            view.ambient_c[candidates]
            + powers * topology.r_ext_array[candidates]
        )
        scores = (
            freq
            - slowdown
            - SINK_TIEBREAK_WEIGHT * (sink_ss + view.sink_c[candidates])
        )
        return int(candidates[int(np.argmax(scores))])

    def _candidate_pool(self, idle_ids, view) -> np.ndarray:
        """Idle sockets of one random row, or all idle sockets."""
        if not self.row_restricted:
            return idle_ids
        rows = view.topology.row_array[idle_ids]
        unique_rows = np.unique(rows)
        chosen = unique_rows[self.rng.integers(0, unique_rows.size)]
        return idle_ids[rows == chosen]
