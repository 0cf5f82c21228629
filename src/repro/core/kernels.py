"""Downwind-slowdown scoring for CouplingPredictor in one array pass.

CP charges each candidate socket for the frequency its job would cost
the busy sockets downwind of it.  Scored one candidate at a time
(:func:`~repro.core.prediction.predict_downwind_slowdown`), that is a
Python-level chain scan and two frequency selections per candidate.
:class:`PlacementKernel` scores a whole candidate pool at once and
reproduces the per-candidate results bit for bit:

- ``downwind_of`` is a static property of the uni-directional airflow
  ladder, so the kernel builds a padded ``(n_sockets, W)`` victim table
  and the matching coupling-weight table once per topology.  ``W`` is
  the longest downwind chain.  A pad points at the candidate itself:
  the candidate is idle, so ``view.busy`` masks every pad.
- Every victim's *now* and *later* steady-state frequency comes from
  one :func:`~repro.sim.power_manager.select_frequencies_steady` call
  over the concatenated pairs.  The selection is elementwise per
  column, so one call gives the bits of many small ones.
- Each candidate's weighted losses are summed column by column, left
  to right, with idle victims and pads contributing ``0.0``.  Below 8
  elements that is ``ndarray.sum``'s own order (numpy's pairwise
  summation only splits longer blocks), and adding ``0.0`` leaves a
  partial sum unchanged.  From 8 elements on, ``ndarray.sum`` runs 8
  unrolled accumulators, so on a topology whose table is 8 or more
  wide, rows with 8 or more busy victims are summed as the compacted
  busy segment the scalar path sums, with ``ndarray.sum`` itself.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..sim.power_manager import select_frequencies_steady

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..server.topology import ServerTopology
    from ..sim.view import SchedulerView

#: Shortest array ``ndarray.sum`` splits into unrolled accumulators
#: instead of adding left to right.
PAIRWISE_BLOCK = 8


class PlacementKernel:
    """Padded downwind tables of one topology and the pool pass over them.

    The tables are static for the lifetime of the
    :class:`~repro.server.topology.ServerTopology` instance; the kernel
    keeps no per-step state.
    """

    def __init__(self, topology: "ServerTopology") -> None:
        self.topology = topology
        coupling = topology.coupling
        n = topology.n_sockets
        chains = [coupling.downwind_of(s) for s in range(n)]
        width = max(chain.size for chain in chains)
        victims = np.repeat(np.arange(n)[:, None], width, axis=1)
        weights = np.zeros((n, width))
        matrix = coupling.matrix
        for socket_id, chain in enumerate(chains):
            victims[socket_id, : chain.size] = chain
            weights[socket_id, : chain.size] = matrix[chain, socket_id]
        self._victims = victims
        self._weights = weights
        self._exact_long_rows = width >= PAIRWISE_BLOCK

    def downwind_losses(
        self,
        view: "SchedulerView",
        candidates: np.ndarray,
        job_powers: np.ndarray,
    ) -> np.ndarray:
        """Predicted downwind frequency loss (MHz) per candidate.

        Bit-identical to calling :func:`~repro.core.
        prediction.predict_downwind_slowdown` once per candidate with
        the matching ``job_powers`` entry.  The candidates must be idle,
        as every socket the Placer offers is: the pads rely on it.
        """
        victims = self._victims[candidates]
        busy = view.busy[victims]
        if not busy.any():
            return np.zeros(victims.shape[0])

        topology = self.topology
        heat_delta = job_powers - topology.gated_power_array[candidates]
        ambient_delta = self._weights[candidates] * heat_delta[:, None]
        flat = victims.ravel()
        pairs = np.concatenate((flat, flat))
        ambient = view.ambient_c[flat]
        freq = select_frequencies_steady(
            ambient_c=np.concatenate(
                (ambient, ambient + ambient_delta.ravel())
            ),
            chip_c=view.chip_c[pairs],
            dyn_max_w=view.dyn_max_w[pairs],
            dyn_exp=view.dyn_exp[pairs],
            tdp_w=topology.tdp_array[pairs],
            r_ext=topology.r_ext_array[pairs],
            theta_offset=topology.theta_offset_array[pairs],
            theta_slope=topology.theta_slope_array[pairs],
            ladder=view.ladder,
            params=view.params,
        )
        m = flat.size
        losses = np.maximum(freq[:m] - freq[m:], 0.0)
        weighted = np.where(
            busy.ravel(), losses * view.busy_ema[flat], 0.0
        ).reshape(busy.shape)

        total = weighted[:, 0].copy()
        for column in range(1, weighted.shape[1]):
            total += weighted[:, column]
        if self._exact_long_rows:
            counts = busy.sum(axis=1)
            for row in np.flatnonzero(counts >= PAIRWISE_BLOCK):
                total[row] = weighted[row, busy[row]].sum()
        return total
