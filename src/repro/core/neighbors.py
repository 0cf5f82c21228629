"""Coolest Neighbors (CN) policy.

CN (Coskun et al.) is a chip-level CF variant that scores each location
by its own temperature *and* its physical neighbours' temperatures,
capturing lateral heat transfer on a die.  Applied to a dense server,
neighbours are the physically adjacent sockets: the previous/next chain
position in the same lane, the other lane at the same position, and the
same position in the rows above and below.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .base import Scheduler, register_scheduler

#: Most neighbours a socket can have: one on each side along the chain,
#: across the lanes and across the rows.
MAX_NEIGHBORS = 6


def _build_neighbor_lists(topology) -> List[np.ndarray]:
    """Adjacent-socket indices for every socket."""
    index = {}
    for site in topology.sites:
        index[(site.row, site.lane, site.chain_pos)] = site.socket_id
    neighbors: List[np.ndarray] = []
    for site in topology.sites:
        candidates = [
            (site.row, site.lane, site.chain_pos - 1),
            (site.row, site.lane, site.chain_pos + 1),
            (site.row, site.lane - 1, site.chain_pos),
            (site.row, site.lane + 1, site.chain_pos),
            (site.row - 1, site.lane, site.chain_pos),
            (site.row + 1, site.lane, site.chain_pos),
        ]
        found = [index[key] for key in candidates if key in index]
        neighbors.append(np.asarray(found, dtype=int))
    return neighbors


def _neighbor_table(topology) -> Tuple[np.ndarray, np.ndarray]:
    """Padded ``(n_sockets, MAX_NEIGHBORS)`` neighbour table and counts.

    Row ``s`` lists socket ``s``'s neighbours in
    :func:`_build_neighbor_lists` order, then pads with ``n_sockets``:
    the index of a zero slot appended to the temperature vector.  A
    socket with no neighbours lists itself once, so its neighbour term
    is its own temperature.
    """
    lists = _build_neighbor_lists(topology)
    n_sockets = len(lists)
    table = np.full((n_sockets, MAX_NEIGHBORS), n_sockets, dtype=np.intp)
    counts = np.empty(n_sockets)
    for socket_id, found in enumerate(lists):
        if not found.size:
            found = np.array([socket_id])
        table[socket_id, : found.size] = found
        counts[socket_id] = found.size
    return table, counts


@register_scheduler
class CoolestNeighbors(Scheduler):
    """Minimise own temperature plus mean neighbour temperature.

    Every idle socket is scored in one array pass.  The pass makes the
    decisions of a per-socket loop taking ``chip[neighbours].mean()``
    bit for bit, given finite temperatures:

    - neighbour columns are summed left to right, pads (zero) last, and
      divided by the count: ``ndarray.mean``'s own order below 8
      elements;
    - ``np.argmin`` returns the first minimum in ``idle_ids`` order, as
      a strict ``<`` scan does.
    """

    name = "CN"

    def __init__(self) -> None:
        super().__init__()
        self._table = np.zeros((0, MAX_NEIGHBORS), dtype=np.intp)
        self._counts = np.zeros(0)
        self._padded = np.zeros(1)

    def reset(self, view, rng) -> None:
        super().reset(view, rng)
        self._table, self._counts = _neighbor_table(view.topology)
        self._padded = np.zeros(len(self._counts) + 1)

    def select_socket(self, job, idle_ids, view) -> int:
        self._require_candidates(idle_ids)
        return int(idle_ids[np.argmin(self._scores(idle_ids, view.chip_c))])

    def _scores(self, idle_ids, chip_c) -> np.ndarray:
        """``0.5 * own + 0.5 * mean(neighbours)`` of each idle socket."""
        padded = self._padded
        padded[:-1] = chip_c
        gathered = padded[self._table[idle_ids]]
        total = gathered[:, 0] + gathered[:, 1]
        for column in range(2, MAX_NEIGHBORS):
            total += gathered[:, column]
        return 0.5 * padded[idle_ids] + 0.5 * (
            total / self._counts[idle_ids]
        )
