"""Generic steady-state thermal RC network solver.

A thermal network is a graph of nodes connected by thermal conductances
(W/degC).  Some nodes are *boundary* nodes held at a fixed temperature
(e.g. ambient air); the rest are free nodes with optional heat injection
(W).  Steady state solves the linear system ``G @ T = q`` restricted to
the free nodes, which is the standard nodal analysis formulation.

Each :meth:`ThermalNetwork.solve` assembles the conductance matrix from
the current edge list and calls ``np.linalg.solve`` once on the
free-node block; nothing is kept between solves.

The detailed chip reference model (:mod:`repro.thermal.detailed_model`)
builds a die-grid network on top of this solver; it is also reusable for
ad-hoc thermal studies in downstream code.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..errors import ThermalModelError


class ThermalNetwork:
    """A steady-state thermal resistance network.

    Nodes are referenced by string names.  Conductances are symmetric;
    adding the same edge twice accumulates conductance (parallel paths).
    """

    def __init__(self) -> None:
        self._names: List[str] = []
        self._index: Dict[str, int] = {}
        self._edges: List[Tuple[int, int, float]] = []
        self._boundary: Dict[int, float] = {}
        self._injection: Dict[int, float] = {}

    def add_node(self, name: str) -> None:
        """Register a free node; idempotent for existing names."""
        if name not in self._index:
            self._index[name] = len(self._names)
            self._names.append(name)

    def add_boundary(self, name: str, temperature_c: float) -> None:
        """Register (or re-pin) a fixed-temperature boundary node."""
        self.add_node(name)
        self._boundary[self._index[name]] = float(temperature_c)

    def connect(self, a: str, b: str, resistance_c_per_w: float) -> None:
        """Connect two nodes with a thermal resistance in degC/W.

        Raises:
            ThermalModelError: if the resistance is not strictly positive
                or the edge is a self loop.
        """
        if resistance_c_per_w <= 0:
            raise ThermalModelError(
                f"resistance must be positive, got {resistance_c_per_w}"
            )
        if a == b:
            raise ThermalModelError(f"self loop on node {a!r}")
        self.add_node(a)
        self.add_node(b)
        self._edges.append(
            (self._index[a], self._index[b], 1.0 / resistance_c_per_w)
        )

    def inject(self, name: str, power_w: float) -> None:
        """Set the heat injected at a node (W); replaces prior values."""
        self.add_node(name)
        self._injection[self._index[name]] = float(power_w)

    @property
    def node_names(self) -> List[str]:
        """All registered node names in insertion order."""
        return list(self._names)

    def solve(self) -> Dict[str, float]:
        """Solve for steady-state temperatures of every node.

        Returns:
            Mapping from node name to temperature in degC (boundary nodes
            map to their pinned values).

        Raises:
            ThermalModelError: if there is no boundary node, or a free
                node is disconnected from every boundary (singular
                system).
        """
        if not self._boundary:
            raise ThermalModelError(
                "network has no boundary node; temperatures are unbounded"
            )
        n = len(self._names)
        conductance = np.zeros((n, n))
        for i, j, g in self._edges:
            conductance[i, i] += g
            conductance[j, j] += g
            conductance[i, j] -= g
            conductance[j, i] -= g
        temps = np.zeros(n)
        for i, t in self._boundary.items():
            temps[i] = t
        free = [i for i in range(n) if i not in self._boundary]
        if free:
            rhs = np.array(
                [self._injection.get(i, 0.0) for i in free], dtype=float
            )
            for col, t in self._boundary.items():
                rhs -= conductance[np.ix_(free, [col])].ravel() * t
            try:
                temps[free] = np.linalg.solve(
                    conductance[np.ix_(free, free)], rhs
                )
            except np.linalg.LinAlgError as exc:
                raise ThermalModelError(
                    "singular thermal network: a free node is not "
                    "connected to any boundary"
                ) from exc
        return {name: float(temps[self._index[name]]) for name in self._names}
