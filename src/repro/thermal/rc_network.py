"""Generic steady-state thermal RC network solver.

A thermal network is a graph of nodes connected by thermal conductances
(W/degC).  Some nodes are *boundary* nodes held at a fixed temperature
(e.g. ambient air); the rest are free nodes with optional heat injection
(W).  Steady state solves the linear system ``G @ T = q`` restricted to
the free nodes, which is the standard nodal analysis formulation.

The solver caches its assembled conductance matrix and the LU
factorization of the free-node block, keyed on the network *structure*
(node set, edge list, and which nodes are boundaries).  Changing only
right-hand-side inputs — injected powers or boundary temperatures —
reuses the factorization, so repeated solves of the same network cost
one back-substitution instead of a full dense factorization.  Any
structural mutation (new node, new edge, newly pinned boundary)
invalidates the cache.

The detailed chip reference model (:mod:`repro.thermal.detailed_model`)
builds a die-grid network on top of this solver; it is also reusable for
ad-hoc thermal studies in downstream code.
"""

from __future__ import annotations

import importlib.util
import warnings
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ThermalModelError

#: Whether scipy is installed.  ``scipy.linalg`` itself is imported at
#: the first factorization rather than with this module, because only
#: the detailed chip model ever factorizes.  Read at construction time,
#: so tests can patch it to force the dense fallback.
HAVE_SCIPY = importlib.util.find_spec("scipy") is not None

_SINGULAR_MSG = "singular linear system: zero pivot in LU factorization"


class FactorizedSystem:
    """A dense linear system ``A @ x = b`` factorized once, solved often.

    With scipy installed this is scipy's LU factorization (LAPACK
    ``getrf``/``getrs``), so repeated solves against new right-hand
    sides only pay the O(n^2) back-substitution.  Without scipy (or
    for an empty system) each solve falls back to ``np.linalg.solve``
    on the retained matrix — correct, just not amortized.

    Exact singularity (a zero pivot — e.g. a free node with no path to
    any boundary) raises :class:`~repro.errors.ThermalModelError`; scipy
    merely warns and would hand back ``inf``/``nan`` temperatures.

    Raises:
        ThermalModelError: at construction (LU path) or first solve
            (fallback) if the matrix is exactly singular.
    """

    __slots__ = ("matrix", "_lu_piv", "_lu_solve")

    def __init__(self, matrix: np.ndarray) -> None:
        self.matrix = matrix
        self._lu_piv = self._lu_solve = None
        if HAVE_SCIPY and matrix.size:
            from scipy.linalg import lu_factor, lu_solve

            with warnings.catch_warnings():
                # scipy warns (LinAlgWarning) instead of raising on an
                # exactly singular factorization; we raise below.
                warnings.simplefilter("ignore")
                lu, piv = lu_factor(matrix, check_finite=False)
            if np.any(np.diagonal(lu) == 0.0):
                raise ThermalModelError(_SINGULAR_MSG)
            self._lu_piv = (lu, piv)
            self._lu_solve = lu_solve

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for ``x`` given a right-hand side ``b``.

        Raises:
            ThermalModelError: if the system is singular (fallback path;
                the LU path raises at construction instead).
        """
        if self._lu_solve is not None:
            return self._lu_solve(self._lu_piv, rhs, check_finite=False)
        try:
            return np.linalg.solve(self.matrix, rhs)
        except np.linalg.LinAlgError as exc:
            raise ThermalModelError(_SINGULAR_MSG) from exc


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
        #: Structure cache: (conductance, free index list, factorized
        #: free block or None).  Dropped by any structural mutation.
        self._assembled: Optional[
            Tuple[np.ndarray, List[int], Optional[FactorizedSystem]]
        ] = None

    def add_node(self, name: str) -> None:
        """Register a free node; idempotent for existing names."""
        if name not in self._index:
            self._index[name] = len(self._names)
            self._names.append(name)
            self._assembled = None

    def add_boundary(self, name: str, temperature_c: float) -> None:
        """Register (or re-pin) a fixed-temperature boundary node.

        Re-pinning an existing boundary to a new temperature only
        changes the right-hand side and keeps the cached factorization.
        """
        self.add_node(name)
        index = self._index[name]
        if index not in self._boundary:
            self._assembled = None
        self._boundary[index] = float(temperature_c)

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
        self._assembled = None

    def inject(self, name: str, power_w: float) -> None:
        """Set the heat injected at a node (W); replaces prior values."""
        self.add_node(name)
        self._injection[self._index[name]] = float(power_w)

    @property
    def node_names(self) -> List[str]:
        """All registered node names in insertion order."""
        return list(self._names)

    def _assemble(
        self,
    ) -> Tuple[np.ndarray, List[int], Optional[FactorizedSystem]]:
        """Assemble (or reuse) the conductance matrix and factorization."""
        if self._assembled is not None:
            return self._assembled
        n = len(self._names)
        conductance = np.zeros((n, n))
        for i, j, g in self._edges:
            conductance[i, i] += g
            conductance[j, j] += g
            conductance[i, j] -= g
            conductance[j, i] -= g
        free = [i for i in range(n) if i not in self._boundary]
        system: Optional[FactorizedSystem] = None
        if free:
            try:
                system = FactorizedSystem(conductance[np.ix_(free, free)])
            except ThermalModelError as exc:
                raise ThermalModelError(
                    "singular thermal network: a free node is not "
                    "connected to any boundary"
                ) from exc
        self._assembled = (conductance, free, system)
        return self._assembled

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
        conductance, free, system = self._assemble()
        n = len(self._names)
        temps = np.zeros(n)
        for i, t in self._boundary.items():
            temps[i] = t
        if free:
            rhs = np.array(
                [self._injection.get(i, 0.0) for i in free], dtype=float
            )
            for col, t in self._boundary.items():
                rhs -= conductance[np.ix_(free, [col])].ravel() * t
            try:
                solution = system.solve(rhs)
            except ThermalModelError as exc:
                raise ThermalModelError(
                    "singular thermal network: a free node is not "
                    "connected to any boundary"
                ) from exc
            temps[free] = solution
        return {name: float(temps[self._index[name]]) for name in self._names}
