"""The fleet registry: which chassis exist and who serves them.

A *chassis* is one density-optimized system (a Table-I configuration
realised as a :class:`~repro.server.topology.ServerTopology` plus
:class:`~repro.config.parameters.SimulationParameters`).  A *worker*
is one supervised process serving queries for exactly one chassis; a
chassis may have several workers (replicas), which is what gives the
coordinator somewhere to retry when a worker stalls.

Specs are frozen and picklable: worker processes rebuild their
topology from the spec on their side of the fork, so no topology
object ever crosses a process boundary (mirroring how
:mod:`repro.sim.parallel` ships scheduler *names*, not instances).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..config.parameters import SimulationParameters
from ..config.presets import scaled
from ..errors import FleetError
from ..server.catalog import TABLE_I_SYSTEMS, DensityOptimizedSystem
from ..server.topology import ServerTopology


@dataclass(frozen=True)
class ChassisSpec:
    """Recipe for one chassis' topology and parameters.

    Attributes:
        chassis_id: Unique fleet-wide identifier.
        n_rows: Cartridge rows.
        lanes_per_row: Airflow lanes per row.
        chain_length: Sockets per lane along the airflow.
        sockets_per_cartridge_depth: Chain positions per cartridge.
        inlet_c: Inlet air temperature for this chassis, degC.
        base_utilization: Ambient busy fraction assumed when a query
            does not carry an explicit utilization vector.
        catalog_details: Optional Table-I ``details`` string recording
            which catalogued system this chassis models.
    """

    chassis_id: str
    n_rows: int = 1
    lanes_per_row: int = 2
    chain_length: int = 6
    sockets_per_cartridge_depth: int = 2
    inlet_c: float = 18.0
    base_utilization: float = 0.5
    catalog_details: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.chassis_id:
            raise FleetError("chassis id must be non-empty")
        if not 0.0 <= self.base_utilization <= 1.0:
            raise FleetError("base utilization must lie in [0, 1]")

    @property
    def n_sockets(self) -> int:
        """Socket count of the built topology."""
        return self.n_rows * self.lanes_per_row * self.chain_length

    def build_topology(self) -> ServerTopology:
        """Construct the chassis geometry from the recipe."""
        return ServerTopology(
            n_rows=self.n_rows,
            lanes_per_row=self.lanes_per_row,
            chain_length=self.chain_length,
            sockets_per_cartridge_depth=self.sockets_per_cartridge_depth,
        )

    def build_params(self, seed: int = 0) -> SimulationParameters:
        """Scaled simulation parameters with this chassis' inlet."""
        return dataclasses.replace(
            scaled(seed=seed), inlet_c=self.inlet_c
        )


@dataclass(frozen=True)
class WorkerSpec:
    """One supervised worker process slot.

    Attributes:
        worker_id: Unique fleet-wide identifier.
        chassis_id: The chassis this worker serves.
    """

    worker_id: str
    chassis_id: str


def spec_from_catalog(
    system: DensityOptimizedSystem,
    chassis_id: str,
    n_rows: int = 1,
    inlet_c: float = 18.0,
) -> ChassisSpec:
    """Derive a chassis spec from a Table-I catalog entry.

    The degree of thermal coupling picks the lane layout: strongly
    coupled systems (degree >= 4, e.g. the M700 cartridges) get the
    full 6-deep chain, degree-2 systems a 2-deep chain, and uncoupled
    systems independent single-socket lanes — so a catalog-built fleet
    is genuinely heterogeneous in the dimension the paper cares about.
    """
    if system.degree_of_coupling >= 4:
        chain, depth, lanes = 6, 2, 2
    elif system.degree_of_coupling >= 2:
        chain, depth, lanes = 2, 2, 2
    else:
        chain, depth, lanes = 1, 1, 4
    return ChassisSpec(
        chassis_id=chassis_id,
        n_rows=n_rows,
        lanes_per_row=lanes,
        chain_length=chain,
        sockets_per_cartridge_depth=depth,
        inlet_c=inlet_c,
        catalog_details=system.details,
    )


@dataclass(frozen=True)
class FleetRegistry:
    """The immutable fleet layout the coordinator serves.

    Attributes:
        chassis: Chassis specs keyed by id.
        workers: Worker slots, in deterministic supervision order.
    """

    chassis: Dict[str, ChassisSpec] = field(default_factory=dict)
    workers: Tuple[WorkerSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "chassis", dict(self.chassis))
        object.__setattr__(self, "workers", tuple(self.workers))
        seen = set()
        for worker in self.workers:
            if worker.worker_id in seen:
                raise FleetError(
                    f"duplicate worker id {worker.worker_id!r}"
                )
            seen.add(worker.worker_id)
            if worker.chassis_id not in self.chassis:
                raise FleetError(
                    f"worker {worker.worker_id!r} serves unknown "
                    f"chassis {worker.chassis_id!r}"
                )
        if not self.chassis:
            raise FleetError("fleet registry needs at least one chassis")

    @property
    def n_chassis(self) -> int:
        return len(self.chassis)

    @property
    def n_workers(self) -> int:
        return len(self.workers)

    def workers_for(self, chassis_id: str) -> List[WorkerSpec]:
        """The workers (primary first) serving one chassis."""
        if chassis_id not in self.chassis:
            raise FleetError(f"unknown chassis {chassis_id!r}")
        return [
            w for w in self.workers if w.chassis_id == chassis_id
        ]

    def spec_for_worker(self, worker_id: str) -> ChassisSpec:
        """The chassis spec a worker serves."""
        for worker in self.workers:
            if worker.worker_id == worker_id:
                return self.chassis[worker.chassis_id]
        raise FleetError(f"unknown worker {worker_id!r}")


def demo_fleet(
    n_chassis: int = 3,
    n_rows: int = 1,
    replicas: int = 1,
) -> FleetRegistry:
    """A small heterogeneous fleet drawn from the Table-I catalog.

    Chassis ``c0..cN`` cycle through catalog systems with *distinct*
    coupling degrees (high/medium/low), each staggered by 1 degC of
    inlet temperature so no two chassis are thermally identical.
    ``replicas`` extra workers per chassis give the coordinator retry
    targets.
    """
    if n_chassis < 1:
        raise FleetError("fleet needs at least one chassis")
    if replicas < 0:
        raise FleetError("replicas must be >= 0")
    # One representative per coupling degree, in catalog order.
    by_degree: Dict[int, DensityOptimizedSystem] = {}
    for system in TABLE_I_SYSTEMS:
        by_degree.setdefault(system.degree_of_coupling, system)
    cycle = [by_degree[d] for d in sorted(by_degree, reverse=True)]
    chassis: Dict[str, ChassisSpec] = {}
    workers: List[WorkerSpec] = []
    for i in range(n_chassis):
        chassis_id = f"c{i}"
        system = cycle[i % len(cycle)]
        chassis[chassis_id] = spec_from_catalog(
            system,
            chassis_id,
            n_rows=n_rows,
            inlet_c=18.0 + float(i),
        )
        for r in range(1 + replicas):
            workers.append(
                WorkerSpec(
                    worker_id=f"{chassis_id}-w{r}",
                    chassis_id=chassis_id,
                )
            )
    return FleetRegistry(chassis=chassis, workers=workers)
