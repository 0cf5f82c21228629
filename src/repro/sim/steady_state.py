"""Closed-form steady-state thermal field solver.

For a given per-socket average power vector, the coupled server's
steady state is directly computable (no time stepping): in equilibrium
every sink passes exactly its socket's power into the air stream, so

- entry temperatures: ``T_amb = T_inlet + M @ P``  (coupling matrix),
- sink temperatures:  ``T_sink = T_amb + P * R_ext``,
- chip temperatures:  ``T_chip = T_sink + P * R_int + theta(P)``,

with leakage iterated to a fixed point (power depends on chip
temperature, which depends on power).  The engine uses this to
warm-start scaled runs; it is also useful on its own for capacity
planning — e.g. "at which uniform utilisation does zone 6 start
throttling?".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..config.parameters import SimulationParameters
from ..errors import SimulationError
from ..server.topology import ServerTopology
from ..workloads.power_model import leakage_array

#: Fixed-point iterations for the leakage-power loop.
LEAKAGE_ITERATIONS = 4


@dataclass(frozen=True)
class SteadyStateField:
    """Equilibrium thermal field for one power distribution.

    Attributes:
        power_w: Per-socket average power used, W.
        ambient_c: Entry air temperature per socket, degC.
        sink_c: Heat-sink temperature per socket, degC.
        chip_c: Chip temperature per socket, degC.
    """

    power_w: np.ndarray
    ambient_c: np.ndarray
    sink_c: np.ndarray
    chip_c: np.ndarray

    @property
    def hottest_socket(self) -> int:
        """Index of the hottest chip."""
        return int(np.argmax(self.chip_c))


def solve_steady_state(
    topology: ServerTopology,
    params: SimulationParameters,
    dynamic_power_w: np.ndarray,
    utilization: Optional[np.ndarray] = None,
) -> SteadyStateField:
    """Solve the equilibrium field for a power distribution.

    Args:
        topology: Server geometry (provides the coupling matrix and
            per-socket sink constants).
        params: Simulation parameters (inlet temperature, R_int).
        dynamic_power_w: Per-socket dynamic power while busy, W.
        utilization: Optional per-socket busy fraction in [0, 1];
            sockets draw the gated power while idle.  Defaults to fully
            busy.

    Returns:
        The converged :class:`SteadyStateField`.

    Raises:
        SimulationError: for shape mismatches or out-of-range
            utilisation.
    """
    n = topology.n_sockets
    dynamic = np.asarray(dynamic_power_w, dtype=float)
    if dynamic.shape != (n,):
        raise SimulationError(
            f"expected dynamic power of shape ({n},), got {dynamic.shape}"
        )
    if utilization is None:
        utilization = np.ones(n)
    utilization = np.asarray(utilization, dtype=float)
    if utilization.shape != (n,):
        raise SimulationError(
            f"expected utilisation of shape ({n},), got "
            f"{utilization.shape}"
        )
    if ((utilization < 0) | (utilization > 1)).any():
        raise SimulationError("utilisation must lie in [0, 1]")

    r_ext = topology.r_ext_array
    theta_off = topology.theta_offset_array
    theta_slope = topology.theta_slope_array
    tdp = topology.tdp_array
    gated = topology.gated_power_array
    coupling = topology.coupling

    chip = np.full(n, 60.0)
    power = gated.copy()
    ambient = np.full(n, params.inlet_c)
    sink = ambient.copy()
    for _ in range(LEAKAGE_ITERATIONS):
        leak = leakage_array(chip, tdp)
        busy_power = dynamic + leak
        power = utilization * busy_power + (1.0 - utilization) * gated
        ambient = coupling.entry_temperatures(params.inlet_c, power)
        sink = ambient + power * r_ext
        theta = theta_off + theta_slope * power
        chip = sink + power * params.r_int + theta
    return SteadyStateField(
        power_w=power, ambient_c=ambient, sink_c=sink, chip_c=chip
    )


def uniform_load_field(
    topology: ServerTopology,
    params: SimulationParameters,
    utilization: float,
    dynamic_power_w: float,
) -> SteadyStateField:
    """Steady state with every socket at the same duty and power."""
    if not 0.0 <= utilization <= 1.0:
        raise SimulationError("utilisation must lie in [0, 1]")
    if dynamic_power_w < 0:
        raise SimulationError("dynamic power must be non-negative")
    n = topology.n_sockets
    return solve_steady_state(
        topology,
        params,
        np.full(n, dynamic_power_w),
        np.full(n, utilization),
    )
