"""Batched fleet-tensor sweep evaluation over a shared topology.

Capacity-planning sweeps ask the same decision-free questions at many
operating points of one server: "at utilisation u and per-socket
dynamic power P, where does the steady thermal field settle, and which
DVFS state survives it?".  The per-point path answers each question
with a fresh set of ``(n,)`` kernel calls; this module stacks ``N`` such
points into leading-axis ``(N, n)`` fleet tensors and evaluates every
point per kernel call instead.

The stacked math is **bit-identical** to the per-point serial path
(:func:`evaluate_fleet_serial`), because every kernel is elementwise
over the socket axis and the one exception — the coupling
matrix–vector product, whose BLAS kernel (dgemv vs dgemm) may round
differently when batched — is deliberately evaluated one point at a
time through the exact serial entry point.

Only decision-free math batches this way: scheduler placement decisions
depend on job identity and history, so the full engine keeps its serial
per-point form (see :mod:`repro.sim.parallel` for process-level
parallelism there).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..config.parameters import SimulationParameters
from ..errors import SimulationError
from ..server.topology import ServerTopology
from ..workloads.power_model import leakage_power
from .power_manager import select_frequencies_steady
from .steady_state import (
    LEAKAGE_ITERATIONS,
    SteadyStateField,
    solve_steady_state,
)


@dataclass(frozen=True)
class FleetPoint:
    """One decision-free sweep point over the shared topology.

    Attributes:
        utilization: Uniform per-socket busy fraction in [0, 1].
        dyn_max_w: Per-socket dynamic power while busy, W.
        dyn_exp: Dynamic power exponent for the DVFS selection step
            (workload dependent; see
            :func:`repro.sim.power_manager.dynamic_power`).
        inlet_c: Optional inlet-air override, degC; ``None`` uses the
            sweep's shared ``params.inlet_c``.
    """

    utilization: float
    dyn_max_w: float
    dyn_exp: float = 2.0
    inlet_c: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.utilization <= 1.0:
            raise SimulationError("utilisation must lie in [0, 1]")
        for name in ("dyn_max_w", "dyn_exp", "inlet_c"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise SimulationError(f"{name} must be finite, got {value}")
        if self.dyn_max_w < 0:
            raise SimulationError("dynamic power must be non-negative")
        if self.dyn_exp <= 0:
            raise SimulationError("dynamic exponent must be positive")


class FleetSweepResult:
    """Stacked ``(N, n)`` results for a batch of fleet points.

    The point axis leads and is aligned with the input sequence.

    The four steady tensors are always computed.  The DVFS selection
    (``freq_mhz``) may be *deferred*: :func:`evaluate_fleet` passes it
    as a zero-argument callable over the steady tensors, run on the
    first read and cached on the result.  A caller that reads only the
    steady fields — the room solver — never pays for it; fleet
    what-ifs read it.  Pickling materialises it, so a result crosses a
    process boundary whole.

    Attributes:
        power_w: Steady per-socket total power, W.
        ambient_c: Steady entry air temperatures, degC.
        sink_c: Steady heat-sink temperatures, degC.
        chip_c: Steady chip temperatures, degC.
        freq_mhz: Steady-state DVFS selection per socket, MHz.
    """

    def __init__(
        self,
        power_w: np.ndarray,
        ambient_c: np.ndarray,
        sink_c: np.ndarray,
        chip_c: np.ndarray,
        freq_mhz: Union[np.ndarray, Callable[[], np.ndarray]],
    ) -> None:
        self.power_w = power_w
        self.ambient_c = ambient_c
        self.sink_c = sink_c
        self.chip_c = chip_c
        self._freq_mhz = freq_mhz

    @property
    def freq_mhz(self) -> np.ndarray:
        if callable(self._freq_mhz):
            self._freq_mhz = self._freq_mhz()
        return self._freq_mhz

    def __reduce__(self):
        return (
            FleetSweepResult,
            (
                self.power_w,
                self.ambient_c,
                self.sink_c,
                self.chip_c,
                self.freq_mhz,
            ),
        )

    @property
    def n_points(self) -> int:
        """Number of sweep points in the batch."""
        return self.power_w.shape[0]

    def field(self, index: int) -> SteadyStateField:
        """The steady field of one point, as the per-point dataclass."""
        return SteadyStateField(
            power_w=self.power_w[index],
            ambient_c=self.ambient_c[index],
            sink_c=self.sink_c[index],
            chip_c=self.chip_c[index],
        )


def _point_params(
    params: SimulationParameters, point: FleetPoint
) -> SimulationParameters:
    """The shared parameters with the point's inlet override applied."""
    if point.inlet_c is None:
        return params
    return dataclasses.replace(params, inlet_c=float(point.inlet_c))


def evaluate_fleet_serial(
    topology: ServerTopology,
    params: SimulationParameters,
    points: Sequence[FleetPoint],
) -> FleetSweepResult:
    """Per-point reference evaluation through the serial kernels.

    Runs each point independently through the exact historical entry
    points (:func:`~repro.sim.steady_state.solve_steady_state` and the
    steady DVFS selector) and stacks the results.
    :func:`evaluate_fleet` must match this bit for bit — it is the
    batched evaluator's oracle.
    """
    if not points:
        raise SimulationError("fleet sweep needs at least one point")
    n = topology.n_sockets
    ladder = topology.processor.ladder
    tdp = topology.tdp_array
    r_ext = topology.r_ext_array
    theta_off = topology.theta_offset_array
    theta_slope = topology.theta_slope_array

    fields: List[SteadyStateField] = []
    freqs: List[np.ndarray] = []
    for point in points:
        p = _point_params(params, point)
        field = solve_steady_state(
            topology,
            p,
            np.full(n, point.dyn_max_w),
            np.full(n, point.utilization),
        )
        fields.append(field)
        freqs.append(
            select_frequencies_steady(
                ambient_c=field.ambient_c,
                chip_c=field.chip_c,
                dyn_max_w=np.full(n, point.dyn_max_w),
                dyn_exp=np.full(n, point.dyn_exp),
                tdp_w=tdp,
                r_ext=r_ext,
                theta_offset=theta_off,
                theta_slope=theta_slope,
                ladder=ladder,
                params=p,
            )
        )
    return FleetSweepResult(
        power_w=np.stack([f.power_w for f in fields]),
        ambient_c=np.stack([f.ambient_c for f in fields]),
        sink_c=np.stack([f.sink_c for f in fields]),
        chip_c=np.stack([f.chip_c for f in fields]),
        freq_mhz=np.stack(freqs),
    )


def _steady_fleet(
    topology: ServerTopology,
    params: SimulationParameters,
    util: np.ndarray,
    dynamic: np.ndarray,
    inlet: np.ndarray,
) -> tuple:
    """Stacked steady fixed point, bit-identical to the serial solver.

    Every operation is elementwise over the trailing socket axis in the
    exact order of :func:`~repro.sim.steady_state.solve_steady_state`,
    so each ``(N, n)`` element sees the identical float sequence as its
    ``(n,)`` serial counterpart.  The one matrix–vector product runs
    one point at a time into that point's row of ``ambient``: a stacked
    ``(N, n)`` product would hit a different BLAS kernel (dgemm vs
    dgemv) whose reduction order is not guaranteed to match.
    """
    tdp = topology.tdp_array
    gated = topology.gated_power_array
    r_ext = topology.r_ext_array
    theta_off = topology.theta_offset_array
    theta_slope = topology.theta_slope_array
    matrix = topology.coupling.matrix

    chip = np.full(util.shape, 60.0)
    ambient = np.empty(util.shape)
    idle_power = (1.0 - util) * gated
    power = sink = None
    for _ in range(LEAKAGE_ITERATIONS):
        leak = leakage_power(chip, 1.0) * tdp
        busy_power = dynamic + leak
        power = util * busy_power + idle_power
        for i in range(power.shape[0]):
            np.matmul(matrix, power[i], out=ambient[i])
        ambient += inlet[:, None]
        sink = ambient + power * r_ext
        theta = theta_off + theta_slope * power
        chip = sink + power * params.r_int + theta
    return power, ambient, sink, chip


def evaluate_fleet(
    topology: ServerTopology,
    params: SimulationParameters,
    points: Sequence[FleetPoint],
) -> FleetSweepResult:
    """Evaluate a batch of fleet points with stacked kernel calls.

    The steady tensors are computed here; the DVFS selection is
    deferred to the first read of the result's ``freq_mhz`` (see
    :class:`FleetSweepResult`).

    The steady field of a point depends only on its ``(utilization,
    dyn_max_w, inlet)``, so the fixed point runs once per distinct
    triple and its rows are repeated into the ``(N, n)`` tensors.  The
    deferred selection runs on those expanded tensors: points that
    differ only in ``dyn_exp`` share a steady row but not a frequency.

    Args:
        topology: The shared server geometry.
        params: Shared simulation parameters; per-point ``inlet_c``
            overrides apply on top.
        points: The sweep points; all evaluate in one pass.

    Returns:
        The stacked :class:`FleetSweepResult`, bit-identical to
        :func:`evaluate_fleet_serial`.
    """
    if not points:
        raise SimulationError("fleet sweep needs at least one point")
    n = topology.n_sockets
    n_points = len(points)

    def columns(values: Sequence[float]) -> np.ndarray:
        """One value per row, repeated over that row's sockets."""
        return np.repeat(np.array(values, dtype=float), n).reshape(
            len(values), n
        )

    inlets = [
        params.inlet_c if point.inlet_c is None else float(point.inlet_c)
        for point in points
    ]
    dyn_max = [point.dyn_max_w for point in points]
    dyn_exp = [point.dyn_exp for point in points]
    # FleetPoint admits only finite values, so equal keys mean equal
    # inputs (0.0 and -0.0 merge, and give the same steady field).
    rows: Dict[Tuple[float, float, float], int] = {}
    row_of = [
        rows.setdefault((point.utilization, point.dyn_max_w, t), len(rows))
        for point, t in zip(points, inlets)
    ]
    util, dynamic, row_inlet = zip(*rows)
    steady = _steady_fleet(
        topology,
        params,
        columns(util),
        columns(dynamic),
        np.array(row_inlet),
    )
    if len(rows) < n_points:
        steady = tuple(tensor[row_of] for tensor in steady)
    power, ambient, sink, chip = steady

    def frequencies() -> np.ndarray:
        # DVFS selection is elementwise per socket column, so the
        # stacked batch flattens to one (N * n,) call — bit-identical
        # per element to N separate (n,) calls (see
        # select_frequencies_steady).
        flat = (n_points * n,)
        return select_frequencies_steady(
            ambient_c=ambient.reshape(flat),
            chip_c=chip.reshape(flat),
            dyn_max_w=columns(dyn_max).reshape(flat),
            dyn_exp=columns(dyn_exp).reshape(flat),
            tdp_w=np.tile(topology.tdp_array, n_points),
            r_ext=np.tile(topology.r_ext_array, n_points),
            theta_offset=np.tile(topology.theta_offset_array, n_points),
            theta_slope=np.tile(topology.theta_slope_array, n_points),
            ladder=topology.processor.ladder,
            params=params,
        ).reshape((n_points, n))

    return FleetSweepResult(
        power_w=power,
        ambient_c=ambient,
        sink_c=sink,
        chip_c=chip,
        freq_mhz=frequencies,
    )
