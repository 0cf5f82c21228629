"""Batched fleet-tensor sweep evaluation.

Capacity-planning sweeps ask the same decision-free question at many
operating points: "at utilisation u, per-socket dynamic power P and
inlet T, where does the steady thermal field settle?".  The per-point
path answers each question with a fresh set of ``(n,)`` kernel calls;
this module stacks ``N`` such points into leading-axis ``(N, n)`` fleet
tensors and evaluates every point per kernel call instead.  It returns
the four steady fields only: a caller that wants the DVFS state those
fields allow (the fleet what-if) runs
:func:`~repro.sim.power_manager.select_frequencies` over them itself.

The points of one call share one topology, or each carries its own.
Rows of different topologies (a room's chassis recipes) stack into one
block padded to the widest socket count; a row's own sockets are the
leading columns, and :meth:`FleetSweepResult.field` trims to them.

The stacked math is **bit-identical** to the per-point serial path
(:func:`evaluate_fleet_serial`), because every kernel is elementwise
over the socket axis and the one exception — the coupling
matrix–vector product, whose BLAS kernel (dgemv vs dgemm) may round
differently when batched — is deliberately evaluated one row at a
time: one GEMV of the row's own matrix over the row's own sockets,
exactly the serial product.

Only decision-free math batches this way: scheduler placement decisions
depend on job identity and history, so the full engine keeps its serial
per-point form (see :mod:`repro.sim.parallel` for process-level
parallelism there).
"""

from __future__ import annotations

import dataclasses
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..config.parameters import SimulationParameters
from ..errors import SimulationError
from ..server.topology import ServerTopology
from ..workloads.power_model import leakage_array
from .steady_state import (
    LEAKAGE_ITERATIONS,
    SteadyStateField,
    solve_steady_state,
)


@dataclass(frozen=True)
class FleetPoint:
    """One decision-free sweep point.

    Attributes:
        utilization: Uniform per-socket busy fraction in [0, 1].
        dyn_max_w: Per-socket dynamic power while busy, W.
        inlet_c: Optional inlet-air override, degC; ``None`` uses the
            sweep's shared ``params.inlet_c``.
    """

    utilization: float
    dyn_max_w: float
    inlet_c: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.utilization <= 1.0:
            raise SimulationError("utilisation must lie in [0, 1]")
        for name in ("dyn_max_w", "inlet_c"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise SimulationError(f"{name} must be finite, got {value}")
        if self.dyn_max_w < 0:
            raise SimulationError("dynamic power must be non-negative")


@dataclass(frozen=True, eq=False)
class FleetSweepResult:
    """Stacked steady fields for a batch of fleet points.

    The point axis leads and is aligned with the input sequence.  A
    call over one shared topology returns ``(N, n)`` tensors.  A call
    mixing topologies returns ``(N, width)`` tensors padded to the
    widest row: each row's own sockets are its leading columns, the
    rest is finite filler, so read a row through :meth:`field`.

    Attributes:
        power_w: Steady per-socket total power, W.
        ambient_c: Steady entry air temperatures, degC.
        sink_c: Steady heat-sink temperatures, degC.
        chip_c: Steady chip temperatures, degC.
        n_sockets: Each point's own socket count.
    """

    power_w: np.ndarray
    ambient_c: np.ndarray
    sink_c: np.ndarray
    chip_c: np.ndarray
    n_sockets: Sequence[int]

    @property
    def n_points(self) -> int:
        """Number of sweep points in the batch."""
        return self.power_w.shape[0]

    def field(self, index: int) -> SteadyStateField:
        """The steady field of one point over its own sockets."""
        n = self.n_sockets[index]
        return SteadyStateField(
            power_w=self.power_w[index, :n],
            ambient_c=self.ambient_c[index, :n],
            sink_c=self.sink_c[index, :n],
            chip_c=self.chip_c[index, :n],
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
    """Per-point reference evaluation through the serial solver.

    Runs each point independently through the exact historical entry
    point (:func:`~repro.sim.steady_state.solve_steady_state`) and
    stacks the results.  :func:`evaluate_fleet` must match this bit
    for bit — it is the batched evaluator's oracle.
    """
    if not points:
        raise SimulationError("fleet sweep needs at least one point")
    n = topology.n_sockets
    fields: List[SteadyStateField] = [
        solve_steady_state(
            topology,
            _point_params(params, point),
            np.full(n, point.dyn_max_w),
            np.full(n, point.utilization),
        )
        for point in points
    ]
    return FleetSweepResult(
        power_w=np.stack([f.power_w for f in fields]),
        ambient_c=np.stack([f.ambient_c for f in fields]),
        sink_c=np.stack([f.sink_c for f in fields]),
        chip_c=np.stack([f.chip_c for f in fields]),
        n_sockets=[n] * len(points),
    )


class _RowConstants(NamedTuple):
    """The topology constants of one stacked block.

    For one shared topology each array is its ``(n,)`` vector and
    broadcasts over the rows; for per-row topologies each is a
    ``(rows, width)`` block, row ``k`` holding its topology's vector
    in the leading columns and zeros after.  ``products`` pairs each
    row with its coupling matrix and socket count (one pair, used by
    every row, when shared).
    """

    tdp: np.ndarray
    gated: np.ndarray
    r_ext: np.ndarray
    theta_offset: np.ndarray
    theta_slope: np.ndarray
    #: Leakage of the first pass, every chip at its 60 degC start.
    first_leak: np.ndarray
    products: Tuple[Tuple[np.ndarray, int], ...]
    width: int


#: Most constant blocks kept between calls.  A cold room-planning pass
#: over 8 chassis of 3 recipes uses 15 row layouts; the bound keeps a
#: long-lived process from holding one block (and its topologies) per
#: layout it ever saw.
_CONSTANTS_MAX = 32

#: Constant blocks keyed on the shared topology or the tuple of row
#: topologies, least recently used first.  Keys are the topology
#: objects themselves (held alive by the entry), never their ``id()``.
_constants: "OrderedDict[object, _RowConstants]" = OrderedDict()


def _row_constants(
    key: Union[ServerTopology, Tuple[ServerTopology, ...]],
) -> _RowConstants:
    """The (cached) :class:`_RowConstants` of one block layout."""
    constants = _constants.get(key)
    if constants is not None:
        _constants.move_to_end(key)
        return constants
    rows = (key,) if isinstance(key, ServerTopology) else key
    width = max(t.n_sockets for t in rows)

    def block(name: str) -> np.ndarray:
        if len(rows) == 1:
            return getattr(rows[0], name)
        out = np.zeros((len(rows), width))
        for k, topology in enumerate(rows):
            out[k, : topology.n_sockets] = getattr(topology, name)
        return out

    tdp = block("tdp_array")
    constants = _RowConstants(
        tdp=tdp,
        gated=block("gated_power_array"),
        r_ext=block("r_ext_array"),
        theta_offset=block("theta_offset_array"),
        theta_slope=block("theta_slope_array"),
        first_leak=leakage_array(np.full(tdp.shape, 60.0), tdp),
        products=tuple((t.coupling.matrix, t.n_sockets) for t in rows),
        width=width,
    )
    _constants[key] = constants
    if len(_constants) > _CONSTANTS_MAX:
        _constants.popitem(last=False)
    return constants


def _steady_fleet(
    topology: Union[ServerTopology, Tuple[ServerTopology, ...]],
    params: SimulationParameters,
    util: np.ndarray,
    dynamic: np.ndarray,
    inlet: np.ndarray,
) -> tuple:
    """Stacked steady fixed point, bit-identical to the serial solver.

    ``topology`` is the rows' shared topology or one topology per row;
    ``util`` and ``dynamic`` are ``(rows, 1)`` columns and ``inlet`` a
    ``(rows,)`` vector, all broadcast over the socket axis.

    Every operation is elementwise over the trailing socket axis in the
    exact order of :func:`~repro.sim.steady_state.solve_steady_state`,
    whose leakage kernel (:func:`~repro.workloads.power_model.
    leakage_array`) runs here into a reused buffer, so each element
    sees the identical float sequence as its ``(n,)`` serial
    counterpart; the buffers are reused in place across the passes.
    The one matrix–vector product runs one row at a time,
    its own matrix over its own sockets, into that row of ``ambient``:
    a stacked product would hit a different BLAS kernel (dgemm vs
    dgemv) whose reduction order is not guaranteed to match.
    """
    constants = _row_constants(topology)
    rows = util.shape[0]
    shape = (rows, constants.width)
    power = np.empty(shape)
    # Zeroed so the padding columns, which no product writes, stay
    # finite.
    ambient = np.zeros(shape)
    sink = np.empty(shape)
    chip = np.empty(shape)
    scratch = np.empty(shape)
    pairs = constants.products
    if len(pairs) != rows:
        pairs = pairs * rows
    # Each row's matrix with its own sockets' views of the buffers the
    # product reads and writes; every pass reuses them.
    products = [
        (matrix, row_power[:n], row_ambient[:n])
        for (matrix, n), row_power, row_ambient in zip(pairs, power, ambient)
    ]
    inlet = inlet[:, None]
    idle_power = (1.0 - util) * constants.gated
    leak = constants.first_leak
    for iteration in range(LEAKAGE_ITERATIONS):
        if iteration:
            leak = leakage_array(chip, constants.tdp, out=scratch)
        np.add(dynamic, leak, out=power)
        np.multiply(util, power, out=power)
        np.add(power, idle_power, out=power)
        for matrix, row_power, row_ambient in products:
            np.matmul(matrix, row_power, out=row_ambient)
        np.add(ambient, inlet, out=ambient)
        np.multiply(power, constants.r_ext, out=sink)
        np.add(ambient, sink, out=sink)
        theta = np.multiply(constants.theta_slope, power, out=scratch)
        np.add(constants.theta_offset, theta, out=theta)
        np.multiply(power, params.r_int, out=chip)
        np.add(sink, chip, out=chip)
        np.add(chip, theta, out=chip)
    return power, ambient, sink, chip


def evaluate_fleet(
    topology: Union[ServerTopology, Sequence[ServerTopology]],
    params: SimulationParameters,
    points: Sequence[FleetPoint],
) -> FleetSweepResult:
    """Evaluate a batch of fleet points with stacked kernel calls.

    The steady field of a point depends only on its topology and its
    ``(utilization, dyn_max_w, inlet)``, so the fixed point runs once
    per distinct quadruple and its rows are repeated into the output
    tensors.

    Args:
        topology: The server geometry shared by every point, or a
            sequence of one topology per point.  Points of different
            topologies stack into one block padded to the widest (see
            :class:`FleetSweepResult`).
        params: Shared simulation parameters; per-point ``inlet_c``
            overrides apply on top.
        points: The sweep points; all evaluate in one pass.

    Returns:
        The stacked :class:`FleetSweepResult`; each point's
        :meth:`~FleetSweepResult.field` is bit-identical to
        :func:`evaluate_fleet_serial` on that point's topology.
    """
    if not points:
        raise SimulationError("fleet sweep needs at least one point")
    n_points = len(points)
    if isinstance(topology, ServerTopology):
        per_point = (topology,) * n_points
    else:
        per_point = tuple(topology)
        if len(per_point) != n_points:
            raise SimulationError(
                f"got {len(per_point)} topologies for {n_points} points"
            )
    shared = per_point[0]
    if any(t is not shared for t in per_point):
        shared = None

    inlets = [
        params.inlet_c if point.inlet_c is None else float(point.inlet_c)
        for point in points
    ]
    # FleetPoint admits only finite values, so equal keys mean equal
    # inputs (0.0 and -0.0 merge, and give the same steady field).
    rows: Dict[Tuple[ServerTopology, float, float, float], int] = {}
    row_of = [
        rows.setdefault(
            (t, point.utilization, point.dyn_max_w, inlet), len(rows)
        )
        for t, point, inlet in zip(per_point, points, inlets)
    ]
    row_topology, util, dynamic, row_inlet = zip(*rows)
    steady = _steady_fleet(
        shared if shared is not None else row_topology,
        params,
        np.array(util, dtype=float)[:, None],
        np.array(dynamic, dtype=float)[:, None],
        np.array(row_inlet, dtype=float),
    )
    if len(rows) < n_points:
        steady = tuple(tensor[row_of] for tensor in steady)
    power, ambient, sink, chip = steady
    return FleetSweepResult(
        power_w=power,
        ambient_c=ambient,
        sink_c=sink,
        chip_c=chip,
        n_sockets=[t.n_sockets for t in per_point],
    )
