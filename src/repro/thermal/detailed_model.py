"""Detailed multi-node chip thermal model (reference for Figures 9 / 10).

The paper validates its simplified Equation 1 model against a proprietary
HotSpot-like model that was itself validated with thermal-camera
measurements.  We cannot use that model, so this module provides a
physically structured substitute: a steady-state RC network over a
floorplan of the AMD Opteron X2150-like die (a ~100 mm^2 Kabini APU with
four small CPU cores, an L2, a GPU and uncore blocks), with

- per-block vertical resistances into an isothermal heat spreader (small
  blocks see higher resistance, following an area-spreading law),
- lateral block-to-block resistances derived from the die geometry, and
- a power-dependent convection resistance from the sink base to ambient
  that captures the same empirical behaviour Equation 1's theta term fits.

The model reproduces the two properties Figure 9 reports — hot/cold-spot
spreads of only 4-7 degC on this small die, and the 30-fin sink running
6-7 degC cooler than the 18-fin sink at high power (3-4 degC at low
power) — and serves as the reference against which Figure 10 checks that
Equation 1 is accurate to within ~2 degC.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Mapping, Tuple

import numpy as np

from ..errors import ThermalModelError
from .chip_model import DEFAULT_R_INT
from .heatsink import HeatSink
from .rc_network import FactorizedSystem, ThermalNetwork

#: Retained LU factorizations per model instance.  The convection edge
#: is the only power-dependent conductance, so the cache is keyed on
#: ``g_conv`` alone; sweeps that revisit the same total power (Fig. 9/10
#: grids, steady-state iteration) hit the cache and only pay
#: back-substitution.
FACTOR_CACHE_MAX = 64


@dataclass(frozen=True)
class FloorplanBlock:
    """A rectangular block of the die floorplan.

    Attributes:
        name: Block identifier (e.g. ``"core0"``).
        x_mm: Left edge, mm.
        y_mm: Bottom edge, mm.
        width_mm: Width, mm.
        height_mm: Height, mm.
    """

    name: str
    x_mm: float
    y_mm: float
    width_mm: float
    height_mm: float

    def __post_init__(self) -> None:
        if self.width_mm <= 0 or self.height_mm <= 0:
            raise ThermalModelError(
                f"block {self.name!r} must have positive dimensions"
            )

    @property
    def area_mm2(self) -> float:
        """Block area in mm^2."""
        return self.width_mm * self.height_mm

    @property
    def center(self) -> Tuple[float, float]:
        """Block centroid (x, y) in mm."""
        return (
            self.x_mm + self.width_mm / 2.0,
            self.y_mm + self.height_mm / 2.0,
        )

    def shared_edge_mm(self, other: "FloorplanBlock") -> float:
        """Length of the shared boundary with another block (0 if none)."""
        tol = 1e-9
        # Vertical adjacency (this block beside the other).
        if (
            abs(self.x_mm + self.width_mm - other.x_mm) < tol
            or abs(other.x_mm + other.width_mm - self.x_mm) < tol
        ):
            low = max(self.y_mm, other.y_mm)
            high = min(
                self.y_mm + self.height_mm, other.y_mm + other.height_mm
            )
            return max(high - low, 0.0)
        # Horizontal adjacency (this block above/below the other).
        if (
            abs(self.y_mm + self.height_mm - other.y_mm) < tol
            or abs(other.y_mm + other.height_mm - self.y_mm) < tol
        ):
            low = max(self.x_mm, other.x_mm)
            high = min(
                self.x_mm + self.width_mm, other.x_mm + other.width_mm
            )
            return max(high - low, 0.0)
        return 0.0


def kabini_floorplan() -> Tuple[FloorplanBlock, ...]:
    """A 10 mm x 10 mm floorplan of the X2150-like Kabini die.

    Four Jaguar cores along the top edge, an L2 slice below them, a large
    GPU in the middle, and uncore / IO strips at the bottom — roughly the
    published die organisation at ~100 mm^2.
    """
    blocks = [
        FloorplanBlock("core0", 0.0, 8.0, 2.5, 2.0),
        FloorplanBlock("core1", 2.5, 8.0, 2.5, 2.0),
        FloorplanBlock("core2", 5.0, 8.0, 2.5, 2.0),
        FloorplanBlock("core3", 7.5, 8.0, 2.5, 2.0),
        FloorplanBlock("l2", 0.0, 6.5, 10.0, 1.5),
        FloorplanBlock("gpu", 0.0, 2.5, 10.0, 4.0),
        FloorplanBlock("uncore", 0.0, 1.0, 10.0, 1.5),
        FloorplanBlock("io", 0.0, 0.0, 10.0, 1.0),
    ]
    return tuple(blocks)


#: Silicon lateral sheet resistivity used for block-to-block resistances,
#: degC * mm / W.  Derived from k_si ~ 150 W/(m K) at ~0.45 mm effective
#: spreading thickness.
LATERAL_RESISTIVITY = 14.8

#: Exponent of the area-spreading law for per-block vertical resistance:
#: r_v(block) = R_int * (A_die / A_block) ** beta.  beta = 1 would be pure
#: area scaling (no spreading in the package); real packages spread
#: strongly, so beta < 1.
SPREADING_EXPONENT = 0.82

#: Spreader-to-sink-base interface resistance, degC/W.
SPREADER_RESISTANCE = 0.04

#: Convection excess term: R_conv = R_ext + CONV_A / (P + CONV_P0).  This
#: captures the empirically observed constant-ish offset that Equation 1
#: fits with its theta(P) term.
CONV_A = 0.6
CONV_P0 = 2.0


@dataclass(frozen=True)
class DetailedChipResult:
    """Steady-state solution of the detailed model for one scenario.

    Attributes:
        block_temperatures_c: Temperature of each floorplan block, degC.
        spreader_c: Heat spreader temperature, degC.
        sink_base_c: Heat-sink base temperature, degC.
    """

    block_temperatures_c: Mapping[str, float]
    spreader_c: float
    sink_base_c: float

    @property
    def max_temperature_c(self) -> float:
        """Hottest block temperature (the chip peak), degC."""
        return max(self.block_temperatures_c.values())

    @property
    def min_temperature_c(self) -> float:
        """Coolest block temperature, degC."""
        return min(self.block_temperatures_c.values())

    @property
    def spread_c(self) -> float:
        """Hot-spot minus cold-spot temperature difference, degC."""
        return self.max_temperature_c - self.min_temperature_c

    @property
    def hottest_block(self) -> str:
        """Name of the hottest floorplan block."""
        return max(
            self.block_temperatures_c, key=self.block_temperatures_c.get
        )


class DetailedChipModel:
    """Reference steady-state chip model over a floorplan RC network.

    The network is the :func:`kabini_floorplan` die under
    :data:`~repro.thermal.chip_model.DEFAULT_R_INT` (Table III's
    R_int), with the module constants :data:`LATERAL_RESISTIVITY`,
    :data:`SPREADING_EXPONENT`, :data:`SPREADER_RESISTANCE`,
    :data:`CONV_A` and :data:`CONV_P0`.  The resistances enter the
    conductance matrix built with the model; the convection terms are
    read at each solve.  Only the heat sink varies between models.
    """

    def __init__(self, sink: HeatSink):
        self.sink = sink
        self.floorplan: Tuple[FloorplanBlock, ...] = kabini_floorplan()
        self._init_kernel()

    def _init_kernel(self) -> None:
        """Precompute the power-independent part of the conductance matrix.

        The network structure is fixed at construction; only the
        sink-base-to-ambient convection conductance depends on the power
        map.  The base matrix accumulates every other edge in the exact
        order :meth:`solve_via_network` adds them, so adding the
        convection contributions afterwards reproduces the reference
        assembly bit for bit (the deferred edge touches only cells the
        base matrix leaves at their pre-convection partial sums).
        """
        names = ["ambient", "spreader", "sink_base"] + [
            b.name for b in self.floorplan
        ]
        index = {name: i for i, name in enumerate(names)}
        n = len(names)
        base = np.zeros((n, n))

        def accumulate(i: int, j: int, resistance: float) -> None:
            g = 1.0 / resistance
            base[i, i] += g
            base[j, j] += g
            base[i, j] -= g
            base[j, i] -= g

        accumulate(index["spreader"], index["sink_base"], SPREADER_RESISTANCE)
        # The sink_base <-> ambient convection edge is added per solve.
        for block in self.floorplan:
            accumulate(
                index[block.name],
                index["spreader"],
                self._vertical_resistance(block),
            )
        for i, a in enumerate(self.floorplan):
            for b in self.floorplan[i + 1 :]:
                edge = a.shared_edge_mm(b)
                if edge > 0:
                    accumulate(
                        index[a.name],
                        index[b.name],
                        self._lateral_resistance(a, b, edge),
                    )
        self._node_index = index
        self._n_nodes = n
        self._base_conductance = base
        self._factor_cache: "OrderedDict[float, FactorizedSystem]" = (
            OrderedDict()
        )

    @property
    def die_area_mm2(self) -> float:
        """Total floorplan area, mm^2."""
        return sum(b.area_mm2 for b in self.floorplan)

    def _vertical_resistance(self, block: FloorplanBlock) -> float:
        ratio = self.die_area_mm2 / block.area_mm2
        return DEFAULT_R_INT * ratio**SPREADING_EXPONENT

    def _lateral_resistance(
        self, a: FloorplanBlock, b: FloorplanBlock, edge_mm: float
    ) -> float:
        ax, ay = a.center
        bx, by = b.center
        distance = ((ax - bx) ** 2 + (ay - by) ** 2) ** 0.5
        return LATERAL_RESISTIVITY * distance / edge_mm

    def _validate_powers(self, block_power_w: Mapping[str, float]) -> None:
        known = {b.name for b in self.floorplan}
        for name, power in block_power_w.items():
            if name not in known:
                raise ThermalModelError(f"unknown floorplan block {name!r}")
            if power < 0:
                raise ThermalModelError(
                    f"power for block {name!r} must be non-negative"
                )

    def solve(
        self,
        ambient_c: float,
        block_power_w: Mapping[str, float],
    ) -> DetailedChipResult:
        """Solve for block temperatures given a per-block power map.

        Fast path: reuses the precomputed base conductance matrix and an
        LRU cache of LU factorizations keyed on the convection
        conductance — bit-identical to :meth:`solve_via_network`, which
        rebuilds the full :class:`~repro.thermal.rc_network.
        ThermalNetwork` every call.

        Args:
            ambient_c: Entry air temperature at the socket, degC.
            block_power_w: Heat injected into each block, W.  Blocks not
                listed inject zero.

        Raises:
            ThermalModelError: if a power key names an unknown block or
                any power is negative.
        """
        self._validate_powers(block_power_w)
        total_power = sum(block_power_w.values())
        r_conv = self.sink.r_ext + CONV_A / (total_power + CONV_P0)
        g_conv = 1.0 / r_conv

        system = self._factor_cache.get(g_conv)
        if system is None:
            conductance = self._base_conductance.copy()
            # sink_base (2) <-> ambient (0) convection edge, in the same
            # accumulation order as ThermalNetwork assembly.
            conductance[2, 2] += g_conv
            conductance[0, 0] += g_conv
            conductance[2, 0] -= g_conv
            conductance[0, 2] -= g_conv
            system = FactorizedSystem(conductance[1:, 1:])
            self._factor_cache[g_conv] = system
            if len(self._factor_cache) > FACTOR_CACHE_MAX:
                self._factor_cache.popitem(last=False)
        else:
            self._factor_cache.move_to_end(g_conv)

        index = self._node_index
        rhs = np.zeros(self._n_nodes - 1)
        for block in self.floorplan:
            rhs[index[block.name] - 1] = float(
                block_power_w.get(block.name, 0.0)
            )
        # Only the sink_base row has a non-zero ambient-column entry
        # (-g_conv); every other row subtracts an exact 0.0 * ambient.
        rhs[index["sink_base"] - 1] -= (0.0 - g_conv) * float(ambient_c)
        solution = system.solve(rhs)
        block_temps = {
            b.name: float(solution[index[b.name] - 1])
            for b in self.floorplan
        }
        return DetailedChipResult(
            block_temperatures_c=block_temps,
            spreader_c=float(solution[index["spreader"] - 1]),
            sink_base_c=float(solution[index["sink_base"] - 1]),
        )

    def solve_via_network(
        self,
        ambient_c: float,
        block_power_w: Mapping[str, float],
    ) -> DetailedChipResult:
        """Reference solve that rebuilds the RC network from scratch.

        Kept as the structural ground truth the fast :meth:`solve` path
        is benchmarked and bit-compared against
        (``tests/test_thermal_detailed_model.py``,
        ``benchmarks/bench_scheduler_kernels.py``).
        """
        self._validate_powers(block_power_w)
        total_power = sum(block_power_w.values())

        network = ThermalNetwork()
        network.add_boundary("ambient", ambient_c)
        network.add_node("spreader")
        network.add_node("sink_base")
        network.connect("spreader", "sink_base", SPREADER_RESISTANCE)
        r_conv = self.sink.r_ext + CONV_A / (total_power + CONV_P0)
        network.connect("sink_base", "ambient", r_conv)

        for block in self.floorplan:
            network.connect(
                block.name, "spreader", self._vertical_resistance(block)
            )
            network.inject(block.name, block_power_w.get(block.name, 0.0))

        for i, a in enumerate(self.floorplan):
            for b in self.floorplan[i + 1 :]:
                edge = a.shared_edge_mm(b)
                if edge > 0:
                    network.connect(
                        a.name,
                        b.name,
                        self._lateral_resistance(a, b, edge),
                    )

        temps = network.solve()
        block_temps = {b.name: temps[b.name] for b in self.floorplan}
        return DetailedChipResult(
            block_temperatures_c=block_temps,
            spreader_c=temps["spreader"],
            sink_base_c=temps["sink_base"],
        )

    def solve_uniform(
        self, ambient_c: float, total_power_w: float
    ) -> DetailedChipResult:
        """Solve with power distributed uniformly by block area."""
        if total_power_w < 0:
            raise ThermalModelError(
                f"power must be non-negative, got {total_power_w}"
            )
        area = self.die_area_mm2
        powers = {
            b.name: total_power_w * b.area_mm2 / area for b in self.floorplan
        }
        return self.solve(ambient_c, powers)
