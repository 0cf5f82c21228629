"""Time-series tracing of simulation state.

The engine optionally samples aggregate state at a fixed period,
producing a :class:`SimulationTrace` — the raw material for thermal
time-series plots, convergence checks, and debugging scheduler
behaviour (e.g. watching the back half heat up under CF as load rises).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..errors import SimulationError


@dataclass
class TraceConfig:
    """How often to sample.  Every sample records the aggregate series
    and the per-zone mean chip temperatures.

    Attributes:
        interval_s: Sampling period, seconds.
    """

    interval_s: float = 0.1

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise SimulationError("trace interval must be positive")


@dataclass
class SimulationTrace:
    """Sampled time series from one run.

    All lists are aligned: entry ``i`` was sampled at ``times_s[i]``.

    Attributes:
        times_s: Sample timestamps, seconds.
        utilization: Fraction of sockets busy.
        queue_length: Jobs waiting for a socket.
        mean_chip_c: Mean chip temperature, degC.
        max_chip_c: Hottest chip temperature, degC.
        total_power_w: Server power, W.
        mean_rel_frequency: Mean relative frequency of busy sockets
            (nan when everything is idle).
        zone_chip_c: Per-sample list of per-zone mean chip
            temperatures.
    """

    times_s: List[float] = field(default_factory=list)
    utilization: List[float] = field(default_factory=list)
    queue_length: List[int] = field(default_factory=list)
    mean_chip_c: List[float] = field(default_factory=list)
    max_chip_c: List[float] = field(default_factory=list)
    total_power_w: List[float] = field(default_factory=list)
    mean_rel_frequency: List[float] = field(default_factory=list)
    zone_chip_c: List[List[float]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.times_s)

    def reset(self) -> None:
        """Drop every recorded sample, ready for a fresh run.

        The engine's :class:`~repro.sim.pipeline.Tracer` component
        builds a fresh trace per run, but hand-held traces (tests,
        notebooks) can be recycled with this instead of silently
        concatenating samples across runs.
        """
        for series in (
            self.times_s,
            self.utilization,
            self.queue_length,
            self.mean_chip_c,
            self.max_chip_c,
            self.total_power_w,
            self.mean_rel_frequency,
            self.zone_chip_c,
        ):
            series.clear()

    def sample(self, state, queue_length: int, max_mhz: float) -> None:
        """Record one sample from the live engine state."""
        self.times_s.append(state.time_s)
        busy = state.busy
        n = state.n_sockets
        self.utilization.append(float(busy.sum()) / n)
        self.queue_length.append(queue_length)
        chip = state.chip_c
        self.mean_chip_c.append(float(chip.mean()))
        self.max_chip_c.append(float(chip.max()))
        self.total_power_w.append(float(state.power_w.sum()))
        if busy.any():
            self.mean_rel_frequency.append(
                float(state.freq_mhz[busy].mean()) / max_mhz
            )
        else:
            self.mean_rel_frequency.append(float("nan"))

    def sample_zones(self, state) -> None:
        """Record per-zone mean chip temperatures."""
        topology = state.topology
        zones = []
        for zone in range(1, topology.n_zones + 1):
            ids = topology.sockets_in_zone(zone)
            zones.append(float(state.chip_c[ids].mean()))
        self.zone_chip_c.append(zones)

    def as_arrays(self) -> dict:
        """The trace as numpy arrays keyed by series name."""
        out = {
            "times_s": np.asarray(self.times_s),
            "utilization": np.asarray(self.utilization),
            "queue_length": np.asarray(self.queue_length),
            "mean_chip_c": np.asarray(self.mean_chip_c),
            "max_chip_c": np.asarray(self.max_chip_c),
            "total_power_w": np.asarray(self.total_power_w),
            "mean_rel_frequency": np.asarray(self.mean_rel_frequency),
        }
        if self.zone_chip_c:
            out["zone_chip_c"] = np.asarray(self.zone_chip_c)
        return out
