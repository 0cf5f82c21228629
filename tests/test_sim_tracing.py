"""Tests for simulation time-series tracing."""

import numpy as np
import pytest

from repro.config.presets import smoke
from repro.core import get_scheduler
from repro.errors import SimulationError
from repro.sim.engine import Simulation
from repro.sim.tracing import SimulationTrace, TraceConfig
from repro.workloads.arrivals import ArrivalProcess
from repro.workloads.benchmark import BenchmarkSet


def run_traced(topology, trace_config, load=0.6):
    params = smoke()
    jobs = ArrivalProcess(
        benchmark_set=BenchmarkSet.COMPUTATION,
        load=load,
        n_sockets=topology.n_sockets,
        seed=0,
        duration_scale=params.duration_scale,
    ).generate(params.sim_time_s)
    return Simulation(
        topology,
        params,
        get_scheduler("CF"),
        trace_config=trace_config,
    ).run(jobs)


class TestTraceConfig:
    def test_invalid_interval_rejected(self):
        with pytest.raises(SimulationError):
            TraceConfig(interval_s=0.0)


class TestTracedRun:
    def test_no_trace_by_default(self, small_sut):
        result = run_traced(small_sut, None)
        assert result.trace is None

    def test_trace_collected(self, small_sut):
        result = run_traced(small_sut, TraceConfig(interval_s=0.05))
        trace = result.trace
        assert trace is not None
        expected = int(3.0 / 0.05)
        assert abs(len(trace) - expected) <= 2

    def test_series_aligned(self, small_sut):
        trace = run_traced(
            small_sut, TraceConfig(interval_s=0.1)
        ).trace
        n = len(trace)
        assert len(trace.utilization) == n
        assert len(trace.max_chip_c) == n
        assert len(trace.total_power_w) == n
        assert len(trace.zone_chip_c) == n

    def test_times_monotone(self, small_sut):
        trace = run_traced(
            small_sut, TraceConfig(interval_s=0.1)
        ).trace
        assert trace.times_s == sorted(trace.times_s)

    def test_physical_ranges(self, small_sut):
        trace = run_traced(
            small_sut, TraceConfig(interval_s=0.1)
        ).trace
        arrays = trace.as_arrays()
        assert ((arrays["utilization"] >= 0) & (
            arrays["utilization"] <= 1
        )).all()
        assert (arrays["max_chip_c"] >= arrays["mean_chip_c"]).all()
        assert (arrays["total_power_w"] > 0).all()

    def test_zone_series_shape(self, small_sut):
        trace = run_traced(
            small_sut, TraceConfig(interval_s=0.1)
        ).trace
        zones = trace.as_arrays()["zone_chip_c"]
        assert zones.shape[1] == small_sut.n_zones

    def test_back_zones_hotter_in_trace(self, small_sut):
        trace = run_traced(
            small_sut, TraceConfig(interval_s=0.1), load=0.8
        ).trace
        zones = trace.as_arrays()["zone_chip_c"]
        late = zones[len(zones) // 2 :]
        assert late[:, -1].mean() > late[:, 0].mean()
