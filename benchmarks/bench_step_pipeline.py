"""Step profiling overhead on the full 180-socket SUT.

Runs the identical 180-socket Moonshot workload through
:class:`repro.sim.engine.Simulation` plain, with the
:class:`~repro.obs.profiler.StepProfiler`, and with telemetry written
to a temporary directory, alternating the three, and reports engine
steps per second for each.  The profiled run must

- produce bit-identical results to the plain one (profiling only reads
  the clock), and
- cost less than 2% wall-clock on an idle machine, relaxable through
  ``BENCH_MAX_PROFILE_OVERHEAD`` for noisy shared CI runners.

What telemetry costs is recorded (``telemetry_overhead``), not gated.

The measurement is written as BENCH JSON: one ``BENCH {...}`` line on
stdout and ``benchmarks/results/profiler_overhead.json`` on disk.
"""

import os
import tempfile

import pytest

from repro.config.presets import smoke
from repro.core import get_scheduler
from repro.server.topology import moonshot_sut
from repro.sim.engine import Simulation
from repro.workloads.arrivals import ArrivalProcess
from repro.workloads.benchmark import BenchmarkSet

from _timing import (
    ADAPTIVE_ROUNDS_MAX,
    ADAPTIVE_ROUNDS_MIN,
    alternating_best_of,
    write_bench_json,
)

#: Maximum tolerated profiling slowdown (fraction).  The chained
#: timestamp scheme costs about one clock read per component hook per
#: step; 0.02 is the observability layer's acceptance target on an
#: idle machine, relaxable for noisy shared CI runners.
MAX_PROFILE_OVERHEAD = float(
    os.environ.get("BENCH_MAX_PROFILE_OVERHEAD", "0.02")
)

SEED = 7
LOAD = 0.6


def _workload():
    topology = moonshot_sut(n_rows=15)
    params = smoke(seed=SEED)
    arrivals = ArrivalProcess(
        benchmark_set=BenchmarkSet.COMPUTATION,
        load=LOAD,
        n_sockets=topology.n_sockets,
        seed=params.seed,
        duration_scale=params.duration_scale,
    )
    jobs = arrivals.generate(params.sim_time_s)
    n_steps = int(round(params.sim_time_s / params.power_manager_interval_s))
    return topology, params, jobs, n_steps


def test_profiling_overhead(record_artifact):
    """StepProfiler must cost < 2% wall-clock on the full 180-socket SUT
    and leave the float trajectory untouched."""
    from repro.sim.fingerprint import result_fingerprint

    topology, params, jobs, n_steps = _workload()

    # Interference spikes (neighbour load, GC) inflate individual runs
    # by 5-15% — an order of magnitude more than the effect under
    # measurement — so means and medians are useless here; only the
    # noise *floor* is stable.  Alternating the variants run by run
    # gives both the same shot at quiet windows, and the best-of ratio
    # then isolates the instrumentation cost.
    def _run(**kwargs):
        sim = Simulation(topology, params, get_scheduler("CF"), **kwargs)
        return sim.run(list(jobs))

    with tempfile.TemporaryDirectory() as telemetry:
        best, results, rounds = alternating_best_of(
            {
                "plain": lambda: _run(),
                "profiled": lambda: _run(profile=True),
                "telemetry": lambda: _run(telemetry=telemetry),
            },
            stop=lambda floors: (
                floors["profiled"] / floors["plain"] - 1.0
                < MAX_PROFILE_OVERHEAD
            ),
            rounds_min=ADAPTIVE_ROUNDS_MIN,
            rounds_max=ADAPTIVE_ROUNDS_MAX,
        )
    overhead = best["profiled"] / best["plain"] - 1.0
    telemetry_overhead = best["telemetry"] / best["plain"] - 1.0
    plain_rate = n_steps / best["plain"]
    profiled_rate = n_steps / best["profiled"]
    telemetry_rate = n_steps / best["telemetry"]
    plain_result = results["plain"]
    profiled_result = results["profiled"]

    # Profiling and telemetry are strictly observational:
    # bit-identical trajectory.
    for observed in ("profiled", "telemetry"):
        assert result_fingerprint(results[observed]) == result_fingerprint(
            plain_result
        )
    profile = profiled_result.profile
    assert profile is not None
    assert profile.n_steps == n_steps

    payload = {
        "benchmark": "profiler_overhead",
        "n_sockets": topology.n_sockets,
        "n_steps": n_steps,
        "scheduler": "CF",
        "load": LOAD,
        "seed": SEED,
        "rounds": rounds,
        "plain_steps_per_s": round(plain_rate, 1),
        "profiled_steps_per_s": round(profiled_rate, 1),
        "telemetry_steps_per_s": round(telemetry_rate, 1),
        "overhead": round(overhead, 4),
        "telemetry_overhead": round(telemetry_overhead, 4),
        "max_overhead": MAX_PROFILE_OVERHEAD,
    }
    line = write_bench_json("profiler_overhead.json", payload)
    print(profile.render())
    record_artifact(
        "profiler_overhead", line + "\n\n" + profile.render() + "\n"
    )

    assert overhead < MAX_PROFILE_OVERHEAD, (
        f"profiling cost {overhead * 100:.2f}% wall-clock "
        f"(allowed {MAX_PROFILE_OVERHEAD * 100:.1f}%): {line}"
    )


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
