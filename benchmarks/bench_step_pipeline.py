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

The overhead is the median over rounds of each round's profiled/plain
time ratio: the runs of a round are made back to back, so a host-speed
drift that lasts longer than a round cancels, where two best-of floors
can come from different host-speed periods.  The best-of ratio is
printed and recorded beside it (``overhead_best_of``), not gated.
What telemetry costs is recorded (``telemetry_overhead``, the same
median ratio), not gated.

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
    alternating_rounds,
    median_ratio,
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
    # measurement — and the host's speed drifts between periods.
    # Alternating the variants run by run and taking each round's
    # ratio pairs runs made back to back; the median over rounds then
    # drops the rounds a spike hit.
    def _run(**kwargs):
        sim = Simulation(topology, params, get_scheduler("CF"), **kwargs)
        return sim.run(list(jobs))

    with tempfile.TemporaryDirectory() as telemetry:
        times, results, rounds = alternating_rounds(
            {
                "plain": lambda: _run(),
                "profiled": lambda: _run(profile=True),
                "telemetry": lambda: _run(telemetry=telemetry),
            },
            stop=lambda times: (
                median_ratio(times, "profiled", "plain") - 1.0
                < MAX_PROFILE_OVERHEAD
            ),
            rounds_min=ADAPTIVE_ROUNDS_MIN,
            rounds_max=ADAPTIVE_ROUNDS_MAX,
        )
    best = {name: min(values) for name, values in times.items()}
    overhead = median_ratio(times, "profiled", "plain") - 1.0
    overhead_best_of = best["profiled"] / best["plain"] - 1.0
    telemetry_overhead = median_ratio(times, "telemetry", "plain") - 1.0
    print(
        f"profiling overhead: median of per-round ratios "
        f"{overhead * 100:+.2f}%, best-of ratio "
        f"{overhead_best_of * 100:+.2f}% ({rounds} rounds)"
    )
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
        "overhead_best_of": round(overhead_best_of, 4),
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
