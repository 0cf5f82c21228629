"""Benchmark the parallel sweep executor against the serial path.

Times :func:`repro.sim.runner.run_sweep` on one 8-point scheduler x
load grid in four modes: the classic serial loop, process pools of 2
and 4 workers, and a re-run answered from a warm memo cache.  Each
mode scores its best of ``ROUNDS`` wall-clock runs.  A pool can beat
the serial loop only up to the cores it gets, so the artifact records
``os.cpu_count()`` beside the times.  The pooled runs must agree with
the serial run bit for bit (the executor's core contract), and the
cached re-run must do no simulation work at all.

The committed artifact is ``benchmarks/results/parallel_sweep.json``.
"""

import os

from repro.config.presets import smoke
from repro.server.topology import moonshot_sut
from repro.sim.fingerprint import result_fingerprint
from repro.sim.parallel import SweepCache
from repro.sim.runner import run_sweep
from repro.workloads.benchmark import BenchmarkSet

from _timing import best_of, write_bench_json

GRID = dict(
    scheduler_names=("CF", "HF", "Predictive", "CP"),
    benchmark_sets=(BenchmarkSet.COMPUTATION,),
    loads=(0.3, 0.7),
)

#: Wall-clock runs per mode; the fastest is scored.
ROUNDS = 3

#: Process counts timed against the serial loop.
POOL_WORKERS = (2, 4)


def _measure(topology):
    """Best-of-``ROUNDS`` seconds and the last results of every mode."""
    params = smoke(seed=1)

    def sweep(**kwargs):
        return best_of(
            lambda: run_sweep(topology, params, **GRID, **kwargs),
            rounds=ROUNDS,
        )

    timings, results = {}, {}
    timings["serial"], results["serial"] = sweep()
    for workers in POOL_WORKERS:
        label = f"workers{workers}"
        timings[label], results[label] = sweep(max_workers=workers)
    cache = SweepCache()
    run_sweep(topology, params, **GRID, cache=cache)
    timings["cached"], _ = sweep(cache=cache)
    assert cache.hits == ROUNDS * len(results["serial"])
    return timings, results


def test_sweep_serial_pooled_and_cached(benchmark, record_artifact):
    topology = moonshot_sut(n_rows=2)
    timings, results = benchmark.pedantic(
        _measure, args=(topology,), rounds=1, iterations=1
    )
    serial = results["serial"]
    for workers in POOL_WORKERS:
        pooled = results[f"workers{workers}"]
        assert [result_fingerprint(r) for r in pooled.values()] == [
            result_fingerprint(r) for r in serial.values()
        ]
    points = [
        f"{name:12s} {benchmark_set.value:12s} load={load:.1f} "
        f"energy={result.energy_j:.3f}J "
        f"completed={result.n_jobs_completed}"
        for (name, benchmark_set, load), result in serial.items()
    ]
    payload = {
        "benchmark": "parallel_sweep",
        "cpu_count": os.cpu_count(),
        "n_points": len(serial),
        "n_sockets": topology.n_sockets,
        "rounds": ROUNDS,
        "serial_s": round(timings["serial"], 3),
        "cached_s": round(timings["cached"], 6),
        "points": points,
    }
    for workers in POOL_WORKERS:
        payload[f"workers{workers}_s"] = round(
            timings[f"workers{workers}"], 3
        )
    line = write_bench_json("parallel_sweep.json", payload)
    record_artifact("parallel_sweep", "\n".join(points) + "\n" + line + "\n")
