"""Fleet-tensor batched sweep evaluation vs per-point execution.

Measures the three ways to answer a decision-free capacity sweep over
one shared topology (``repro.sim.batched``):

- **per_point_serial** — the historical loop: every point runs the
  ``(n,)`` steady solve and DVFS selection on its own.
- **process_pool** — the same per-point work fanned over a fork-based
  process pool, the way :func:`repro.sim.runner.run_sweep` scales the
  *engine* sweeps.  For decision-free math the points are far too
  small to amortise pool startup; the artifact records that honestly.
- **batched_numpy** — all N points stacked into ``(N, n)`` fleet
  tensors and evaluated per kernel call.  Must match the serial path
  **bit for bit** (asserted here) and clear
  ``BENCH_BATCHED_MIN_SPEEDUP`` (default 1.1x; CI smoke drops it to
  parity so shared-runner noise cannot flake the job).

The committed artifact is ``benchmarks/results/backend_sweep.json``.
"""

import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.config.presets import smoke
from repro.server.topology import moonshot_sut
from repro.sim.batched import (
    FleetPoint,
    evaluate_fleet,
    evaluate_fleet_serial,
)

from _timing import alternating_best_of, best_of, write_bench_json

#: Required batched-numpy speedup over the per-point serial loop.
BATCHED_MIN_SPEEDUP = float(
    os.environ.get("BENCH_BATCHED_MIN_SPEEDUP", "1.1")
)

#: Pool rounds (forking is slow; smoke trims this).
POOL_ROUNDS = int(os.environ.get("BENCH_POOL_ROUNDS", "3"))

#: Alternating serial/batched rounds.  A fixed count: stopping once the
#: ratio clears the floor would score each side on its first few
#: samples, and the recorded ratio would swing from run to run.
ALTERNATING_ROUNDS = 20

#: Every tensor of a sweep result; the timed batched call reads them all.
FIELDS = ("power_w", "ambient_c", "sink_c", "chip_c", "freq_mhz")

N_ROWS = 3
N_POINTS = 64
POOL_WORKERS = 4

_TOPOLOGY = None
_PARAMS = smoke(seed=0)


def _topology():
    global _TOPOLOGY
    if _TOPOLOGY is None:
        _TOPOLOGY = moonshot_sut(n_rows=N_ROWS)
    return _TOPOLOGY


def _points():
    """A mixed deterministic grid: load x power x exponent x inlet."""
    points = []
    for i in range(N_POINTS):
        points.append(
            FleetPoint(
                utilization=(i % 10) / 10.0 + 0.05,
                dyn_max_w=8.0 + 0.25 * (i % 53),
                dyn_exp=1.8 + 0.05 * (i % 9),
                inlet_c=None if i % 3 else 18.0 + (i % 7),
            )
        )
    return points


def _pool_chunk(chunk):
    """One worker's share of the per-point sweep (fork boundary)."""
    return evaluate_fleet_serial(_topology(), _PARAMS, chunk)


def _run_pool(points):
    chunks = [points[i::POOL_WORKERS] for i in range(POOL_WORKERS)]
    with ProcessPoolExecutor(max_workers=POOL_WORKERS) as pool:
        return list(pool.map(_pool_chunk, chunks))


def test_batched_sweep_speedup(record_artifact):
    topology = _topology()
    points = _points()

    def _serial():
        return evaluate_fleet_serial(topology, _PARAMS, points)

    def _batched():
        result = evaluate_fleet(topology, _PARAMS, points)
        # The DVFS selection is deferred to the first read; reading
        # every field keeps it inside the timing.
        for field in FIELDS:
            getattr(result, field)
        return result

    best, results, rounds = alternating_best_of(
        {"serial": _serial, "batched": _batched},
        rounds_min=ALTERNATING_ROUNDS,
        rounds_max=ALTERNATING_ROUNDS,
    )
    serial_s, batched_s = best["serial"], best["batched"]

    # The batched evaluator's core contract: same bits as per-point.
    for field in FIELDS:
        np.testing.assert_array_equal(
            getattr(results["batched"], field),
            getattr(results["serial"], field),
            err_msg=field,
        )

    pool_s = None
    try:
        pool_s, pool_chunks = best_of(
            lambda: _run_pool(points), rounds=POOL_ROUNDS
        )
        stacked = np.concatenate(
            [chunk.chip_c for chunk in pool_chunks]
        )
        assert stacked.shape == results["serial"].chip_c.shape
    except OSError:
        pool_s = None  # sandboxed: no subprocesses

    speedup = serial_s / batched_s
    payload = {
        "benchmark": "backend_sweep",
        "n_points": N_POINTS,
        "n_sockets": topology.n_sockets,
        "rounds": rounds,
        "serial_points_per_s": round(N_POINTS / serial_s, 1),
        "batched_numpy_points_per_s": round(N_POINTS / batched_s, 1),
        "process_pool_points_per_s": (
            None if pool_s is None else round(N_POINTS / pool_s, 1)
        ),
        "pool_workers": POOL_WORKERS,
        "batched_numpy_speedup": round(speedup, 3),
        "pool_speedup": (
            None if pool_s is None else round(serial_s / pool_s, 3)
        ),
        "min_speedup": BATCHED_MIN_SPEEDUP,
    }
    line = write_bench_json("backend_sweep.json", payload)
    record_artifact("backend_sweep", line + "\n")

    assert speedup >= BATCHED_MIN_SPEEDUP, (
        f"batched fleet evaluation reached only {speedup:.2f}x over "
        f"the per-point loop (required {BATCHED_MIN_SPEEDUP}x): {line}"
    )


if __name__ == "__main__":
    argv = sys.argv[1:]
    if "--smoke" in argv:
        # CI perf-regression smoke: parity-only floor, fewer pool
        # rounds — no absolute-time bars to flake on shared runners.
        argv.remove("--smoke")
        os.environ.setdefault("BENCH_BATCHED_MIN_SPEEDUP", "1.0")
        os.environ.setdefault("BENCH_POOL_ROUNDS", "1")
    sys.exit(pytest.main([__file__, "-v", "-s"] + argv))
