"""Fleet-tensor batched sweep evaluation vs per-point execution.

Measures the three ways to answer a decision-free capacity sweep over
one shared topology (``repro.sim.batched``):

- **per_point_serial** — the historical loop: every point runs the
  ``(n,)`` steady solve on its own.
- **process_pool** — the same per-point work fanned over a fork-based
  process pool, the way :func:`repro.sim.runner.run_sweep` scales the
  *engine* sweeps.  For decision-free math the points are far too
  small to amortise pool startup; the artifact records that honestly.
- **batched_numpy** — all N points stacked into ``(N, n)`` fleet
  tensors and evaluated per kernel call.  Must match the serial path
  **bit for bit** (asserted here) and clear
  ``BENCH_BATCHED_MIN_SPEEDUP`` (default 1.1x; CI smoke drops it to
  parity so shared-runner noise cannot flake the job).

A second leg times the room's call shape: the 8 chassis of the
end-to-end ``room_plan`` room (3 recipes, 4 x 180 and 4 x 60 sockets)
as **one mixed-recipe call**, each point with its own topology, against
**one call per recipe**.  Every row must be bit-identical between the
two, and the mixed call must clear the same floor.

The committed artifact is ``benchmarks/results/backend_sweep.json``.
"""

import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.config.presets import smoke
from repro.fleet.registry import spec_from_catalog
from repro.room.model import _topology_for
from repro.server.catalog import TABLE_I_SYSTEMS
from repro.server.topology import moonshot_sut
from repro.sim.batched import (
    FleetPoint,
    evaluate_fleet,
    evaluate_fleet_serial,
)

from _timing import alternating_best_of, best_of, write_bench_json

#: Required batched-numpy speedup over the per-point serial loop, and
#: of the mixed-recipe call over one call per recipe.
BATCHED_MIN_SPEEDUP = float(
    os.environ.get("BENCH_BATCHED_MIN_SPEEDUP", "1.1")
)

#: Pool rounds (forking is slow; smoke trims this).
POOL_ROUNDS = int(os.environ.get("BENCH_POOL_ROUNDS", "3"))

#: Alternating serial/batched rounds.  A fixed count: stopping once the
#: ratio clears the floor would score each side on its first few
#: samples, and the recorded ratio would swing from run to run.
ALTERNATING_ROUNDS = 20

#: Every tensor of a sweep result.
FIELDS = ("power_w", "ambient_c", "sink_c", "chip_c")

N_ROWS = 3
N_POINTS = 64
POOL_WORKERS = 4

#: The mixed-recipe leg's room: ``room_plan``'s 8 catalog chassis.
ROOM_ROWS = 15
ROOM_CHASSIS = 8

_TOPOLOGY = None
_PARAMS = smoke(seed=0)


def _topology():
    global _TOPOLOGY
    if _TOPOLOGY is None:
        _TOPOLOGY = moonshot_sut(n_rows=N_ROWS)
    return _TOPOLOGY


def _points():
    """A mixed deterministic grid: load x power x inlet."""
    points = []
    for i in range(N_POINTS):
        points.append(
            FleetPoint(
                utilization=(i % 10) / 10.0 + 0.05,
                dyn_max_w=8.0 + 0.25 * (i % 53),
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


def _room_chassis():
    """``room_plan``'s chassis (Table-I degrees cycled), with the
    topologies the room solver shares between chassis of one recipe."""
    by_degree = {}
    for system in TABLE_I_SYSTEMS:
        by_degree.setdefault(system.degree_of_coupling, system)
    cycle = [by_degree[d] for d in sorted(by_degree, reverse=True)]
    topologies = [
        _topology_for(
            spec_from_catalog(cycle[i % len(cycle)], f"r{i}", ROOM_ROWS)
        )
        for i in range(ROOM_CHASSIS)
    ]
    points = [
        FleetPoint(
            utilization=0.3 + 0.08 * i,
            dyn_max_w=15.0,
            inlet_c=20.0 + 0.5 * i,
        )
        for i in range(ROOM_CHASSIS)
    ]
    return topologies, points


def _mixed_recipe_leg():
    """One mixed-recipe call vs one call per recipe, bit for bit."""
    topologies, points = _room_chassis()
    groups = {}
    for k, topology in enumerate(topologies):
        groups.setdefault(topology, []).append(k)

    def _per_recipe():
        fields = [None] * len(points)
        for topology, members in groups.items():
            result = evaluate_fleet(
                topology, _PARAMS, [points[k] for k in members]
            )
            for j, k in enumerate(members):
                fields[k] = result.field(j)
        return fields

    def _mixed():
        result = evaluate_fleet(topologies, _PARAMS, points)
        return [result.field(k) for k in range(len(points))]

    best, results, _ = alternating_best_of(
        {"per_recipe": _per_recipe, "mixed": _mixed},
        rounds_min=ALTERNATING_ROUNDS,
        rounds_max=ALTERNATING_ROUNDS,
    )
    for k, (mixed, alone) in enumerate(
        zip(results["mixed"], results["per_recipe"])
    ):
        for field in FIELDS:
            np.testing.assert_array_equal(
                getattr(mixed, field),
                getattr(alone, field),
                err_msg=f"chassis {k} {field}",
            )
    return {
        "mixed_recipe_points": len(points),
        "mixed_recipe_recipes": len(groups),
        "mixed_recipe_sockets": sum(t.n_sockets for t in topologies),
        "per_recipe_calls_per_s": round(1.0 / best["per_recipe"], 1),
        "mixed_recipe_calls_per_s": round(1.0 / best["mixed"], 1),
        "mixed_recipe_speedup": round(
            best["per_recipe"] / best["mixed"], 3
        ),
    }


def test_batched_sweep_speedup(record_artifact):
    topology = _topology()
    points = _points()

    def _serial():
        return evaluate_fleet_serial(topology, _PARAMS, points)

    def _batched():
        return evaluate_fleet(topology, _PARAMS, points)

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
    mixed = _mixed_recipe_leg()
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
        **mixed,
    }
    line = write_bench_json("backend_sweep.json", payload)
    record_artifact("backend_sweep", line + "\n")

    assert speedup >= BATCHED_MIN_SPEEDUP, (
        f"batched fleet evaluation reached only {speedup:.2f}x over "
        f"the per-point loop (required {BATCHED_MIN_SPEEDUP}x): {line}"
    )
    assert mixed["mixed_recipe_speedup"] >= BATCHED_MIN_SPEEDUP, (
        f"the mixed-recipe call reached only "
        f"{mixed['mixed_recipe_speedup']:.2f}x over one call per recipe "
        f"(required {BATCHED_MIN_SPEEDUP}x): {line}"
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
