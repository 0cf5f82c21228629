"""Scheduler-kernel and thermal-solver speedups vs. the scalar paths.

Three measurements, each against a reference implementation:
bench-local copies of the per-candidate loops CouplingPredictor and
Coolest Neighbors used to score sockets, and
``DetailedChipModel.solve_via_network``:

- **placement_e2e** — a placement-heavy 180-socket Moonshot run under
  full-search CouplingPredictor (``row_restricted=False``: every idle
  socket scored per decision, the policy's worst case).  CP's one-pass
  pool scoring (:func:`~repro.core.prediction.predict_job_placement`
  plus the padded downwind tables of
  :class:`~repro.core.kernels.PlacementKernel`) must reproduce the
  loop's trajectory bit for bit and clear ``BENCH_KERNEL_MIN_SPEEDUP``
  (default 1.5x; the committed artifact shows ~14x).
- **neighbors_e2e** — the same run under Coolest Neighbors.  Its
  one-array-pass scoring must reproduce the loop's trajectory bit for
  bit and clear the same ``BENCH_KERNEL_MIN_SPEEDUP``.
- **detailed_solver** — the repeated detailed-chip-model solve pattern
  of the Fig. 9/10 sweeps (two sinks x 19 power levels x 3 ambients).
  The factorization-cached fast path must match the rebuilt-network
  reference bit for bit and clear ``BENCH_SOLVER_MIN_SPEEDUP``
  (default 3x).

All results land in one committed artifact,
``benchmarks/results/scheduler_kernels.json``.  Running the module
directly with ``--smoke`` (the CI perf-regression job) lowers every
threshold to 1.0 — any regression below parity fails, with no flaky
absolute-time bars — and trims the best-of rounds for runner time.
"""

import os
import sys

import numpy as np
import pytest

from repro.config.presets import smoke
from repro.core.coupling_predictor import CouplingPredictor
from repro.core.neighbors import CoolestNeighbors, _build_neighbor_lists
from repro.core.prediction import (
    predict_downwind_slowdown,
    predict_job_frequency,
    predicted_job_power,
)
from repro.core.predictive import SINK_TIEBREAK_WEIGHT
from repro.server.topology import moonshot_sut
from repro.sim.engine import Simulation
from repro.sim.fingerprint import result_fingerprint
from repro.thermal.detailed_model import DetailedChipModel
from repro.thermal.heatsink import FIN_18, FIN_30
from repro.workloads.arrivals import ArrivalProcess
from repro.workloads.benchmark import BenchmarkSet

from _timing import ROUNDS, best_of, write_bench_json

#: Required kernel-vs-scalar end-to-end speedup of both placement legs.
#: The committed artifact shows ~14x (CP) and ~4x (CN) on an idle
#: machine; 1.5x is the acceptance floor, and the CI smoke overrides
#: with 1.0 (regression-only guard).
KERNEL_MIN_SPEEDUP = float(
    os.environ.get("BENCH_KERNEL_MIN_SPEEDUP", "1.5")
)

#: Required fast-vs-network solver speedup on the repeated-solve grid.
SOLVER_MIN_SPEEDUP = float(
    os.environ.get("BENCH_SOLVER_MIN_SPEEDUP", "3.0")
)

#: Best-of rounds (the scalar baseline is slow; smoke trims this).
KERNEL_ROUNDS = int(os.environ.get("BENCH_KERNEL_ROUNDS", str(ROUNDS)))

SEED = 7
LOAD = 0.8


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


class _ScalarCP(CouplingPredictor):
    """CouplingPredictor scoring one candidate at a time (reference)."""

    def select_socket(self, job, idle_ids, view):
        self._require_candidates(idle_ids)
        candidates = self._candidate_pool(idle_ids, view)
        freq = predict_job_frequency(view, candidates, job)
        scores = np.empty(candidates.shape, dtype=float)
        topology = view.topology
        for i, (socket, f_mhz) in enumerate(zip(candidates, freq)):
            socket = int(socket)
            power = predicted_job_power(view, socket, job, float(f_mhz))
            slowdown = 0.0
            if self.coupling_aware:
                slowdown = predict_downwind_slowdown(view, socket, power)
            sink_ss = (
                view.ambient_c[socket]
                + power * topology.r_ext_array[socket]
            )
            scores[i] = (
                float(f_mhz)
                - slowdown
                - SINK_TIEBREAK_WEIGHT
                * (sink_ss + float(view.sink_c[socket]))
            )
        return int(candidates[int(np.argmax(scores))])


def test_placement_kernel_speedup(record_artifact):
    topology, params, jobs, n_steps = _workload()

    def _run(policy_cls):
        sim = Simulation(
            topology, params, policy_cls(row_restricted=False)
        )
        return sim.run(list(jobs))

    kernel_s, kernel_result = best_of(
        lambda: _run(CouplingPredictor), rounds=KERNEL_ROUNDS
    )
    scalar_s, scalar_result = best_of(
        lambda: _run(_ScalarCP), rounds=KERNEL_ROUNDS
    )

    # The kernel's contract: the exact scalar trajectory, faster.
    assert result_fingerprint(kernel_result) == result_fingerprint(
        scalar_result
    )

    speedup = scalar_s / kernel_s
    payload = {
        "benchmark": "placement_kernel",
        "n_sockets": topology.n_sockets,
        "n_steps": n_steps,
        "scheduler": "CP(row_restricted=False)",
        "load": LOAD,
        "seed": SEED,
        "rounds": KERNEL_ROUNDS,
        "scalar_steps_per_s": round(n_steps / scalar_s, 1),
        "kernel_steps_per_s": round(n_steps / kernel_s, 1),
        "speedup": round(speedup, 3),
        "min_speedup": KERNEL_MIN_SPEEDUP,
    }
    line = write_bench_json(
        "scheduler_kernels.json", {"placement_e2e": payload}, merge=True
    )
    record_artifact("placement_kernel", line + "\n")

    assert speedup >= KERNEL_MIN_SPEEDUP, (
        f"placement kernel reached only {speedup:.2f}x over the scalar "
        f"path (required {KERNEL_MIN_SPEEDUP}x): {line}"
    )


class _LoopCN(CoolestNeighbors):
    """Coolest Neighbors scoring one idle socket at a time (reference)."""

    def reset(self, view, rng):
        super().reset(view, rng)
        self._neighbors = _build_neighbor_lists(view.topology)

    def select_socket(self, job, idle_ids, view):
        self._require_candidates(idle_ids)
        chip = view.chip_c
        best_socket = int(idle_ids[0])
        best_score = np.inf
        for socket_id in idle_ids:
            neighbor_ids = self._neighbors[socket_id]
            if neighbor_ids.size:
                neighbor_term = float(chip[neighbor_ids].mean())
            else:
                neighbor_term = float(chip[socket_id])
            score = 0.5 * float(chip[socket_id]) + 0.5 * neighbor_term
            if score < best_score:
                best_score = score
                best_socket = int(socket_id)
        return best_socket


def test_neighbors_speedup(record_artifact):
    topology, params, jobs, n_steps = _workload()

    def _run(policy_cls):
        return Simulation(topology, params, policy_cls()).run(list(jobs))

    array_s, array_result = best_of(
        lambda: _run(CoolestNeighbors), rounds=KERNEL_ROUNDS
    )
    loop_s, loop_result = best_of(
        lambda: _run(_LoopCN), rounds=KERNEL_ROUNDS
    )

    # Every decision of the loop, faster.
    assert result_fingerprint(array_result) == result_fingerprint(
        loop_result
    )

    speedup = loop_s / array_s
    payload = {
        "benchmark": "neighbors_kernel",
        "n_sockets": topology.n_sockets,
        "n_steps": n_steps,
        "scheduler": "CN",
        "load": LOAD,
        "seed": SEED,
        "rounds": KERNEL_ROUNDS,
        "scalar_steps_per_s": round(n_steps / loop_s, 1),
        "kernel_steps_per_s": round(n_steps / array_s, 1),
        "speedup": round(speedup, 3),
        "min_speedup": KERNEL_MIN_SPEEDUP,
    }
    line = write_bench_json(
        "scheduler_kernels.json", {"neighbors_e2e": payload}, merge=True
    )
    record_artifact("neighbors_kernel", line + "\n")

    assert speedup >= KERNEL_MIN_SPEEDUP, (
        f"Coolest Neighbors array pass reached only {speedup:.2f}x over "
        f"the per-candidate loop (required {KERNEL_MIN_SPEEDUP}x): {line}"
    )


#: The Fig. 9/10-style repeated-solve grid: per-block power splits at
#: 19 total-power levels, three ambients, both sink variants.
_POWER_SPLIT = {
    "core0": 0.10,
    "core1": 0.10,
    "core2": 0.10,
    "core3": 0.10,
    "l2": 0.10,
    "gpu": 0.40,
    "uncore": 0.06,
    "io": 0.04,
}
_POWERS_W = [4.0 + 0.5 * i for i in range(19)]
_AMBIENTS_C = [25.0, 32.0, 38.5]


def _solve_grid(solver):
    results = []
    for power in _POWERS_W:
        block_power = {
            name: power * frac for name, frac in _POWER_SPLIT.items()
        }
        for ambient in _AMBIENTS_C:
            result = solver(ambient, block_power)
            results.append(
                (
                    result.spreader_c,
                    result.sink_base_c,
                    tuple(sorted(result.block_temperatures_c.items())),
                )
            )
    return results


def test_detailed_solver_speedup(record_artifact):
    models = [DetailedChipModel(sink) for sink in (FIN_18, FIN_30)]

    def _fast():
        return [_solve_grid(model.solve) for model in models]

    def _reference():
        return [
            _solve_grid(model.solve_via_network) for model in models
        ]

    fast_s, fast_results = best_of(_fast)
    ref_s, ref_results = best_of(_reference)

    # Bit-identical temperatures, path for path.
    assert fast_results == ref_results

    n_solves = len(models) * len(_POWERS_W) * len(_AMBIENTS_C)
    speedup = ref_s / fast_s
    payload = {
        "benchmark": "detailed_solver",
        "n_solves": n_solves,
        "rounds": ROUNDS,
        "reference_solves_per_s": round(n_solves / ref_s, 1),
        "fast_solves_per_s": round(n_solves / fast_s, 1),
        "speedup": round(speedup, 3),
        "min_speedup": SOLVER_MIN_SPEEDUP,
    }
    line = write_bench_json(
        "scheduler_kernels.json", {"detailed_solver": payload}, merge=True
    )
    record_artifact("detailed_solver", line + "\n")

    assert speedup >= SOLVER_MIN_SPEEDUP, (
        f"factorization-cached solver reached only {speedup:.2f}x over "
        f"the rebuilt-network path (required {SOLVER_MIN_SPEEDUP}x): "
        f"{line}"
    )


if __name__ == "__main__":
    argv = sys.argv[1:]
    if "--smoke" in argv:
        # CI perf-regression smoke: guard against the kernels slipping
        # below parity with their scalar baselines, without flaky
        # absolute thresholds, and with fewer rounds of the slow
        # scalar baseline.
        argv.remove("--smoke")
        os.environ.setdefault("BENCH_KERNEL_MIN_SPEEDUP", "1.0")
        os.environ.setdefault("BENCH_SOLVER_MIN_SPEEDUP", "1.0")
        os.environ.setdefault("BENCH_KERNEL_ROUNDS", "2")
    sys.exit(pytest.main([__file__, "-v", "-s"] + argv))
