"""Bit-identity oracle for the vectorised placement/solver kernels.

PR 5 replaced the predictive policies' per-candidate Python scoring
loop with the batched :class:`~repro.core.kernels.PlacementKernel`
(plus the batched :func:`~repro.core.prediction.predict_job_powers`)
and gave the detailed chip model a factorization-cached fast solve
path.  Every one of those kernels keeps its scalar reference
implementation in-tree (``use_kernel=False``,
``DetailedChipModel.solve_via_network``), and this suite pins the
cardinal contract: kernel and reference produce the *same bits*.

The run-level oracle spans 19 (policy configuration, benchmark set,
load) combinations — both predictive policies, full-search and
row-restricted CP, the coupling-ablated CP, all benchmark sets, and
the load extremes — comparing full content fingerprints.  Below that,
function-level probes assert equality inside live scheduling decisions
(batched powers, batched downwind losses against a cold *and* a warm
per-step frequency cache).

The run-level oracle is also pinned to a committed golden,
``goldens/kernel_oracle.json``: each configuration's kernel-path
fingerprint and its sweep ``config_key``.  The golden is the proof
that a refactor of the engine's numerics changes no answer and no
cache key.  Regenerate it after an intentional model change with::

    PYTHONPATH=src python tests/test_kernel_identity.py
"""

import json
import os

import numpy as np
import pytest

from repro.config.presets import smoke
from repro.core.coupling_predictor import CouplingPredictor
from repro.core.kernels import PlacementKernel
from repro.core.prediction import (
    predict_downwind_slowdown,
    predict_job_frequency,
    predict_job_powers,
    predicted_job_power,
)
from repro.core.predictive import Predictive
from repro.sim.engine import Simulation
from repro.sim.fingerprint import result_fingerprint
from repro.sim.parallel import config_key
from repro.sim.runner import run_once
from repro.workloads.arrivals import ArrivalProcess
from repro.workloads.benchmark import BenchmarkSet

COMPUTATION = BenchmarkSet.COMPUTATION
GENERAL = BenchmarkSet.GENERAL_PURPOSE
STORAGE = BenchmarkSet.STORAGE

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "goldens", "kernel_oracle.json"
)

#: Fixed scenario of every oracle run.
ORACLE_SEED = 4


def _oracle_configs():
    """The 19 (policy kwargs, benchmark set, load) configurations.

    Default CP over every set and three loads, full-search CP and the
    coupling ablation over the load range, and Predictive across sets
    and extremes — every kernel code path under every workload mix.
    """
    configs = []
    for benchmark_set in (COMPUTATION, GENERAL, STORAGE):
        for load in (0.3, 0.5, 0.9):
            configs.append(("CP", {}, benchmark_set, load))
    for load in (0.3, 0.5, 0.9):
        configs.append(
            ("CP", {"row_restricted": False}, COMPUTATION, load)
        )
    for load in (0.3, 0.9):
        configs.append(
            ("CP", {"coupling_aware": False}, COMPUTATION, load)
        )
    for benchmark_set in (COMPUTATION, GENERAL, STORAGE):
        configs.append(("Predictive", {}, benchmark_set, 0.5))
    for load in (0.3, 0.9):
        configs.append(("Predictive", {}, COMPUTATION, load))
    return configs


def _make_policy(policy, kwargs, use_kernel):
    cls = {"CP": CouplingPredictor, "Predictive": Predictive}[policy]
    return cls(use_kernel=use_kernel, **kwargs)


def _oracle_id(value):
    return getattr(value, "value", str(value).replace(" ", ""))


def _golden_name(policy, kwargs, benchmark_set, load):
    """The golden's entry name; equal to the test's parametrize id."""
    return "-".join(
        _oracle_id(value) for value in (policy, kwargs, benchmark_set, load)
    )


def _oracle_entry(topology, policy, kwargs, benchmark_set, load, result):
    """The golden record of one kernel-path oracle run.

    The ``config_key`` names the variant by its golden name, since the
    CP variants share the registry name ``"CP"``.
    """
    name = _golden_name(policy, kwargs, benchmark_set, load)
    return {
        "fingerprint": result_fingerprint(result),
        "config_key": config_key(
            topology, smoke(seed=ORACLE_SEED), name, benchmark_set, load
        ),
    }


def _load_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def test_oracle_covers_nineteen_configs():
    assert len(_oracle_configs()) == 19
    assert sorted(_load_golden()) == sorted(
        _golden_name(*config) for config in _oracle_configs()
    )


@pytest.mark.parametrize(
    "policy,kwargs,benchmark_set,load",
    _oracle_configs(),
    ids=_oracle_id,
)
def test_kernel_runs_are_bit_identical(
    small_sut, policy, kwargs, benchmark_set, load
):
    params = smoke(seed=ORACLE_SEED)
    kernel = run_once(
        small_sut,
        params,
        _make_policy(policy, kwargs, use_kernel=True),
        benchmark_set,
        load,
    )
    scalar = run_once(
        small_sut,
        params,
        _make_policy(policy, kwargs, use_kernel=False),
        benchmark_set,
        load,
    )
    assert result_fingerprint(kernel) == result_fingerprint(scalar)
    golden = _load_golden()[_golden_name(policy, kwargs, benchmark_set, load)]
    assert _oracle_entry(
        small_sut, policy, kwargs, benchmark_set, load, kernel
    ) == golden


class _ProbingCP(CouplingPredictor):
    """CP that cross-checks every kernel against its scalar twin inside
    live decisions (real views, real temperatures, mid-drain busy
    flips) before delegating to the normal kernel path."""

    def __init__(self):
        super().__init__(row_restricted=False, use_kernel=True)
        self.decisions = 0
        self.pairs_checked = 0

    def select_socket(self, job, idle_ids, view):
        candidates = idle_ids
        freq = predict_job_frequency(view, candidates, job)
        powers = predict_job_powers(view, candidates, job, freq)
        scalar_powers = np.array(
            [
                predicted_job_power(view, int(s), job, float(f))
                for s, f in zip(candidates, freq)
            ]
        )
        assert powers.tobytes() == scalar_powers.tobytes()

        # A cold kernel (empty frequency cache) every decision...
        cold = PlacementKernel(view.topology)
        cold_losses = cold.downwind_losses(view, candidates, powers)
        scalar_losses = np.array(
            [
                predict_downwind_slowdown(view, int(s), float(p))
                for s, p in zip(candidates, powers)
            ]
        )
        assert cold_losses.tobytes() == scalar_losses.tobytes()
        self.decisions += 1
        self.pairs_checked += candidates.size
        # ...and the policy's own warm kernel (per-step cache reused
        # across the drain) via the normal path; the run-level oracle
        # pins that its choices match the scalar policy's.
        return super().select_socket(job, idle_ids, view)


def test_kernels_match_scalars_inside_live_decisions(small_sut):
    params = smoke(seed=11)
    probe = _ProbingCP()
    arrivals = ArrivalProcess(
        benchmark_set=COMPUTATION,
        load=0.7,
        n_sockets=small_sut.n_sockets,
        seed=params.seed,
        duration_scale=params.duration_scale,
    )
    jobs = arrivals.generate(params.sim_time_s)
    Simulation(small_sut, params, probe).run(jobs)
    assert probe.decisions > 10
    assert probe.pairs_checked > probe.decisions


def test_kernel_survives_engine_reuse(small_sut):
    """One Simulation instance re-run twice: the per-step frequency
    cache must be invalidated by reset(), keeping run 2 identical to a
    fresh scheduler's run."""
    params = smoke(seed=4)

    def _jobs():
        arrivals = ArrivalProcess(
            benchmark_set=COMPUTATION,
            load=0.6,
            n_sockets=small_sut.n_sockets,
            seed=params.seed,
            duration_scale=params.duration_scale,
        )
        return arrivals.generate(params.sim_time_s)

    sim = Simulation(
        small_sut, params, CouplingPredictor(row_restricted=False)
    )
    first = sim.run(_jobs())
    second = sim.run(_jobs())
    fresh = Simulation(
        small_sut, params, CouplingPredictor(row_restricted=False)
    ).run(_jobs())
    assert result_fingerprint(first) == result_fingerprint(fresh)
    assert result_fingerprint(second) == result_fingerprint(fresh)


def _regenerate():
    """Rewrite ``goldens/kernel_oracle.json`` from the kernel path."""
    from repro.server.topology import moonshot_sut

    topology = moonshot_sut(n_rows=2)
    golden = {}
    for policy, kwargs, benchmark_set, load in _oracle_configs():
        result = run_once(
            topology,
            smoke(seed=ORACLE_SEED),
            _make_policy(policy, kwargs, use_kernel=True),
            benchmark_set,
            load,
        )
        golden[_golden_name(policy, kwargs, benchmark_set, load)] = (
            _oracle_entry(
                topology, policy, kwargs, benchmark_set, load, result
            )
        )
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} entries to {GOLDEN_PATH}")


if __name__ == "__main__":
    _regenerate()
