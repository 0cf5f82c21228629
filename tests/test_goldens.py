"""Golden-trace regression tests for the end-to-end simulation.

Each golden fixture pins the key metrics of one small fixed-seed
simulation (an 8-socket topology over a short horizon) for one
scheduler.  The tolerances are tight: any change to the physics, the
power manager, the workload generator or a policy that silently shifts
results fails these tests loudly, and an intentional model change must
regenerate the fixtures and justify the diff in review.

Regenerate after an intentional change with::

    PYTHONPATH=src python tests/test_goldens.py

which rewrites every JSON fixture under ``tests/goldens/``.
"""

import json
import os
from unittest import mock

import pytest

from repro.config.presets import smoke
from repro.core import get_scheduler
from repro.server.topology import ServerTopology
from repro.sim import invariants
from repro.sim.invariants import InvariantAuditor
from repro.sim.runner import run_once
from repro.workloads.benchmark import BenchmarkSet

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")

#: Schedulers pinned by a golden fixture.
GOLDEN_SCHEDULERS = ("CF", "Balanced", "CP")

#: Fixed scenario shared by every fixture.
GOLDEN_SEED = 11
GOLDEN_LOAD = 0.6
GOLDEN_SET = BenchmarkSet.COMPUTATION

#: Relative tolerance on float metrics.  The run is deterministic, so
#: this only needs to absorb cross-platform libm/BLAS noise.
REL_TOL = 1e-9


def golden_topology() -> ServerTopology:
    """An 8-socket SUT: 2 rows x 2 lanes x 2 chain positions."""
    return ServerTopology(
        n_rows=2,
        lanes_per_row=2,
        chain_length=2,
        sockets_per_cartridge_depth=2,
    )


def golden_params():
    """Short fixed-seed horizon (smoke preset)."""
    return smoke(seed=GOLDEN_SEED)


def compute_metrics(scheduler_name: str) -> dict:
    """Run the golden scenario for one scheduler; extract key metrics.

    The run executes under the invariant auditor, every 25 steps, so a
    golden run also certifies a violation-free trajectory.
    """
    with mock.patch.object(invariants, "AUDIT_INTERVAL_STEPS", 25):
        result = run_once(
            golden_topology(),
            golden_params(),
            get_scheduler(scheduler_name),
            GOLDEN_SET,
            GOLDEN_LOAD,
            auditor=InvariantAuditor(),
        )
    return {
        "scheduler": scheduler_name,
        "n_jobs_submitted": result.n_jobs_submitted,
        "n_jobs_completed": result.n_jobs_completed,
        "energy_j": result.energy_j,
        "mean_relative_frequency": result.average_relative_frequency(),
        "mean_runtime_expansion": result.mean_runtime_expansion,
        "max_chip_c": float(result.max_chip_c.max()),
    }


def fixture_path(scheduler_name: str) -> str:
    return os.path.join(
        GOLDEN_DIR, f"{scheduler_name.lower()}.json"
    )


@pytest.mark.parametrize("scheduler_name", GOLDEN_SCHEDULERS)
def test_golden_metrics(scheduler_name):
    with open(fixture_path(scheduler_name)) as handle:
        expected = json.load(handle)
    actual = compute_metrics(scheduler_name)
    assert actual.keys() == expected.keys()
    assert actual["scheduler"] == expected["scheduler"]
    assert actual["n_jobs_submitted"] == expected["n_jobs_submitted"]
    assert actual["n_jobs_completed"] == expected["n_jobs_completed"]
    for key in (
        "energy_j",
        "mean_relative_frequency",
        "mean_runtime_expansion",
        "max_chip_c",
    ):
        assert actual[key] == pytest.approx(
            expected[key], rel=REL_TOL
        ), key


def test_goldens_distinguish_schedulers():
    """The scenario is sensitive enough that policies differ — a
    fixture mix-up cannot pass silently."""
    energies = set()
    for scheduler_name in GOLDEN_SCHEDULERS:
        with open(fixture_path(scheduler_name)) as handle:
            energies.add(json.load(handle)["energy_j"])
    assert len(energies) == len(GOLDEN_SCHEDULERS)


def regenerate() -> None:
    """Rewrite every golden fixture from the current model."""
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for scheduler_name in GOLDEN_SCHEDULERS:
        metrics = compute_metrics(scheduler_name)
        path = fixture_path(scheduler_name)
        with open(path, "w") as handle:
            json.dump(metrics, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    regenerate()
