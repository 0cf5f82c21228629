"""Golden-fixture regression tests for the room layer.

Two fixtures pin the room model end to end:

- ``goldens/room_curve.json`` — the sustainable-load curve of a fixed
  3-chassis mixed room across five CRAC setpoints (the room-level
  analogue of the chassis derating curve), plus the placement
  comparison at the reference setpoint.
- ``goldens/room_mixed_fleet.json`` — one converged mixed-fleet
  equilibrium: inlets, exhausts, per-chassis hottest chips, iteration
  count and the solution's bit-exact fingerprint.

Plus the fingerprint oracle the PR's acceptance criteria name: a
1-chassis zero-recirculation room is **bit-identical** to the
chassis-only :func:`~repro.sim.steady_state.solve_steady_state` — the
room layer adds exactly nothing when there is no room.  And the bytes
of ``repro room --seed 0``'s ``room.jsonl`` and JSON artifact are
pinned by sha256, so they hold from one commit to the next.

Regenerate after an intentional model change with::

    PYTHONPATH=src python tests/test_room_goldens.py
"""

import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from repro.__main__ import main
from repro.config.presets import scaled
from repro.errors import RoomConvergenceError
from repro.fleet.registry import ChassisSpec
from repro.room import (
    Room,
    downwind_recirculation,
    max_sustainable_room_load,
    solve_room,
    zero_recirculation,
)
from repro.sim import batched
from repro.sim.parallel import clear_shared_cache
from repro.sim.steady_state import solve_steady_state
from repro.workloads.benchmark import BenchmarkSet

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")

#: Fixed golden scenario.
GOLDEN_SEED = 0
GOLDEN_CRAC_SETPOINTS = (14.0, 18.0, 22.0, 26.0, 30.0)
GOLDEN_REFERENCE_CRAC = 22.0
GOLDEN_UTILIZATION = 0.7
GOLDEN_DYN_W = 15.0
GOLDEN_PLACEMENTS = ("paper", "coolest", "minhr")

#: Line count and sha256 of the ``room.jsonl`` and sha256 of the
#: ``--out`` JSON that ``repro room --seed 0 --audit`` writes.
PINNED_ROOM_LOG = (
    1248,
    "0a826e423cecd7633c2891c72ba0082e31ebc8be6e4339b433cb42b75ea1e808",
)
PINNED_ROOM_JSON = (
    "0232982d024f2a162278d8843a450fc07f33c25314085bfbd634655809735da3"
)

#: Relative tolerance on float metrics (deterministic run; this only
#: absorbs cross-platform libm/BLAS noise).
REL_TOL = 1e-9


def golden_room() -> Room:
    """3 heterogeneous chassis under downwind-drift recirculation."""
    return Room(
        chassis=(
            ChassisSpec(
                chassis_id="g-coupled",
                n_rows=1,
                lanes_per_row=2,
                chain_length=6,
                sockets_per_cartridge_depth=2,
            ),
            ChassisSpec(
                chassis_id="g-shallow",
                n_rows=1,
                lanes_per_row=2,
                chain_length=2,
                sockets_per_cartridge_depth=2,
            ),
            ChassisSpec(
                chassis_id="g-uncoupled",
                n_rows=1,
                lanes_per_row=4,
                chain_length=1,
                sockets_per_cartridge_depth=1,
            ),
        ),
        recirculation=downwind_recirculation(3),
    )


def compute_curve() -> dict:
    """The room sustainable-load curve plus placement comparison."""
    room = golden_room()
    curve = [
        {
            "crac_supply_c": crac,
            "max_utilization": max_sustainable_room_load(
                room,
                crac,
                benchmark_set=BenchmarkSet.COMPUTATION,
                seed=GOLDEN_SEED,
            ),
        }
        for crac in GOLDEN_CRAC_SETPOINTS
    ]
    placements = {
        policy: max_sustainable_room_load(
            room,
            GOLDEN_REFERENCE_CRAC,
            placement=policy,
            benchmark_set=BenchmarkSet.COMPUTATION,
            seed=GOLDEN_SEED,
        )
        for policy in GOLDEN_PLACEMENTS
    }
    return {
        "room": room.fingerprint(),
        "curve": curve,
        "placements": placements,
    }


def compute_mixed_fleet() -> dict:
    """One converged mixed-fleet equilibrium, pinned bit-exactly."""
    room = golden_room()
    solution = solve_room(
        room,
        GOLDEN_UTILIZATION,
        GOLDEN_DYN_W,
        GOLDEN_REFERENCE_CRAC,
        seed=GOLDEN_SEED,
    )
    return {
        "room": room.fingerprint(),
        "n_iterations": solution.n_iterations,
        "inlet_c": [float(v) for v in solution.inlet_c],
        "exhaust_w": [float(v) for v in solution.exhaust_w],
        "max_chip_c": [float(v) for v in solution.max_chip_c],
        "total_power_w": solution.total_power_w,
        "fingerprint": solution.fingerprint(),
    }


FIXTURES = {
    "room_curve.json": compute_curve,
    "room_mixed_fleet.json": compute_mixed_fleet,
}


def fixture_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, name)


def test_room_curve_matches_golden():
    assert_curve_matches_golden(compute_curve())


def assert_curve_matches_golden(actual: dict) -> None:
    with open(fixture_path("room_curve.json")) as handle:
        expected = json.load(handle)
    assert actual["room"] == expected["room"]
    assert len(actual["curve"]) == len(expected["curve"])
    for got, want in zip(actual["curve"], expected["curve"]):
        assert got["crac_supply_c"] == want["crac_supply_c"]
        assert got["max_utilization"] == pytest.approx(
            want["max_utilization"], rel=REL_TOL
        )
    for policy in GOLDEN_PLACEMENTS:
        assert actual["placements"][policy] == pytest.approx(
            expected["placements"][policy], rel=REL_TOL
        ), policy


def test_room_curve_derates_monotonically():
    """Physics gate on the fixture itself: a warmer CRAC can never buy
    more sustainable load."""
    with open(fixture_path("room_curve.json")) as handle:
        curve = json.load(handle)["curve"]
    loads = [point["max_utilization"] for point in curve]
    assert loads == sorted(loads, reverse=True)
    assert loads[0] > loads[-1]


def test_mixed_fleet_matches_golden():
    assert_mixed_fleet_matches_golden(compute_mixed_fleet())


def assert_mixed_fleet_matches_golden(actual: dict) -> None:
    with open(fixture_path("room_mixed_fleet.json")) as handle:
        expected = json.load(handle)
    assert actual["room"] == expected["room"]
    assert actual["n_iterations"] == expected["n_iterations"]
    for key in ("inlet_c", "exhaust_w", "max_chip_c"):
        assert actual[key] == pytest.approx(
            expected[key], rel=REL_TOL
        ), key
    assert actual["total_power_w"] == pytest.approx(
        expected["total_power_w"], rel=REL_TOL
    )
    # The fingerprint hashes raw IEEE-754 bytes: identical platforms
    # must reproduce it exactly.
    assert actual["fingerprint"] == expected["fingerprint"]


def test_room_never_runs_the_deferred_fleet_kernels(monkeypatch):
    """The room reads only steady fields: with the batched evaluator's
    DVFS selection made to raise, a cold solve and a cold
    sustainable-load curve still give the golden answers."""

    def forbidden(*_args, **_kwargs):
        raise AssertionError("the room ran a deferred fleet kernel")

    monkeypatch.setattr(batched, "select_frequencies_steady", forbidden)
    clear_shared_cache()
    assert_mixed_fleet_matches_golden(compute_mixed_fleet())
    assert_curve_matches_golden(compute_curve())


def test_cli_seed0_artifacts_are_pinned(tmp_path):
    """``repro room --seed 0`` writes the same bytes from one commit to
    the next, not only from one run to the next."""
    clear_shared_cache()
    telemetry, out = tmp_path / "telemetry", tmp_path / "room.json"
    argv = ["room", "--seed", "0", "--audit"]
    argv += ["--telemetry", str(telemetry), "--out", str(out)]
    assert main(argv) == 0
    log = (telemetry / "room.jsonl").read_bytes()
    n_lines, sha256 = PINNED_ROOM_LOG
    assert log.count(b"\n") == n_lines
    assert hashlib.sha256(log).hexdigest() == sha256
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_ROOM_JSON


def test_single_chassis_zero_recirculation_oracle():
    """The acceptance oracle: a 1-chassis zero-recirculation room is
    bit-identical to the chassis-only steady-state solver."""
    spec = golden_room().chassis[0]
    room = Room(
        chassis=(spec,), recirculation=zero_recirculation(1)
    )
    solution = solve_room(
        room,
        GOLDEN_UTILIZATION,
        GOLDEN_DYN_W,
        GOLDEN_REFERENCE_CRAC,
        seed=GOLDEN_SEED,
    )
    assert solution.n_iterations == 1
    topology = spec.build_topology()
    params = dataclasses.replace(
        scaled(seed=GOLDEN_SEED), inlet_c=GOLDEN_REFERENCE_CRAC
    )
    n = topology.n_sockets
    alone = solve_steady_state(
        topology,
        params,
        np.full(n, GOLDEN_DYN_W),
        np.full(n, GOLDEN_UTILIZATION),
    )
    for field in ("power_w", "ambient_c", "sink_c", "chip_c"):
        np.testing.assert_array_equal(
            getattr(solution.fields[0], field),
            getattr(alone, field),
            err_msg=field,
        )
    # And the room inlet is exactly the CRAC supply.
    np.testing.assert_array_equal(
        solution.inlet_c, np.array([GOLDEN_REFERENCE_CRAC])
    )


def test_divergence_raises_typed_error():
    """All-golden scenarios converge; a pathological room must fail
    with the typed error, never silent nonsense."""
    room = Room(
        chassis=(
            ChassisSpec(
                chassis_id="hot",
                n_rows=4,
                lanes_per_row=2,
                chain_length=6,
                sockets_per_cartridge_depth=2,
            ),
        ),
        recirculation=dataclasses.replace(
            zero_recirculation(1),
            matrix=np.array([[0.9]]),
        ),
    )
    with pytest.raises(RoomConvergenceError) as excinfo:
        solve_room(room, 1.0, 20.0, 30.0)
    error = excinfo.value
    assert error.residuals_c
    assert error.tolerance_c > 0
    assert any(
        marker in error.reason
        for marker in ("limit", "grow", "budget")
    )


def regenerate() -> None:
    """Rewrite the room golden fixtures from the current model."""
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, compute in FIXTURES.items():
        path = fixture_path(name)
        with open(path, "w") as handle:
            json.dump(compute(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    regenerate()
