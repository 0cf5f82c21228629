"""The ``room`` experiment family end to end: CLI, auditor, errors.

The property/golden/differential suites pin the solver's numerics;
this suite pins the operator surface around it — the ``repro room``
command (tables, JSON artifact, telemetry, audit), the room invariant
auditor's envelopes, the CRAC setpoint search, and every typed
rejection the layer promises.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.__main__ import main
from repro.errors import ConfigurationError, RoomConvergenceError, RoomError
from repro.experiments import room_scenarios
from repro.fleet.registry import ChassisSpec
from repro.room import (
    RecirculationMatrix,
    Room,
    RoomInvariantAuditor,
    RoomInvariantViolation,
    downwind_recirculation,
    max_sustainable_room_load,
    optimize_crac_setpoint,
    room_derating_curve,
    row_layout_recirculation,
    solve_room,
    uniform_recirculation,
    zero_recirculation,
)
from repro.room import model
from repro.room.placement import _inverse_weights, place_room_load
from repro.workloads.benchmark import BenchmarkSet

TINY = dict(
    n_rows=1,
    lanes_per_row=4,
    chain_length=1,
    sockets_per_cartridge_depth=1,
)

COUPLED = dict(
    n_rows=1,
    lanes_per_row=1,
    chain_length=6,
    sockets_per_cartridge_depth=2,
)


def tiny_room() -> Room:
    return Room(
        chassis=(ChassisSpec(chassis_id="t0", **TINY),),
        recirculation=zero_recirculation(1),
    )


def coupled_room() -> Room:
    return Room(
        chassis=(ChassisSpec(chassis_id="c0", **COUPLED),),
        recirculation=zero_recirculation(1),
    )


class TestRoomCLI:
    def test_room_command_end_to_end(self, tmp_path, capsys):
        """Audited, telemetry-mirrored run with the JSON artifact."""
        out = tmp_path / "room.json"
        telemetry = tmp_path / "telemetry"
        status = main(
            [
                "room",
                "--mixes",
                "mixed",
                "--chassis",
                "2",
                "--setpoints",
                "18",
                "26",
                "--diurnal-step",
                "12",
                "--seed",
                "0",
                "--audit",
                "--telemetry",
                str(telemetry),
                "--out",
                str(out),
            ]
        )
        assert status == 0
        printed = capsys.readouterr().out
        assert "Sustainable room load" in printed
        assert "Placement comparison" in printed
        assert "Diurnal envelope" in printed
        with open(out) as handle:
            artifact = json.load(handle)
        assert artifact["crac_setpoints_c"] == [18.0, 26.0]
        curve = artifact["curves"]["mixed"]
        assert curve[0]["max_utilization"] >= curve[-1]["max_utilization"]
        assert "mixed/coolest" in artifact["placement_loads"]
        assert len(artifact["diurnal"]) == 2
        lines = (telemetry / "room.jsonl").read_text().splitlines()
        assert lines
        assert any('"room_converged"' in line for line in lines)

    def test_room_command_rejects_unknown_mix(self, capsys):
        assert main(["room", "--mixes", "volcano"]) == 2
        assert "unknown chassis mix" in capsys.readouterr().err

    def test_diurnal_mix_is_built_when_the_mixes_leave_it_out(
        self, tmp_path, capsys
    ):
        out = tmp_path / "room.json"
        argv = ["room", "--mixes", "coupled", "--chassis", "1"]
        argv += ["--setpoints", "22", "--placements", "paper"]
        argv += ["--diurnal-step", "12", "--out", str(out)]
        assert main(argv) == 0
        assert "Diurnal envelope (mixed mix)" in capsys.readouterr().out
        artifact = json.loads(out.read_text())
        assert list(artifact["curves"]) == ["coupled"]
        assert [p["hour"] for p in artifact["diurnal"]] == [0, 12]

    @pytest.mark.parametrize("step", [0, -3])
    def test_diurnal_step_below_one_rejected(self, step):
        with pytest.raises(ConfigurationError, match="diurnal_step_h"):
            room_scenarios.run(diurnal_step_h=step)


class TestRoomInvariantAuditor:
    @pytest.fixture(scope="class")
    def audited(self):
        room = tiny_room()
        return room, solve_room(room, 0.6, 10.0, 20.0)

    def test_converged_solution_passes(self, audited):
        room, solution = audited
        RoomInvariantAuditor().check(room, solution)
        RoomInvariantAuditor(redline_c=500.0).check(room, solution)

    def test_tolerance_must_be_positive(self):
        with pytest.raises(RoomError, match="positive"):
            RoomInvariantAuditor(tolerance_c=0.0)

    def test_non_finite_arrays_rejected(self, audited):
        room, solution = audited
        broken = dataclasses.replace(
            solution, inlet_c=np.array([np.nan])
        )
        with pytest.raises(RoomInvariantViolation, match="non-finite"):
            RoomInvariantAuditor().check(room, broken)

    def test_inlet_below_crac_rejected(self, audited):
        room, solution = audited
        broken = dataclasses.replace(
            solution, inlet_c=solution.inlet_c - 1.0
        )
        with pytest.raises(
            RoomInvariantViolation, match="below the CRAC"
        ):
            RoomInvariantAuditor().check(room, broken)

    def test_fixed_point_drift_rejected(self, audited):
        room, solution = audited
        broken = dataclasses.replace(
            solution, inlet_c=solution.inlet_c + 1.0
        )
        with pytest.raises(RoomInvariantViolation, match="drifts"):
            RoomInvariantAuditor().check(room, broken)

    def test_missing_residual_trail_rejected(self, audited):
        room, solution = audited
        broken = dataclasses.replace(solution, residuals_c=())
        with pytest.raises(
            RoomInvariantViolation, match="no residuals"
        ):
            RoomInvariantAuditor().check(room, broken)

    def test_unconverged_final_residual_rejected(self, audited):
        room, solution = audited
        broken = dataclasses.replace(solution, residuals_c=(1.0,))
        with pytest.raises(
            RoomInvariantViolation, match="above tolerance"
        ):
            RoomInvariantAuditor().check(room, broken)

    def test_entry_below_inlet_rejected(self, audited):
        room, solution = audited
        field = dataclasses.replace(
            solution.fields[0],
            ambient_c=solution.fields[0].ambient_c - 5.0,
        )
        broken = dataclasses.replace(solution, fields=(field,))
        with pytest.raises(
            RoomInvariantViolation, match="below its own inlet"
        ):
            RoomInvariantAuditor().check(room, broken)

    def test_sink_below_entry_rejected(self, audited):
        room, solution = audited
        field = dataclasses.replace(
            solution.fields[0],
            sink_c=solution.fields[0].ambient_c - 1.0,
        )
        broken = dataclasses.replace(solution, fields=(field,))
        with pytest.raises(
            RoomInvariantViolation, match="sink colder"
        ):
            RoomInvariantAuditor().check(room, broken)

    def test_chip_materially_below_sink_rejected(self, audited):
        room, solution = audited
        field = dataclasses.replace(
            solution.fields[0],
            chip_c=solution.fields[0].sink_c - 1.0,
        )
        broken = dataclasses.replace(solution, fields=(field,))
        with pytest.raises(
            RoomInvariantViolation, match="materially colder"
        ):
            RoomInvariantAuditor().check(room, broken)

    def test_exhaust_below_gated_floor_rejected(self, audited):
        """Zero recirculation keeps the fixed point happy, so the
        tampered exhaust trips exactly the gated-floor envelope."""
        room, solution = audited
        broken = dataclasses.replace(
            solution, exhaust_w=np.zeros(1)
        )
        with pytest.raises(
            RoomInvariantViolation, match="gated floor"
        ):
            RoomInvariantAuditor().check(room, broken)

    def test_exhaust_field_disagreement_rejected(self, audited):
        room, solution = audited
        broken = dataclasses.replace(
            solution, exhaust_w=solution.exhaust_w + 1.0
        )
        with pytest.raises(
            RoomInvariantViolation, match="disagrees"
        ):
            RoomInvariantAuditor().check(room, broken)

    def test_redline_enforced_when_set(self, audited):
        room, solution = audited
        with pytest.raises(
            RoomInvariantViolation, match="redline"
        ):
            RoomInvariantAuditor(redline_c=1.0).check(room, solution)


class TestCracSetpointSearch:
    def test_warmest_sustaining_setpoint_wins(self):
        choice = optimize_crac_setpoint(
            coupled_room(),
            (14.0, 18.0, 22.0),
            target_utilization=0.3,
            benchmark_set=BenchmarkSet.COMPUTATION,
        )
        assert choice.meets_target
        assert choice.crac_supply_c == 22.0
        assert choice.max_utilization >= 0.3

    def test_unreachable_target_returns_coldest_fallback(self):
        choice = optimize_crac_setpoint(
            coupled_room(),
            (38.0, 42.0),
            target_utilization=1.0,
            benchmark_set=BenchmarkSet.COMPUTATION,
        )
        assert not choice.meets_target
        assert choice.crac_supply_c == 38.0
        assert choice.max_utilization < 1.0

    def test_empty_candidates_rejected(self):
        with pytest.raises(RoomError, match="candidate"):
            optimize_crac_setpoint(tiny_room(), (), 0.5)

    def test_out_of_range_target_rejected(self):
        with pytest.raises(RoomError, match="target"):
            optimize_crac_setpoint(tiny_room(), (18.0,), 1.5)

    def test_empty_curve_rejected(self):
        with pytest.raises(RoomError, match="setpoint"):
            room_derating_curve(tiny_room(), ())

    def test_room_too_hot_to_idle_sustains_zero(self):
        assert (
            max_sustainable_room_load(
                coupled_room(),
                90.0,
                benchmark_set=BenchmarkSet.COMPUTATION,
            )
            == 0.0
        )


class TestTypedRejections:
    def test_room_needs_chassis(self):
        with pytest.raises(RoomError, match="at least one"):
            Room(chassis=(), recirculation=zero_recirculation(1))

    def test_matrix_chassis_count_must_match(self):
        with pytest.raises(RoomError, match="couples"):
            Room(
                chassis=(ChassisSpec(chassis_id="t0", **TINY),),
                recirculation=zero_recirculation(2),
            )

    def test_duplicate_chassis_ids_rejected(self):
        with pytest.raises(RoomError, match="duplicate"):
            Room(
                chassis=(
                    ChassisSpec(chassis_id="t0", **TINY),
                    ChassisSpec(chassis_id="t0", **TINY),
                ),
                recirculation=zero_recirculation(2),
            )

    def test_room_permutation_must_be_valid(self):
        room = tiny_room()
        assert room.total_sockets == 4
        with pytest.raises(RoomError, match="permutation"):
            room.permuted([1])

    def test_solve_room_input_validation(self):
        room = tiny_room()
        with pytest.raises(RoomError, match="shape"):
            solve_room(room, np.array([0.5, 0.5]), 10.0, 20.0)
        with pytest.raises(RoomError, match=r"\[0, 1\]"):
            solve_room(room, 1.5, 10.0, 20.0)
        with pytest.raises(RoomError, match=r"\[0, 1\]"):
            solve_room(room, float("nan"), 10.0, 20.0)
        with pytest.raises(RoomError, match="non-negative"):
            solve_room(room, 0.5, -1.0, 20.0)

    @pytest.mark.parametrize(
        "dyn_max_w, crac_supply_c, name",
        [
            (float("nan"), 20.0, "dyn_max_w"),
            (float("inf"), 20.0, "dyn_max_w"),
            (10.0, float("nan"), "crac_supply_c"),
            (10.0, float("inf"), "crac_supply_c"),
            (10.0, float("-inf"), "crac_supply_c"),
        ],
    )
    def test_non_finite_solve_input_is_an_input_error(
        self, dyn_max_w, crac_supply_c, name
    ):
        """Rejected as malformed input before the first iteration, not
        reported as a physics failure of the fixed point."""
        events = []
        with pytest.raises(RoomError, match=name) as excinfo:
            solve_room(
                tiny_room(), 0.5, dyn_max_w, crac_supply_c, emit=events.append
            )
        assert not isinstance(excinfo.value, RoomConvergenceError)
        assert events == []

    def test_budget_exhaustion_is_a_typed_divergence(self, monkeypatch):
        monkeypatch.setattr(model, "MAX_ITERATIONS", 1)
        room = Room(
            chassis=(ChassisSpec(chassis_id="c0", **COUPLED),),
            recirculation=uniform_recirculation(
                1, 0.0, self_coefficient=0.05
            ),
        )
        with pytest.raises(RoomConvergenceError, match="budget"):
            solve_room(room, 0.9, 15.0, 25.0)

    def test_growing_residuals_detected_before_the_limit(self, monkeypatch):
        """With the hard limit parked out of reach, the loop-gain
        detector (or the budget) still names the divergence."""
        monkeypatch.setattr(model, "DIVERGENCE_LIMIT_C", 1e9)
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
                zero_recirculation(1), matrix=np.array([[0.9]])
            ),
        )
        with pytest.raises(RoomConvergenceError) as excinfo:
            solve_room(room, 1.0, 20.0, 30.0)
        assert (
            "grow" in excinfo.value.reason
            or "budget" in excinfo.value.reason
        )

    def test_placement_rejections_and_degenerate_weights(self):
        room = tiny_room()
        with pytest.raises(RoomError, match=r"\[0, 1\]"):
            place_room_load(room, "paper", 1.5)
        with pytest.raises(RoomError, match="unknown room placement"):
            place_room_load(room, "hottest", 0.5)
        # Zero recirculation pressure: MinHR weights degrade to
        # uniform instead of dividing by zero.
        np.testing.assert_array_equal(
            _inverse_weights(np.zeros(3)), np.ones(3)
        )

    def test_recirculation_rejections(self):
        with pytest.raises(RoomError, match=">= 1"):
            RecirculationMatrix(np.zeros((0, 0)))
        with pytest.raises(RoomError, match="exhaust"):
            zero_recirculation(2).inlet_rise(np.zeros(3))
        with pytest.raises(RoomError, match="permutation"):
            zero_recirculation(2).permuted([0, 0])
        with pytest.raises(RoomError, match="decay"):
            row_layout_recirculation(3, decay=1.5)
        with pytest.raises(RoomError, match="decay"):
            downwind_recirculation(3, decay=-0.1)
