"""Tests for fleet messages, registry and per-chassis compute."""

import numpy as np
import pytest

from repro.errors import FleetError
from repro.fleet.compute import (
    WHAT_IF_DYN_EXP,
    ChassisCompute,
    ChassisSnapshot,
    degraded_payload,
)
from repro.fleet.messages import (
    FleetAnswer,
    AnswerStatus,
    PlacementQuery,
    RequestClass,
    WhatIfQuery,
)
from repro.fleet.registry import (
    ChassisSpec,
    FleetRegistry,
    WorkerSpec,
    demo_fleet,
    spec_from_catalog,
)
from repro.server.catalog import TABLE_I_SYSTEMS
from repro.sim.power_manager import select_frequencies
from repro.sim.steady_state import solve_steady_state

SPEC = ChassisSpec(
    chassis_id="c0",
    n_rows=1,
    lanes_per_row=1,
    chain_length=4,
    sockets_per_cartridge_depth=2,
)


class TestMessages:
    def test_placement_rejects_non_positive_power(self):
        with pytest.raises(FleetError):
            PlacementQuery(chassis="c0", job_power_w=0.0)

    def test_what_if_needs_scenarios(self):
        with pytest.raises(FleetError):
            WhatIfQuery(chassis="c0", scenarios=())

    def test_defaults_interactive_vs_batch(self):
        assert (
            PlacementQuery(chassis="c0", job_power_w=1.0).request_class
            is RequestClass.INTERACTIVE
        )
        assert (
            WhatIfQuery(
                chassis="c0", scenarios=((0.5, 5.0),)
            ).request_class
            is RequestClass.BATCH
        )

    def test_answer_round_trips_to_json_dict(self):
        answer = FleetAnswer(
            request_id=3,
            status=AnswerStatus.DEGRADED,
            payload={"socket": 1},
            staleness_s=2.5,
            attempts=2,
            reason="retries_exhausted",
        )
        wire = answer.to_dict()
        assert wire["status"] == "degraded"
        assert wire["staleness_s"] == 2.5
        assert wire["payload"] == {"socket": 1}


class TestRegistry:
    def test_duplicate_worker_rejected(self):
        with pytest.raises(FleetError, match="duplicate"):
            FleetRegistry(
                chassis={"c0": SPEC},
                workers=(
                    WorkerSpec("w0", "c0"),
                    WorkerSpec("w0", "c0"),
                ),
            )

    def test_worker_for_unknown_chassis_rejected(self):
        with pytest.raises(FleetError, match="unknown"):
            FleetRegistry(
                chassis={"c0": SPEC},
                workers=(WorkerSpec("w0", "c1"),),
            )

    def test_workers_for_preserves_primary_order(self):
        registry = demo_fleet(n_chassis=2, replicas=1)
        workers = registry.workers_for("c1")
        assert [w.worker_id for w in workers] == ["c1-w0", "c1-w1"]

    def test_demo_fleet_is_heterogeneous(self):
        registry = demo_fleet(n_chassis=3)
        shapes = {
            (spec.chain_length, spec.lanes_per_row, spec.inlet_c)
            for spec in registry.chassis.values()
        }
        assert len(shapes) == 3  # distinct coupling and inlets

    def test_spec_from_catalog_maps_coupling_degree(self):
        by_degree = {
            s.degree_of_coupling: s for s in TABLE_I_SYSTEMS
        }
        high = spec_from_catalog(by_degree[max(by_degree)], "h")
        low = spec_from_catalog(by_degree[min(by_degree)], "l")
        assert high.chain_length > low.chain_length

    def test_spec_is_picklable(self):
        import pickle

        spec = demo_fleet().chassis["c0"]
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec


class TestChassisCompute:
    def test_snapshot_is_deterministic(self):
        a = ChassisCompute(SPEC).snapshot()
        b = ChassisCompute(SPEC).snapshot()
        assert a.chip_c == b.chip_c
        assert a.power_w == b.power_w
        assert len(a.chip_c) == SPEC.chain_length

    def test_placement_prefers_upwind_sockets(self):
        compute = ChassisCompute(SPEC)
        result = compute.place(
            PlacementQuery(chassis="c0", job_power_w=12.0)
        )
        # Uniform load on a single serial chain: the coolest landing
        # is the front (upwind) socket.
        assert result["socket"] == 0
        assert result["predicted_peak_c"] >= result["base_peak_c"]

    def test_placement_scores_all_candidates(self):
        compute = ChassisCompute(SPEC)
        hot = tuple(
            0.9 if i == 0 else 0.1 for i in range(SPEC.chain_length)
        )
        result = compute.place(
            PlacementQuery(
                chassis="c0", job_power_w=12.0, utilization=hot
            )
        )
        assert 0 <= result["socket"] < SPEC.chain_length

    def test_utilization_shape_checked(self):
        compute = ChassisCompute(SPEC)
        with pytest.raises(FleetError, match="sockets"):
            compute.place(
                PlacementQuery(
                    chassis="c0",
                    job_power_w=5.0,
                    utilization=(0.5, 0.5),
                )
            )

    def test_what_if_batches_scenarios(self):
        compute = ChassisCompute(SPEC)
        result = compute.what_if(
            WhatIfQuery(
                chassis="c0",
                scenarios=((0.3, 8.0), (0.9, 14.0)),
            )
        )
        assert len(result["peak_chip_c"]) == 2
        # Hotter scenario runs hotter.
        assert result["peak_chip_c"][1] > result["peak_chip_c"][0]

    def test_what_if_answers_are_memoised(self):
        compute = ChassisCompute(SPEC)
        q = WhatIfQuery(chassis="c0", scenarios=((0.5, 10.0),))
        first = compute.what_if(q)
        assert compute.cache.hits == 0
        second = compute.what_if(q)
        assert compute.cache.hits == 1
        assert first == second

    def test_min_frequency_is_one_steady_selection_per_scenario(self):
        """``min_freq_mhz`` from ``what_if``, and from ``answer_batch``
        over several what-ifs, is bit-identical to a steady solve and
        a DVFS selection run once per scenario."""
        spec = demo_fleet().chassis["c0"]
        # A fine power grid puts scenarios next to the ladder's
        # thresholds, where a wrong input moves a state.
        grid = [(u, 2.0 + k) for u in (0.0, 0.3, 0.9) for k in range(28)]
        queries = [
            WhatIfQuery(chassis="c0", scenarios=tuple(grid[i::3]))
            for i in range(3)
        ]
        reference = ChassisCompute(spec)
        topology, params = reference.topology, reference.params
        n = topology.n_sockets

        def selection(utilization, dyn_max_w):
            field = solve_steady_state(
                topology,
                params,
                np.full(n, dyn_max_w),
                np.full(n, utilization),
            )
            return select_frequencies(
                ambient_c=field.ambient_c,
                chip_c=field.chip_c,
                dyn_max_w=np.full(n, dyn_max_w),
                dyn_exp=np.full(n, WHAT_IF_DYN_EXP),
                tdp_w=topology.tdp_array,
                r_ext=topology.r_ext_array,
                theta_offset=topology.theta_offset_array,
                theta_slope=topology.theta_slope_array,
                ladder=topology.processor.ladder,
                params=params,
            )

        expected = [
            [float(selection(u, p).min()) for u, p in q.scenarios]
            for q in queries
        ]
        # The scenarios reach every state of the ladder.
        assert {f for row in expected for f in row} == set(
            map(float, topology.processor.ladder.states_mhz)
        )
        single = ChassisCompute(spec)
        assert [
            single.what_if(q)["min_freq_mhz"] for q in queries
        ] == expected
        payloads, stats = ChassisCompute(spec).answer_batch(queries)
        assert stats["n_evaluations"] == 1
        assert [p["min_freq_mhz"] for p in payloads] == expected
        # Every socket too: the minimum hides most sockets' states.
        _, freq = reference._evaluate(grid)
        np.testing.assert_array_equal(
            freq, np.stack([selection(u, p) for u, p in grid])
        )

    def test_answer_dispatches_and_rejects_unknown(self):
        compute = ChassisCompute(SPEC)
        assert "socket" in compute.answer(
            PlacementQuery(chassis="c0", job_power_w=5.0)
        )
        with pytest.raises(FleetError, match="unknown query"):
            compute.answer(object())

    def test_repeated_answers_identical(self):
        """Queries are pure reads: retries cannot change the answer."""
        compute = ChassisCompute(SPEC)
        q = PlacementQuery(chassis="c0", job_power_w=7.0)
        assert compute.answer(q) == compute.answer(q)


class TestDegradedPayload:
    def snapshot(self):
        return ChassisSnapshot(
            chassis_id="c0",
            t=1.0,
            utilization=(0.5, 0.5, 0.5),
            chip_c=(55.0, 44.0, 61.0),
            power_w=(20.0, 20.0, 20.0),
        )

    def test_placement_picks_coolest_stale_socket(self):
        payload = degraded_payload(
            self.snapshot(),
            PlacementQuery(chassis="c0", job_power_w=5.0),
        )
        assert payload["socket"] == 1
        assert payload["from_snapshot"] is True

    def test_what_if_returns_stale_digest(self):
        payload = degraded_payload(
            self.snapshot(),
            WhatIfQuery(chassis="c0", scenarios=((0.5, 9.0),)),
        )
        assert payload["from_snapshot"] is True
        assert payload["peak_chip_c"] == 61.0
        assert payload["hottest_socket"] == 2

    def test_snapshot_digest_fields(self):
        snap = self.snapshot()
        assert snap.peak_chip_c == 61.0
        assert snap.hottest_socket == 2
        assert np.isclose(snap.summary()["total_power_w"], 60.0)
