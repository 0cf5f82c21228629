"""Room solver: stacked chassis fields vs the chassis-level solver.

:func:`~repro.room.model.solve_room` stacks every new chassis of a
fixed-point iteration, whatever its topology recipe, into one
:func:`~repro.sim.batched.evaluate_fleet` call, each chassis a
:class:`~repro.sim.batched.FleetPoint` with its own topology and its
inlet override.  Every converged chassis field must equal
:func:`~repro.sim.steady_state.solve_steady_state` at that chassis'
converged inlet **bit for bit** — the chassis solver stays the
reference.  Every iteration feeds on the previous one's inlets, so a
single ULP of drift would compound into a different fingerprint (the
goldens in ``tests/test_room_goldens.py`` pin those).
"""

import numpy as np
import pytest

from repro.config.presets import scaled
from repro.fleet.registry import ChassisSpec, spec_from_catalog
from repro.room import (
    RecirculationMatrix,
    Room,
    downwind_recirculation,
    row_layout_recirculation,
    solve_room,
    uniform_recirculation,
)
from repro.room import model
from repro.room.model import _topology_for
from repro.server.catalog import TABLE_I_SYSTEMS
from repro.sim.steady_state import solve_steady_state

FIELDS = ("power_w", "ambient_c", "sink_c", "chip_c")


def catalog_mix(n_chassis: int) -> Room:
    """Heterogeneous chassis cycling through distinct Table-I degrees."""
    by_degree = {}
    for system in TABLE_I_SYSTEMS:
        by_degree.setdefault(system.degree_of_coupling, system)
    cycle = [by_degree[d] for d in sorted(by_degree, reverse=True)]
    return Room(
        chassis=tuple(
            spec_from_catalog(cycle[i % len(cycle)], f"d{i}")
            for i in range(n_chassis)
        ),
        recirculation=row_layout_recirculation(n_chassis),
    )


def homogeneous_mix(n_chassis: int) -> Room:
    """Identical chassis — exercises the single-group batched path."""
    return Room(
        chassis=tuple(
            ChassisSpec(
                chassis_id=f"h{i}",
                n_rows=1,
                lanes_per_row=2,
                chain_length=6,
                sockets_per_cartridge_depth=2,
            )
            for i in range(n_chassis)
        ),
        recirculation=uniform_recirculation(n_chassis, 0.003),
    )


SCENARIOS = [
    pytest.param(catalog_mix(3), 0.7, 15.0, 18.0, id="catalog-3"),
    pytest.param(catalog_mix(5), 0.4, 12.0, 22.0, id="catalog-5"),
    pytest.param(homogeneous_mix(4), 0.9, 18.0, 26.0, id="homog-4"),
    pytest.param(
        Room(
            chassis=(
                ChassisSpec(
                    chassis_id="solo",
                    n_rows=1,
                    lanes_per_row=2,
                    chain_length=6,
                    sockets_per_cartridge_depth=2,
                ),
            ),
            recirculation=downwind_recirculation(1),
        ),
        0.5,
        10.0,
        20.0,
        id="solo",
    ),
]


def _assert_fields_match_chassis_solver(room, solution):
    params = scaled(seed=0)
    for i, spec in enumerate(room.chassis):
        topology = _topology_for(spec)
        n = topology.n_sockets
        reference = solve_steady_state(
            topology,
            params.with_overrides(inlet_c=float(solution.inlet_c[i])),
            np.full(n, solution.dyn_max_w[i]),
            np.full(n, solution.utilization[i]),
        )
        for field in FIELDS:
            np.testing.assert_array_equal(
                getattr(solution.fields[i], field),
                getattr(reference, field),
                err_msg=f"chassis {i} {field}",
            )
        assert solution.exhaust_w[i] == float(np.sum(reference.power_w))


@pytest.mark.parametrize("room,utilization,dyn,crac", SCENARIOS)
def test_batched_matches_serial_bit_for_bit(
    room, utilization, dyn, crac
):
    solution = solve_room(room, utilization, dyn, crac)
    _assert_fields_match_chassis_solver(room, solution)


def test_per_chassis_utilization_vector_matches_too():
    """Non-uniform placement vectors ride the same contract."""
    room = catalog_mix(3)
    utilization = np.array([0.9, 0.3, 0.6])
    dyn = np.array([15.0, 8.0, 12.0])
    solution = solve_room(room, utilization, dyn, 21.0)
    assert solution.n_iterations > 1
    _assert_fields_match_chassis_solver(room, solution)


def test_downwind_solve_sends_only_the_chassis_whose_inlet_moved(
    monkeypatch,
):
    """Within one solve a chassis is solved again only when its inlet
    moved; the upwind chassis of a downwind aisle never does after
    iteration 1.  The solution's arrays own their data, so a kept
    solution holds no stacked evaluator tensors."""
    room = Room(
        chassis=catalog_mix(4).chassis,
        recirculation=downwind_recirculation(4),
    )
    # Distinct utilisations tell the chassis apart in the sent points.
    utilization = np.array([0.9, 0.3, 0.6, 0.75])
    crac = 20.0
    sent = [[]]
    rises = []
    evaluate = model.evaluate_fleet
    inlet_rise = RecirculationMatrix.inlet_rise

    def recording_evaluate(topology, params, points):
        sent[-1].extend((p.utilization, p.inlet_c) for p in points)
        return evaluate(topology, params, points)

    def recording_rise(self, exhaust_w):
        rises.append(inlet_rise(self, exhaust_w))
        return rises[-1]

    def emit(event):
        if event["type"] == "room_iteration":
            sent.append([])

    monkeypatch.setattr(model, "evaluate_fleet", recording_evaluate)
    monkeypatch.setattr(RecirculationMatrix, "inlet_rise", recording_rise)
    solution = solve_room(room, utilization, 12.0, crac, emit=emit)
    sent.pop()
    assert solution.n_iterations > 2
    inlets = [np.full(4, crac)] + [crac + rise for rise in rises[:-1]]
    assert len(sent) == len(inlets) == solution.n_iterations
    moved = [range(4)] + [
        np.flatnonzero(now != before)
        for before, now in zip(inlets, inlets[1:])
    ]
    for k, chassis in enumerate(moved):
        expected = [(utilization[i], inlets[k][i]) for i in chassis]
        assert sorted(sent[k]) == sorted(expected), f"iteration {k + 1}"
    assert all(0 not in chassis for chassis in moved[1:])
    _assert_fields_match_chassis_solver(room, solution)
    arrays = [
        solution.utilization,
        solution.dyn_max_w,
        solution.inlet_c,
        solution.exhaust_w,
    ] + [getattr(f, name) for f in solution.fields for name in FIELDS]
    assert all(array.base is None for array in arrays)


def test_every_iteration_is_one_evaluator_call_across_recipes(monkeypatch):
    """Each fixed-point iteration sends every new chassis, whatever its
    recipe, to one ``evaluate_fleet`` call with per-chassis topologies;
    the first carries all eight chassis and all three recipes."""
    room = catalog_mix(8)
    utilization = np.array([0.9, 0.3, 0.6, 0.75, 0.5, 0.8, 0.4, 0.65])
    calls = []
    iterations = []
    evaluate = model.evaluate_fleet

    def recording_evaluate(topology, params, points):
        calls.append((topology, len(points)))
        return evaluate(topology, params, points)

    def emit(event):
        if event["type"] == "room_iteration":
            iterations.append(len(calls))

    monkeypatch.setattr(model, "evaluate_fleet", recording_evaluate)
    solution = solve_room(room, utilization, 12.0, 20.0, emit=emit)
    assert solution.n_iterations > 2
    assert iterations == list(range(1, solution.n_iterations + 1))
    first, n_points = calls[0]
    assert n_points == 8
    assert list(first) == [_topology_for(spec) for spec in room.chassis]
    assert len(set(first)) == 3
    _assert_fields_match_chassis_solver(room, solution)
