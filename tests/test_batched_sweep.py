"""Batched fleet-tensor sweep evaluator vs the per-point serial path.

``repro.sim.batched`` stacks N decision-free sweep points over one
topology into ``(N, n)`` fleet tensors, or points of several topologies
into one block padded to the widest.  The stacked evaluation must match
the per-point serial kernels **bit for bit** — including a mixed
8-point sweep with per-point inlet overrides, and a call mixing the
three catalog recipes a room stacks.
"""

import pickle

import numpy as np
import pytest

from repro.config.presets import smoke
from repro.errors import SimulationError
from repro.fleet.registry import spec_from_catalog
from repro.server.catalog import TABLE_I_SYSTEMS
from repro.sim import batched
from repro.sim.batched import (
    FleetPoint,
    FleetSweepResult,
    evaluate_fleet,
    evaluate_fleet_serial,
)

FIELDS = (
    "power_w",
    "ambient_c",
    "sink_c",
    "chip_c",
    "freq_mhz",
)

#: The acceptance sweep: 8 mixed points — utilisation extremes, power
#: extremes, workload exponents, and per-point inlet overrides.
MIXED_POINTS = (
    FleetPoint(0.1, 8.0, 2.0),
    FleetPoint(0.3, 12.0, 1.8),
    FleetPoint(0.5, 15.0, 2.2, inlet_c=22.0),
    FleetPoint(0.7, 18.0, 2.0),
    FleetPoint(0.9, 20.0, 1.9),
    FleetPoint(1.0, 21.0, 2.1, inlet_c=30.0),
    FleetPoint(0.0, 10.0, 2.0),
    FleetPoint(0.65, 16.5, 2.0, inlet_c=18.0),
)


@pytest.fixture(scope="module")
def params():
    return smoke(seed=0)


def _assert_bit_identical(a: FleetSweepResult, b: FleetSweepResult):
    for field in FIELDS:
        left, right = getattr(a, field), getattr(b, field)
        assert left.shape == right.shape
        np.testing.assert_array_equal(left, right, err_msg=field)


def test_mixed_eight_point_sweep_is_bit_identical(small_sut, params):
    serial = evaluate_fleet_serial(small_sut, params, MIXED_POINTS)
    batched = evaluate_fleet(small_sut, params, MIXED_POINTS)
    assert serial.n_points == batched.n_points == 8
    _assert_bit_identical(serial, batched)


def test_field_accessor_matches_serial_solver(small_sut, params):
    result = evaluate_fleet(small_sut, params, MIXED_POINTS)
    field = result.field(2)
    serial = evaluate_fleet_serial(
        small_sut, params, [MIXED_POINTS[2]]
    )
    np.testing.assert_array_equal(field.chip_c, serial.chip_c[0])
    assert field.hottest_socket == int(np.argmax(serial.chip_c[0]))


def test_deferred_fields_are_cached_and_pickle_whole(small_sut, params):
    """The DVFS tensor is computed once, on first read, and pickling
    materialises it (results cross process pools)."""
    batched = evaluate_fleet(small_sut, params, MIXED_POINTS)
    serial = evaluate_fleet_serial(small_sut, params, MIXED_POINTS)
    _assert_bit_identical(pickle.loads(pickle.dumps(batched)), serial)
    assert batched.freq_mhz is batched.freq_mhz


def test_point_validation():
    with pytest.raises(SimulationError):
        FleetPoint(1.2, 10.0)
    with pytest.raises(SimulationError):
        FleetPoint(0.5, -1.0)
    with pytest.raises(SimulationError):
        FleetPoint(0.5, 10.0, dyn_exp=0.0)
    # Non-finite values would otherwise come back as NaN or -inf
    # fields, and a NaN never equals itself as a distinct-row key.
    for value in (float("nan"), float("inf")):
        with pytest.raises(SimulationError, match="dyn_max_w"):
            FleetPoint(0.5, value)
    with pytest.raises(SimulationError, match="dyn_exp"):
        FleetPoint(0.5, 10.0, dyn_exp=float("nan"))
    for value in (float("nan"), float("-inf")):
        with pytest.raises(SimulationError, match="inlet_c"):
            FleetPoint(0.5, 10.0, inlet_c=value)


def test_repeated_points_solve_each_distinct_row_once(
    small_sut, params, monkeypatch
):
    """Repeats share one steady row; points that differ only in
    ``dyn_exp`` share it too but keep their own frequencies."""
    points = (
        MIXED_POINTS[1],
        MIXED_POINTS[2],
        MIXED_POINTS[1],
        FleetPoint(0.5, 15.0, 1.7, inlet_c=22.0),  # MIXED_POINTS[2]'s row
        FleetPoint(0.3, 12.0, 1.8, inlet_c=params.inlet_c),  # row 0
        MIXED_POINTS[5],
        MIXED_POINTS[2],
    )
    rows = []
    steady = batched._steady_fleet

    def recording(topology, params_, util, dynamic, inlet):
        rows.append(list(zip(util[:, 0], dynamic[:, 0], inlet)))
        return steady(topology, params_, util, dynamic, inlet)

    monkeypatch.setattr(batched, "_steady_fleet", recording)
    result = evaluate_fleet(small_sut, params, points)
    assert rows == [
        [
            (0.3, 12.0, params.inlet_c),
            (0.5, 15.0, 22.0),
            (1.0, 21.0, 30.0),
        ]
    ]
    _assert_bit_identical(
        result,
        evaluate_fleet_serial(small_sut, params, points),
    )
    assert not np.array_equal(result.freq_mhz[1], result.freq_mhz[3])


def test_empty_batch_rejected(small_sut, params):
    with pytest.raises(SimulationError):
        evaluate_fleet(small_sut, params, [])
    with pytest.raises(SimulationError):
        evaluate_fleet_serial(small_sut, params, [])


def _catalog_recipes():
    """The three catalog recipes a room mixes: 180, 60 and 60 sockets."""
    by_degree = {}
    for system in TABLE_I_SYSTEMS:
        by_degree.setdefault(system.degree_of_coupling, system)
    specs = [
        spec_from_catalog(by_degree[degree], f"d{degree}", n_rows=15)
        for degree in (11, 3, 1)
    ]
    return [spec.build_topology() for spec in specs]


def test_mixed_recipe_call_matches_serial_on_each_topology(
    params, monkeypatch
):
    """One call stacks three recipes padded to the widest; each row is
    the serial path on its own topology, bit for bit.  Points of
    different recipes that share ``(utilization, dyn_max_w, inlet)``
    keep their own rows, and a repeated point shares one."""
    wide, narrow, flat = _catalog_recipes()
    assert [t.n_sockets for t in (wide, narrow, flat)] == [180, 60, 60]
    topologies = [narrow, wide, flat, narrow, wide, flat, narrow]
    points = [
        FleetPoint(0.6, 15.0, inlet_c=24.0),
        FleetPoint(0.6, 15.0, inlet_c=24.0),  # row 0's triple, wide
        FleetPoint(0.3, 12.0),
        FleetPoint(0.6, 15.0, inlet_c=24.0),  # repeats row 0
        FleetPoint(1.0, 21.0, inlet_c=30.0),
        FleetPoint(0.6, 15.0, inlet_c=24.0),  # row 0's triple, flat
        FleetPoint(0.0, 10.0, inlet_c=18.0),
    ]
    rows = []
    steady = batched._steady_fleet

    def recording(topology, params_, util, dynamic, inlet):
        rows.append(topology)
        return steady(topology, params_, util, dynamic, inlet)

    monkeypatch.setattr(batched, "_steady_fleet", recording)
    result = evaluate_fleet(topologies, params, points)
    assert rows == [(narrow, wide, flat, wide, flat, narrow)]
    assert result.n_points == len(points)
    assert result.chip_c.shape == (len(points), 180)
    for k, (topology, point) in enumerate(zip(topologies, points)):
        serial = evaluate_fleet_serial(topology, params, [point])
        field = result.field(k)
        for name in FIELDS[:-1]:
            np.testing.assert_array_equal(
                getattr(field, name),
                getattr(serial, name)[0],
                err_msg=f"row {k} {name}",
            )
    with pytest.raises(SimulationError, match="mixing topologies"):
        result.freq_mhz
    restored = pickle.loads(pickle.dumps(result))
    np.testing.assert_array_equal(
        restored.field(2).chip_c, result.field(2).chip_c
    )
    with pytest.raises(SimulationError):
        restored.freq_mhz


def test_shared_topology_calls_keep_unpadded_tensors(small_sut, params):
    """One topology, passed once or once per point, gives ``(N, n)``
    tensors and the DVFS selection."""
    n = small_sut.n_sockets
    for topology in (small_sut, [small_sut] * len(MIXED_POINTS)):
        result = evaluate_fleet(topology, params, MIXED_POINTS)
        for name in FIELDS:
            assert getattr(result, name).shape == (len(MIXED_POINTS), n)
        _assert_bit_identical(
            result, evaluate_fleet_serial(small_sut, params, MIXED_POINTS)
        )
    with pytest.raises(SimulationError, match="topologies"):
        evaluate_fleet([small_sut], params, MIXED_POINTS)
