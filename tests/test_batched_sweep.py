"""Batched fleet-tensor sweep evaluator vs the per-point serial path.

``repro.sim.batched`` stacks N decision-free sweep points over one
topology into ``(N, n)`` fleet tensors.  The stacked evaluation must
match the per-point serial kernels **bit for bit** — including a mixed
8-point sweep with per-point inlet overrides.
"""

import pickle

import numpy as np
import pytest

from repro.config.presets import smoke
from repro.errors import SimulationError
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
