"""Tests for repro.thermal.detailed_model."""

import pytest

from repro.errors import ThermalModelError
from repro.thermal.detailed_model import (
    DetailedChipModel,
    FloorplanBlock,
    kabini_floorplan,
)
from repro.thermal.heatsink import FIN_18, FIN_30


class TestFloorplanBlock:
    def test_area(self):
        block = FloorplanBlock("b", 0, 0, 2.5, 2.0)
        assert block.area_mm2 == pytest.approx(5.0)

    def test_center(self):
        block = FloorplanBlock("b", 1.0, 2.0, 2.0, 4.0)
        assert block.center == (2.0, 4.0)

    def test_shared_edge_horizontal_neighbors(self):
        a = FloorplanBlock("a", 0, 0, 2, 2)
        b = FloorplanBlock("b", 2, 0, 2, 2)
        assert a.shared_edge_mm(b) == pytest.approx(2.0)
        assert b.shared_edge_mm(a) == pytest.approx(2.0)

    def test_shared_edge_vertical_neighbors(self):
        a = FloorplanBlock("a", 0, 0, 3, 1)
        b = FloorplanBlock("b", 0, 1, 3, 1)
        assert a.shared_edge_mm(b) == pytest.approx(3.0)

    def test_no_shared_edge_for_distant_blocks(self):
        a = FloorplanBlock("a", 0, 0, 1, 1)
        b = FloorplanBlock("b", 5, 5, 1, 1)
        assert a.shared_edge_mm(b) == 0.0

    def test_partial_overlap_edge(self):
        a = FloorplanBlock("a", 0, 0, 2, 2)
        b = FloorplanBlock("b", 2, 1, 2, 2)
        assert a.shared_edge_mm(b) == pytest.approx(1.0)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ThermalModelError):
            FloorplanBlock("bad", 0, 0, 0.0, 1.0)


class TestKabiniFloorplan:
    def test_total_area_is_100mm2(self):
        total = sum(b.area_mm2 for b in kabini_floorplan())
        assert total == pytest.approx(100.0)

    def test_has_four_cores(self):
        names = {b.name for b in kabini_floorplan()}
        assert {"core0", "core1", "core2", "core3"} <= names

    def test_gpu_is_largest_block(self):
        blocks = {b.name: b for b in kabini_floorplan()}
        assert blocks["gpu"].area_mm2 == max(
            b.area_mm2 for b in kabini_floorplan()
        )


class TestDetailedChipModel:
    def test_uniform_power_tracks_total_resistance(self):
        model = DetailedChipModel(FIN_18)
        low = model.solve_uniform(25.0, 5.0)
        high = model.solve_uniform(25.0, 15.0)
        assert high.max_temperature_c > low.max_temperature_c

    def test_concentrated_power_has_larger_spread(self):
        model = DetailedChipModel(FIN_18)
        uniform = model.solve_uniform(25.0, 12.0)
        concentrated = model.solve(
            25.0, {"core0": 8.0, "gpu": 4.0}
        )
        assert concentrated.spread_c > uniform.spread_c

    def test_hottest_block_carries_the_power(self):
        model = DetailedChipModel(FIN_30)
        result = model.solve(25.0, {"core2": 10.0})
        assert result.hottest_block == "core2"

    def test_30_fin_runs_cooler(self):
        power = {"core0": 4.0, "core1": 4.0, "gpu": 5.0}
        hot = DetailedChipModel(FIN_18).solve(25.0, power)
        cool = DetailedChipModel(FIN_30).solve(25.0, power)
        assert (
            cool.max_temperature_c < hot.max_temperature_c
        )

    def test_ambient_shift_is_additive(self):
        model = DetailedChipModel(FIN_18)
        power = {"core0": 6.0, "uncore": 3.0}
        at20 = model.solve(20.0, power)
        at35 = model.solve(35.0, power)
        assert (
            at35.max_temperature_c - at20.max_temperature_c
        ) == pytest.approx(15.0, abs=1e-6)

    def test_spreader_between_blocks_and_sink(self):
        model = DetailedChipModel(FIN_18)
        result = model.solve(25.0, {"gpu": 10.0})
        assert result.spreader_c >= result.sink_base_c
        assert result.max_temperature_c >= result.spreader_c

    def test_unknown_block_rejected(self):
        model = DetailedChipModel(FIN_18)
        with pytest.raises(ThermalModelError, match="unknown"):
            model.solve(25.0, {"nonexistent": 5.0})

    def test_negative_power_rejected(self):
        model = DetailedChipModel(FIN_18)
        with pytest.raises(ThermalModelError, match="non-negative"):
            model.solve(25.0, {"core0": -1.0})

    def test_negative_uniform_power_rejected(self):
        model = DetailedChipModel(FIN_18)
        with pytest.raises(ThermalModelError):
            model.solve_uniform(25.0, -1.0)

    def test_die_area_property(self):
        model = DetailedChipModel(FIN_18)
        assert model.die_area_mm2 == pytest.approx(100.0)
