"""Tests for repro.thermal.rc_network."""

import pytest

from repro.errors import ThermalModelError
from repro.thermal.rc_network import ThermalNetwork


class TestThermalNetwork:
    def test_single_resistor(self):
        net = ThermalNetwork()
        net.add_boundary("amb", 20.0)
        net.connect("chip", "amb", 2.0)
        net.inject("chip", 10.0)
        temps = net.solve()
        assert temps["chip"] == pytest.approx(40.0)
        assert temps["amb"] == pytest.approx(20.0)

    def test_series_resistors(self):
        net = ThermalNetwork()
        net.add_boundary("amb", 0.0)
        net.connect("chip", "sink", 1.0)
        net.connect("sink", "amb", 2.0)
        net.inject("chip", 5.0)
        temps = net.solve()
        assert temps["sink"] == pytest.approx(10.0)
        assert temps["chip"] == pytest.approx(15.0)

    def test_parallel_resistors_accumulate(self):
        net = ThermalNetwork()
        net.add_boundary("amb", 0.0)
        net.connect("chip", "amb", 2.0)
        net.connect("chip", "amb", 2.0)  # parallel -> 1 degC/W
        net.inject("chip", 10.0)
        assert net.solve()["chip"] == pytest.approx(10.0)

    def test_heat_divides_between_parallel_paths(self):
        net = ThermalNetwork()
        net.add_boundary("amb", 0.0)
        net.connect("chip", "a", 1.0)
        net.connect("a", "amb", 1.0)
        net.connect("chip", "b", 1.0)
        net.connect("b", "amb", 1.0)
        net.inject("chip", 10.0)
        temps = net.solve()
        assert temps["a"] == pytest.approx(temps["b"])
        assert temps["chip"] == pytest.approx(10.0)

    def test_no_injection_equilibrates_to_boundary(self):
        net = ThermalNetwork()
        net.add_boundary("amb", 42.0)
        net.connect("x", "y", 1.0)
        net.connect("y", "amb", 1.0)
        temps = net.solve()
        assert temps["x"] == pytest.approx(42.0)
        assert temps["y"] == pytest.approx(42.0)

    def test_two_boundaries(self):
        net = ThermalNetwork()
        net.add_boundary("hot", 100.0)
        net.add_boundary("cold", 0.0)
        net.connect("mid", "hot", 1.0)
        net.connect("mid", "cold", 1.0)
        assert net.solve()["mid"] == pytest.approx(50.0)

    def test_no_boundary_rejected(self):
        net = ThermalNetwork()
        net.connect("a", "b", 1.0)
        with pytest.raises(ThermalModelError):
            net.solve()

    def test_disconnected_node_rejected(self):
        net = ThermalNetwork()
        net.add_boundary("amb", 0.0)
        net.connect("a", "amb", 1.0)
        net.add_node("floating")
        with pytest.raises(ThermalModelError):
            net.solve()

    def test_disconnected_network_raises_on_every_solve(self):
        net = ThermalNetwork()
        net.add_boundary("amb", 25.0)
        net.connect("chip", "sink", 1.0)
        net.connect("sink", "amb", 2.0)
        net.inject("chip", 5.0)
        net.add_node("floating")
        for _ in range(2):
            with pytest.raises(
                ThermalModelError, match="not.*connected to any boundary"
            ):
                net.solve()

    def test_floating_island_rejected(self):
        """Two free nodes joined only to each other leave a singular
        block with no zero diagonal entry: ``np.linalg.solve`` meets
        the zero pivot in elimination, and the network names it."""
        net = ThermalNetwork()
        net.add_boundary("amb", 25.0)
        net.connect("chip", "amb", 1.0)
        net.connect("island_a", "island_b", 1.0)
        net.inject("island_a", 3.0)
        with pytest.raises(
            ThermalModelError, match="not.*connected to any boundary"
        ):
            net.solve()

    def test_self_loop_rejected(self):
        net = ThermalNetwork()
        with pytest.raises(ThermalModelError):
            net.connect("a", "a", 1.0)

    def test_non_positive_resistance_rejected(self):
        net = ThermalNetwork()
        with pytest.raises(ThermalModelError):
            net.connect("a", "b", 0.0)

    def test_node_names_preserved(self):
        net = ThermalNetwork()
        net.add_boundary("amb", 0.0)
        net.connect("first", "amb", 1.0)
        net.connect("second", "amb", 1.0)
        assert net.node_names == ["amb", "first", "second"]

    def test_superposition_of_injections(self):
        def solve(p1, p2):
            net = ThermalNetwork()
            net.add_boundary("amb", 0.0)
            net.connect("a", "amb", 1.0)
            net.connect("a", "b", 1.0)
            net.connect("b", "amb", 3.0)
            net.inject("a", p1)
            net.inject("b", p2)
            return net.solve()

        only_a = solve(4.0, 0.0)
        only_b = solve(0.0, 6.0)
        both = solve(4.0, 6.0)
        for node in ("a", "b"):
            assert both[node] == pytest.approx(
                only_a[node] + only_b[node]
            )

    def test_insertion_order_does_not_change_answer(self):
        """The same physical network built in two different orders (node
        indices, hence matrix layout, differ) solves to the same
        temperatures."""

        def build(order):
            net = ThermalNetwork()
            steps = {
                "amb": lambda: net.add_boundary("amb", 20.0),
                "chip": lambda: net.connect("chip", "sink", 0.5),
                "sink": lambda: net.connect("sink", "amb", 1.5),
            }
            for name in order:
                steps[name]()
            net.inject("chip", 8.0)
            return net.solve()

        first = build(("amb", "chip", "sink"))
        second = build(("sink", "chip", "amb"))
        for node in ("amb", "chip", "sink"):
            assert second[node] == pytest.approx(first[node])


class TestFactorizationCache:
    """No factorization is carried between solves: each solve assembles
    the current network, so every mutation reaches the next answer and a
    repeated solve returns the same bits."""

    @staticmethod
    def _net():
        net = ThermalNetwork()
        net.add_boundary("amb", 25.0)
        net.connect("chip", "sink", 1.0)
        net.connect("sink", "amb", 2.0)
        net.inject("chip", 5.0)
        return net

    def test_rhs_only_mutations_keep_factorization(self):
        net = self._net()
        assert net.solve()["chip"] == pytest.approx(25.0 + 5.0 * 3.0)
        net.inject("chip", 9.0)
        net.add_boundary("amb", 40.0)  # re-pin an existing boundary
        temps = net.solve()
        assert temps["chip"] == pytest.approx(40.0 + 9.0 * 3.0)
        assert temps["sink"] == pytest.approx(40.0 + 9.0 * 2.0)

    def test_structural_mutations_invalidate(self):
        net = self._net()
        net.solve()
        net.connect("chip", "amb", 4.0)  # 4 degC/W in parallel with 3
        assert net.solve()["chip"] == pytest.approx(25.0 + 5.0 * 12.0 / 7.0)
        net.add_node("extra")
        net.connect("extra", "amb", 1.0)
        temps = net.solve()
        assert temps["extra"] == pytest.approx(25.0)
        assert temps["chip"] == pytest.approx(25.0 + 5.0 * 12.0 / 7.0)
        net.add_boundary("chip", 10.0)  # newly pinned boundary
        temps = net.solve()
        assert temps["chip"] == 10.0
        # (T - 10) / 1 + (T - 25) / 2 = 0
        assert temps["sink"] == pytest.approx(15.0)

    def test_cached_resolve_is_bit_identical(self):
        net = self._net()
        first = net.solve()
        second = net.solve()
        assert second.keys() == first.keys()
        for node in first:
            assert second[node] == first[node]
