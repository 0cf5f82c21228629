"""Property-based tests (hypothesis) for the workload substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server.processors import X2150_LADDER
from repro.workloads.arrivals import ArrivalProcess
from repro.workloads.benchmark import BenchmarkSet
from repro.workloads.pcmark import PCMARK_APPS
from repro.workloads.perf_model import PerfModel
from repro.workloads.power_model import (
    LEAKAGE_FLOOR_FRACTION,
    LEAKAGE_REFERENCE_C,
    LEAKAGE_TDP_FRACTION,
    LEAKAGE_TEMP_COEFF,
    PowerModel,
    leakage_array,
    leakage_power,
)

benchmark_sets = st.sampled_from(list(BenchmarkSet))
ladder_freqs = st.sampled_from(X2150_LADDER.states_mhz)
temperatures = st.floats(min_value=0.0, max_value=120.0)


class TestPowerModelProperties:
    @given(benchmark_set=benchmark_sets, freq=ladder_freqs, t=temperatures)
    def test_total_power_positive(self, benchmark_set, freq, t):
        model = PowerModel.for_set(benchmark_set)
        assert model.total_power(freq, t) > 0.0

    @given(benchmark_set=benchmark_sets, t=temperatures)
    def test_power_monotone_in_frequency(self, benchmark_set, t):
        model = PowerModel.for_set(benchmark_set)
        powers = [
            model.total_power(f, t) for f in X2150_LADDER.states_mhz
        ]
        assert powers == sorted(powers)

    @given(benchmark_set=benchmark_sets, freq=ladder_freqs)
    def test_power_monotone_in_temperature(self, benchmark_set, freq):
        model = PowerModel.for_set(benchmark_set)
        assert model.total_power(freq, 95.0) >= model.total_power(
            freq, 40.0
        )

    @given(t1=temperatures, t2=temperatures)
    def test_leakage_monotone(self, t1, t2):
        if t1 <= t2:
            assert leakage_power(t1, 22.0) <= leakage_power(t2, 22.0)

    @given(benchmark_set=benchmark_sets)
    def test_dynamic_power_bounded_by_max(self, benchmark_set):
        model = PowerModel.for_set(benchmark_set)
        for f in X2150_LADDER.states_mhz:
            assert (
                model.dynamic_power(f)
                <= model.dynamic_power_at_max_w + 1e-9
            )


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _leakage_formula(chip, tdp):
    """The leakage law written out, in the kernel's operation order."""
    factor = np.maximum(
        1.0 + LEAKAGE_TEMP_COEFF * (chip - LEAKAGE_REFERENCE_C),
        LEAKAGE_FLOOR_FRACTION,
    )
    return factor * LEAKAGE_TDP_FRACTION * tdp


class TestLeakageKernel:
    """``leakage_array`` and ``leakage_power`` against the written-out
    law, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(min_value=1, max_value=4),
        n=st.integers(min_value=2, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_bit_identical_to_leakage_power(self, rows, n, seed):
        rng = np.random.default_rng(seed)
        chip = rng.uniform(-100.0, 130.0, (rows, n))
        # Below -60 degC the linear law falls under the 0.25 floor.
        chip[:, 0] = rng.uniform(-200.0, -60.0, rows)
        tdp = rng.uniform(1.0, 150.0, n)
        expected = _leakage_formula(chip, tdp)
        assert (
            expected[:, 0]
            == LEAKAGE_FLOOR_FRACTION * LEAKAGE_TDP_FRACTION * tdp[0]
        ).all()

        # The scalar-TDP front end returns the kernel's bits: an array
        # for an array of temperatures, a float for one temperature.
        assert _same_bits(
            leakage_power(chip, tdp[1]), _leakage_formula(chip, tdp[1])
        )
        one = leakage_power(float(chip[0, 1]), tdp[1])
        assert type(one) is float
        assert one == _leakage_formula(chip[0, 1], tdp[1])

        # A (rows, n) block broadcast against one TDP vector, one row,
        # and each written into a caller's buffer.
        assert _same_bits(leakage_array(chip, tdp), expected)
        assert _same_bits(leakage_array(chip[0], tdp), expected[0])
        out = np.empty((rows, n))
        assert leakage_array(chip, tdp, out=out) is out
        assert _same_bits(out, expected)
        row_out = np.empty(n)
        assert leakage_array(chip[-1], tdp, out=row_out) is row_out
        assert _same_bits(row_out, expected[-1])


class TestPerfModelProperties:
    @given(benchmark_set=benchmark_sets, freq=ladder_freqs)
    def test_perf_in_unit_interval(self, benchmark_set, freq):
        model = PerfModel.for_set(benchmark_set)
        assert 0.0 < model.relative_performance(freq) <= 1.0

    @given(benchmark_set=benchmark_sets, freq=ladder_freqs)
    def test_expansion_is_inverse_perf(self, benchmark_set, freq):
        model = PerfModel.for_set(benchmark_set)
        assert model.runtime_expansion(freq) == pytest.approx(
            1.0 / model.relative_performance(freq)
        )

    @given(freq=ladder_freqs)
    def test_storage_least_sensitive(self, freq):
        storage = PerfModel.for_set(BenchmarkSet.STORAGE)
        computation = PerfModel.for_set(BenchmarkSet.COMPUTATION)
        assert storage.relative_performance(
            freq
        ) >= computation.relative_performance(freq)


class TestApplicationProperties:
    @settings(max_examples=30)
    @given(
        app_index=st.integers(0, len(PCMARK_APPS) - 1),
        power=st.floats(0.0, 30.0),
    )
    def test_block_power_map_conserves(self, app_index, power):
        app = PCMARK_APPS[app_index]
        blocks = app.block_power_map(power)
        assert sum(blocks.values()) == pytest.approx(power)
        assert all(v >= 0 for v in blocks.values())

    @settings(max_examples=20)
    @given(
        app_index=st.integers(0, len(PCMARK_APPS) - 1),
        seed=st.integers(0, 2**31),
    )
    def test_sampled_durations_positive(self, app_index, seed):
        app = PCMARK_APPS[app_index]
        rng = np.random.default_rng(seed)
        samples = app.sample_durations_ms(100, rng)
        assert (samples > 0).all()


class TestArrivalProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        load=st.floats(0.05, 1.0),
        seed=st.integers(0, 1000),
    )
    def test_arrivals_sorted_within_horizon(self, load, seed):
        process = ArrivalProcess(
            benchmark_set=BenchmarkSet.GENERAL_PURPOSE,
            load=load,
            n_sockets=24,
            seed=seed,
        )
        jobs = process.generate(1.0)
        times = [j.arrival_s for j in jobs]
        assert times == sorted(times)
        assert all(0.0 <= t < 1.0 for t in times)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_job_count_scales_with_load(self, seed):
        def count(load):
            return len(
                ArrivalProcess(
                    benchmark_set=BenchmarkSet.STORAGE,
                    load=load,
                    n_sockets=24,
                    seed=seed,
                ).generate(5.0)
            )

        assert count(0.9) > count(0.1)
