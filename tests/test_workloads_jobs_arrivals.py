"""Tests for repro.workloads.job and repro.workloads.arrivals."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads.arrivals import ArrivalProcess, load_to_arrival_rate
from repro.workloads.benchmark import BenchmarkSet
from repro.workloads.job import Job
from repro.workloads.pcmark import PCMARK_APPS


def make_job(**overrides):
    kwargs = dict(
        job_id=1, app=PCMARK_APPS[0], arrival_s=0.5, work_ms=4.0
    )
    kwargs.update(overrides)
    return Job(**kwargs)


class TestJob:
    def test_nominal_duration(self):
        assert make_job(work_ms=8.0).nominal_duration_s == pytest.approx(
            0.008
        )

    def test_runtime_expansion_at_full_speed(self):
        job = make_job(work_ms=10.0)
        job.start_s = 1.0
        job.finish_s = 1.010
        assert job.runtime_expansion == pytest.approx(1.0)

    def test_runtime_expansion_when_throttled(self):
        job = make_job(work_ms=10.0)
        job.start_s = 1.0
        job.finish_s = 1.020
        assert job.runtime_expansion == pytest.approx(2.0)

    def test_response_time_includes_queueing(self):
        job = make_job(arrival_s=1.0, work_ms=10.0)
        job.start_s = 1.5
        job.finish_s = 1.510
        assert job.response_time_s == pytest.approx(0.510)

    def test_incomplete_job_rejects_metrics(self):
        job = make_job()
        assert not job.completed
        with pytest.raises(WorkloadError):
            _ = job.runtime_expansion
        with pytest.raises(WorkloadError):
            _ = job.response_time_s

    def test_invalid_inputs_rejected(self):
        with pytest.raises(WorkloadError):
            make_job(arrival_s=-1.0)
        with pytest.raises(WorkloadError):
            make_job(work_ms=0.0)


class TestLoadToArrivalRate:
    def test_basic_rate(self):
        # 0.5 load, 100 sockets, 10 ms jobs -> 5000 jobs/s.
        assert load_to_arrival_rate(0.5, 100, 10.0) == pytest.approx(
            5000.0
        )

    def test_invalid_load_rejected(self):
        with pytest.raises(WorkloadError):
            load_to_arrival_rate(0.0, 10, 5.0)
        with pytest.raises(WorkloadError):
            load_to_arrival_rate(1.5, 10, 5.0)

    def test_invalid_sockets_rejected(self):
        with pytest.raises(WorkloadError):
            load_to_arrival_rate(0.5, 0, 5.0)


class TestArrivalProcess:
    def _process(self, **overrides):
        kwargs = dict(
            benchmark_set=BenchmarkSet.COMPUTATION,
            load=0.5,
            n_sockets=36,
            seed=7,
        )
        kwargs.update(overrides)
        return ArrivalProcess(**kwargs)

    def test_arrivals_sorted_and_within_horizon(self):
        jobs = self._process().generate(2.0)
        times = [j.arrival_s for j in jobs]
        assert times == sorted(times)
        assert all(0 <= t < 2.0 for t in times)

    def test_deterministic_given_seed(self):
        a = self._process().generate(1.0)
        b = self._process().generate(1.0)
        assert [j.arrival_s for j in a] == [j.arrival_s for j in b]
        assert [j.work_ms for j in a] == [j.work_ms for j in b]

    def test_different_seeds_differ(self):
        a = self._process(seed=1).generate(1.0)
        b = self._process(seed=2).generate(1.0)
        assert [j.arrival_s for j in a] != [j.arrival_s for j in b]

    def test_rate_scales_with_load(self):
        low = self._process(load=0.2).rate_per_s
        high = self._process(load=0.8).rate_per_s
        assert high == pytest.approx(4 * low)

    def test_sustained_capacity_normalisation(self):
        """Load 1.0 saturates the sustained-frequency capacity."""
        process = self._process(load=1.0)
        # Computation: perf(1500) = 1 - 0.35/2 = 0.825.
        assert process.sustained_perf_factor == pytest.approx(0.825)
        nominal = load_to_arrival_rate(
            1.0, 36, process.mean_duration_ms
        )
        assert process.rate_per_s == pytest.approx(0.825 * nominal)

    def test_empirical_rate_close_to_nominal(self):
        process = self._process(load=0.5)
        jobs = process.generate(20.0)
        empirical = len(jobs) / 20.0
        assert empirical == pytest.approx(process.rate_per_s, rel=0.1)

    def test_duration_scale_preserves_load(self):
        base = self._process()
        scaled = self._process(duration_scale=10.0)
        assert scaled.mean_duration_ms == pytest.approx(
            10 * base.mean_duration_ms
        )
        assert scaled.rate_per_s == pytest.approx(
            base.rate_per_s / 10.0
        )

    def test_apps_come_from_requested_set(self):
        jobs = self._process().generate(1.0)
        assert all(
            j.app.benchmark_set == BenchmarkSet.COMPUTATION for j in jobs
        )

    def test_job_ids_sequential(self):
        jobs = self._process().generate(1.0)
        assert [j.job_id for j in jobs] == list(range(len(jobs)))

    def test_invalid_horizon_rejected(self):
        with pytest.raises(WorkloadError):
            self._process().generate(0.0)

    def test_invalid_load_rejected(self):
        with pytest.raises(WorkloadError):
            self._process(load=0.0)

    def test_invalid_duration_scale_rejected(self):
        with pytest.raises(WorkloadError):
            self._process(duration_scale=0.0)
