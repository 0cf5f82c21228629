"""Tests for repro.sim.parallel: equivalence, caching, fallback."""

import numpy as np
import pytest

from repro.config.presets import smoke
from repro.errors import ConfigurationError, SchedulingError
from repro.sim import parallel
from repro.sim.parallel import (
    SweepCache,
    config_key,
    execute_sweep,
    topology_token,
)
from repro.sim.runner import run_sweep
from repro.workloads.benchmark import BenchmarkSet

GRID = dict(
    scheduler_names=("CF", "HF", "CP"),
    benchmark_sets=(BenchmarkSet.COMPUTATION,),
    loads=(0.3, 0.7),
)


def assert_results_identical(a, b):
    """Bit-identical comparison of two sweep result mappings."""
    assert set(a) == set(b)
    for key in a:
        ra, rb = a[key], b[key]
        assert ra.scheduler_name == rb.scheduler_name
        assert ra.n_jobs_submitted == rb.n_jobs_submitted
        assert ra.n_jobs_completed == rb.n_jobs_completed
        assert ra.energy_j == rb.energy_j
        assert ra.max_queue_length == rb.max_queue_length
        assert np.array_equal(ra.work_done, rb.work_done)
        assert np.array_equal(ra.busy_time_s, rb.busy_time_s)
        assert np.array_equal(ra.freq_time_product, rb.freq_time_product)
        assert np.array_equal(ra.max_chip_c, rb.max_chip_c)
        assert [
            (j.job_id, j.socket_id, j.start_s, j.finish_s)
            for j in ra.completed_jobs
        ] == [
            (j.job_id, j.socket_id, j.start_s, j.finish_s)
            for j in rb.completed_jobs
        ]


class TestParallelSerialEquivalence:
    def test_workers4_bit_identical_to_serial(self, small_sut):
        params = smoke(seed=2)
        serial = run_sweep(small_sut, params, **GRID, max_workers=1)
        parallel_results = run_sweep(
            small_sut, params, **GRID, max_workers=4
        )
        assert_results_identical(serial, parallel_results)

    def test_serial_runs_repeat_identically(self, small_sut):
        params = smoke(seed=2)
        first = run_sweep(small_sut, params, **GRID)
        second = run_sweep(small_sut, params, **GRID)
        assert_results_identical(first, second)

    def test_audited_run_matches_unaudited(self, small_sut):
        """Auditing is read-only: it changes no metric bit."""
        params = smoke(seed=5)
        plain = run_sweep(small_sut, params, **GRID)
        audited = run_sweep(small_sut, params, **GRID, audit=True)
        assert_results_identical(plain, audited)

    def test_scheduler_error_propagates_from_worker(self, small_sut):
        with pytest.raises(SchedulingError):
            run_sweep(
                small_sut,
                smoke(),
                scheduler_names=("no-such-policy",),
                benchmark_sets=(BenchmarkSet.STORAGE,),
                loads=(0.5,),
                max_workers=4,
            )


class TestSweepCache:
    def test_repeat_sweep_hits_cache(self, small_sut):
        cache = SweepCache()
        params = smoke(seed=9)
        first = run_sweep(small_sut, params, **GRID, cache=cache)
        n_points = len(first)
        assert cache.misses == n_points
        assert cache.hits == 0
        second = run_sweep(small_sut, params, **GRID, cache=cache)
        assert cache.hits == n_points
        assert all(first[key] is second[key] for key in first)

    def test_cache_discriminates_seed(self, small_sut):
        cache = SweepCache()
        run_sweep(small_sut, smoke(seed=1), **GRID, cache=cache)
        run_sweep(small_sut, smoke(seed=2), **GRID, cache=cache)
        assert cache.hits == 0
        assert len(cache) == 2 * len(
            GRID["scheduler_names"]
        ) * len(GRID["loads"])

    def test_shared_cache_opt_in(self, small_sut):
        parallel.clear_shared_cache()
        try:
            params = smoke(seed=3)
            cache = parallel.shared_cache
            run_sweep(small_sut, params, **GRID, cache=cache)
            before = parallel.shared_cache.hits
            run_sweep(small_sut, params, **GRID, cache=cache)
            assert parallel.shared_cache.hits - before == len(
                GRID["scheduler_names"]
            ) * len(GRID["loads"])
        finally:
            parallel.clear_shared_cache()

    def test_default_sweep_does_not_populate_shared_cache(
        self, small_sut
    ):
        parallel.clear_shared_cache()
        run_sweep(
            small_sut,
            smoke(seed=8),
            scheduler_names=("CF",),
            benchmark_sets=(BenchmarkSet.STORAGE,),
            loads=(0.5,),
        )
        assert len(parallel.shared_cache) == 0

    def test_clear_resets_counters(self):
        cache = SweepCache()
        cache.put("k", object())
        cache.get("k")
        cache.get("missing")
        cache.clear()
        assert (len(cache), cache.hits, cache.misses) == (0, 0, 0)

    def test_explicit_bounds_bypass_env(self, monkeypatch):
        """The bound is 256 unless the caller passes one; the
        environment never sets it."""
        monkeypatch.setenv("REPRO_CACHE_MAX", "3")
        assert SweepCache().max_entries == 256
        assert SweepCache(max_entries=7).max_entries == 7
        assert SweepCache(max_entries=None).max_entries is None

    def test_negative_bound_rejected(self):
        for bound in (-1, -5):
            with pytest.raises(ConfigurationError, match="must be positive"):
                SweepCache(max_entries=bound)

    def test_zero_bound_rejected(self):
        with pytest.raises(
            ConfigurationError, match="would cache nothing"
        ):
            SweepCache(max_entries=0)

    def test_non_int_bound_rejected(self):
        with pytest.raises(ConfigurationError, match="float"):
            SweepCache(max_entries=2.5)
        with pytest.raises(ConfigurationError, match="str"):
            SweepCache(max_entries="8")


class TestConfigKey:
    def test_equal_configs_equal_keys(self, small_sut):
        a = config_key(
            small_sut, smoke(seed=4), "CF", BenchmarkSet.STORAGE, 0.5
        )
        b = config_key(
            small_sut, smoke(seed=4), "CF", BenchmarkSet.STORAGE, 0.5
        )
        assert a == b

    @pytest.mark.parametrize(
        "name,benchmark_set,load,seed",
        [
            ("HF", BenchmarkSet.STORAGE, 0.5, 4),
            ("CF", BenchmarkSet.COMPUTATION, 0.5, 4),
            ("CF", BenchmarkSet.STORAGE, 0.7, 4),
            ("CF", BenchmarkSet.STORAGE, 0.5, 5),
        ],
    )
    def test_any_field_change_changes_key(
        self, small_sut, name, benchmark_set, load, seed
    ):
        base = config_key(
            small_sut, smoke(seed=4), "CF", BenchmarkSet.STORAGE, 0.5
        )
        other = config_key(
            small_sut, smoke(seed=seed), name, benchmark_set, load
        )
        assert base != other

    def test_topology_token_sensitive_to_geometry(self, small_sut):
        from repro.server.topology import moonshot_sut

        assert topology_token(small_sut) != topology_token(
            moonshot_sut(n_rows=3)
        )
        assert topology_token(small_sut) == topology_token(
            moonshot_sut(n_rows=2)
        )

    def test_benchmark_set_values_unchanged(self):
        """Set values are hashed into every key; renaming one would
        orphan every existing cache entry and checkpoint."""
        assert [s.value for s in BenchmarkSet] == [
            "Computation", "Storage", "GP"
        ]


class TestSerialFallback:
    def test_single_point_runs_inline(self, small_sut, monkeypatch):
        """One pending point never pays for a pool."""

        def boom(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("pool must not be created")

        monkeypatch.setattr(parallel, "_run_pool", boom)
        results = execute_sweep(
            small_sut,
            smoke(),
            [("CF", BenchmarkSet.STORAGE, 0.5)],
            max_workers=8,
        )
        assert results[0].n_jobs_completed > 0

    def test_no_fork_falls_back_to_serial(self, small_sut, monkeypatch):
        monkeypatch.setattr(parallel, "_fork_available", lambda: False)
        monkeypatch.setattr(
            parallel,
            "_run_pool",
            lambda *a, **k: pytest.fail("pool used without fork"),
        )
        results = execute_sweep(
            small_sut,
            smoke(),
            [
                ("CF", BenchmarkSet.STORAGE, 0.4),
                ("HF", BenchmarkSet.STORAGE, 0.4),
            ],
            max_workers=4,
        )
        assert len(results) == 2
        assert all(r.n_jobs_completed > 0 for r in results)

    def test_results_keep_submission_order(self, small_sut):
        points = [
            ("HF", BenchmarkSet.STORAGE, 0.6),
            ("CF", BenchmarkSet.STORAGE, 0.3),
            ("CP", BenchmarkSet.COMPUTATION, 0.5),
        ]
        results = execute_sweep(
            small_sut, smoke(), points, max_workers=4
        )
        assert [r.scheduler_name for r in results] == [
            "HF",
            "CF",
            "CP",
        ]


class TestRetryEdgeCases:
    """Crash-type pool failures must always reach the serial fallback."""

    class _BrokenAtSubmitPool:
        """A pool whose submit raises, like a pre-broken process pool."""

        instances = 0

        def __init__(self, *args, **kwargs):
            type(self).instances += 1

        def submit(self, *args, **kwargs):
            from concurrent.futures.process import BrokenProcessPool

            raise BrokenProcessPool("forked child died immediately")

        def shutdown(self, *args, **kwargs):
            pass

    class _BrokenAtResultPool:
        """A pool whose futures all fail with BrokenProcessPool."""

        def __init__(self, *args, **kwargs):
            pass

        def submit(self, *args, **kwargs):
            from concurrent.futures.process import BrokenProcessPool

            class _Future:
                def result(self, timeout=None):
                    raise BrokenProcessPool("worker crashed mid-run")

            return _Future()

        def shutdown(self, *args, **kwargs):
            pass

    def _run(self, small_sut, monkeypatch, pool_cls):
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", pool_cls)
        sleeps = []
        monkeypatch.setattr(
            parallel.time, "sleep", lambda s: sleeps.append(s)
        )
        params = smoke(seed=2)
        results = run_sweep(small_sut, params, **GRID, max_workers=4)
        return results, sleeps, params

    def test_submit_time_broken_pool_falls_back_to_serial(
        self, small_sut, monkeypatch
    ):
        """A pool broken before accepting work must not escape the
        retry machinery (regression: submit-phase exceptions used to
        propagate straight out of execute_sweep)."""
        self._BrokenAtSubmitPool.instances = 0
        results, sleeps, params = self._run(
            small_sut, monkeypatch, self._BrokenAtSubmitPool
        )
        reference = run_sweep(small_sut, params, **GRID, max_workers=1)
        assert_results_identical(results, reference)
        # Every round burned one pool, then serial completed the sweep.
        assert self._BrokenAtSubmitPool.instances == 3

    def test_budget_exhausted_on_final_round_completes_serially(
        self, small_sut, monkeypatch
    ):
        """Crashes through the last retry round leave every point to
        the serial leg, with the documented exponential backoff."""
        results, sleeps, params = self._run(
            small_sut, monkeypatch, self._BrokenAtResultPool
        )
        reference = run_sweep(small_sut, params, **GRID, max_workers=1)
        assert_results_identical(results, reference)
        # Two retry rounds after the first: backoff doubles each time.
        assert sleeps == [0.25, 0.5]

    def test_zero_retry_budget_goes_straight_to_serial(
        self, small_sut, monkeypatch
    ):
        monkeypatch.setattr(parallel, "_MAX_RETRIES", 0)
        results, sleeps, params = self._run(
            small_sut, monkeypatch, self._BrokenAtResultPool
        )
        reference = run_sweep(small_sut, params, **GRID, max_workers=1)
        assert_results_identical(results, reference)
        assert sleeps == []  # no retry rounds, no backoff

    def test_retry_rounds_are_telemetered(
        self, small_sut, monkeypatch, tmp_path
    ):
        from repro.obs.writer import read_events

        monkeypatch.setattr(
            parallel, "ProcessPoolExecutor", self._BrokenAtSubmitPool
        )
        monkeypatch.setattr(parallel.time, "sleep", lambda s: None)
        run_sweep(
            small_sut,
            smoke(seed=2),
            **GRID,
            max_workers=4,
            telemetry=tmp_path,
        )
        retries = [
            e
            for log in sorted(tmp_path.glob("*.jsonl"))
            for e in read_events(log)
            if e["type"] == "pool_retry"
        ]
        assert [e["round"] for e in retries] == [1, 2]
        assert all(
            e["remaining"] == len(GRID["loads"]) * 3 for e in retries
        )
