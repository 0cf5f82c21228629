"""Tests for the crash-resilient sweep harness.

Covers the bounded LRU sweep cache, on-disk checkpointing (atomic
writes, corruption tolerance, bit-identical resume after a hard kill),
and the pool recovery ladder: transient worker failures retry with
backoff, worker deaths rebuild the pool, and deterministic errors
propagate immediately.
"""

import os
import pickle
import signal
import subprocess
import sys

import pytest

from repro.config.presets import smoke
from repro.errors import SimulationError
from repro.sim import parallel
from repro.sim.checkpoint import CHECKPOINT_SUFFIX, SweepCheckpoint
from repro.sim.fingerprint import result_fingerprint
from repro.sim.parallel import (
    SweepCache,
    _fork_available,
    config_key,
    execute_sweep,
)
from repro.sim.results import SimulationResult
from repro.workloads.benchmark import BenchmarkSet

POINTS = [
    ("CF", BenchmarkSet.COMPUTATION, 0.3),
    ("HF", BenchmarkSet.COMPUTATION, 0.3),
    ("CF", BenchmarkSet.COMPUTATION, 0.7),
    ("CP", BenchmarkSet.COMPUTATION, 0.7),
]

needs_fork = pytest.mark.skipif(
    not _fork_available(), reason="platform cannot fork"
)


def _fingerprints(results):
    return [result_fingerprint(r) for r in results]


class TestLRUCache:
    @pytest.fixture(autouse=True)
    def bound_of_two(self, monkeypatch):
        monkeypatch.setattr(parallel, "CACHE_MAX", 2)

    def _result(self, small_sut):
        return SimulationResult("stub", smoke(), small_sut)

    def test_evicts_least_recently_used(self, small_sut):
        cache = SweepCache()
        stub = self._result(small_sut)
        cache.put("a", stub)
        cache.put("b", stub)
        cache.put("c", stub)
        assert cache.keys() == ["b", "c"]
        assert cache.evictions == 1
        assert len(cache) == 2
        assert cache.get("a") is None

    def test_hits_refresh_recency(self, small_sut):
        cache = SweepCache()
        stub = self._result(small_sut)
        cache.put("a", stub)
        cache.put("b", stub)
        assert cache.get("a") is stub
        cache.put("c", stub)
        # "b" (least recently used) went, not "a".
        assert cache.keys() == ["a", "c"]
        assert cache.get("b") is None

    def test_reinsert_refreshes_recency(self, small_sut):
        cache = SweepCache()
        stub = self._result(small_sut)
        cache.put("a", stub)
        cache.put("b", stub)
        cache.put("a", stub)
        cache.put("c", stub)
        assert cache.keys() == ["a", "c"]

    def test_counters_and_clear(self, small_sut, monkeypatch):
        monkeypatch.setattr(parallel, "CACHE_MAX", 1)
        cache = SweepCache()
        stub = self._result(small_sut)
        cache.put("a", stub)
        cache.get("a")
        cache.get("missing")
        cache.put("b", stub)
        assert (cache.hits, cache.misses, cache.evictions) == (1, 1, 1)
        cache.clear()
        assert (cache.hits, cache.misses, cache.evictions) == (0, 0, 0)
        assert len(cache) == 0


class TestSweepCheckpoint:
    def test_roundtrip(self, tmp_path, small_sut):
        checkpoint = SweepCheckpoint(tmp_path)
        result = SimulationResult("stub", smoke(), small_sut)
        checkpoint.save("k1", result)
        loaded = checkpoint.load("k1")
        assert loaded.scheduler_name == "stub"
        assert checkpoint.saves == 1 and checkpoint.loads == 1
        assert len(checkpoint) == 1

    def test_missing_key_is_a_miss(self, tmp_path):
        checkpoint = SweepCheckpoint(tmp_path)
        assert checkpoint.load("nothing") is None
        assert checkpoint.loads == 0

    def test_corrupt_file_dropped_and_recomputed(
        self, tmp_path, small_sut
    ):
        checkpoint = SweepCheckpoint(tmp_path)
        path = tmp_path / f"bad{CHECKPOINT_SUFFIX}"
        path.write_bytes(b"truncated garbage")
        assert checkpoint.load("bad") is None
        assert checkpoint.dropped == 1
        assert not path.exists()

    def test_wrong_type_dropped(self, tmp_path):
        checkpoint = SweepCheckpoint(tmp_path)
        path = tmp_path / f"odd{CHECKPOINT_SUFFIX}"
        path.write_bytes(pickle.dumps({"not": "a result"}))
        assert checkpoint.load("odd") is None
        assert checkpoint.dropped == 1

    def test_no_temp_files_left_behind(self, tmp_path, small_sut):
        checkpoint = SweepCheckpoint(tmp_path)
        result = SimulationResult("stub", smoke(), small_sut)
        for i in range(3):
            checkpoint.save(f"k{i}", result)
        leftovers = [
            name
            for name in os.listdir(tmp_path)
            if name.startswith(".tmp-")
        ]
        assert leftovers == []

    def test_file_path_rejected(self, tmp_path):
        file_path = tmp_path / "plain"
        file_path.write_text("x")
        with pytest.raises(SimulationError):
            SweepCheckpoint(file_path)


class TestCheckpointedSweep:
    def test_partial_then_full_resume_is_bit_identical(
        self, tmp_path, small_sut
    ):
        params = smoke(seed=2)
        fresh = execute_sweep(small_sut, params, POINTS)
        checkpoint = SweepCheckpoint(tmp_path)
        execute_sweep(
            small_sut, params, POINTS[:2], checkpoint=checkpoint
        )
        assert len(checkpoint) == 2
        resumed_cp = SweepCheckpoint(tmp_path)
        resumed = execute_sweep(
            small_sut, params, POINTS, checkpoint=resumed_cp
        )
        assert resumed_cp.loads == 2
        assert _fingerprints(resumed) == _fingerprints(fresh)

    def test_sigkill_mid_sweep_resumes_bit_identically(
        self, tmp_path, small_sut
    ):
        """A sweep hard-killed after 2 points resumes from disk.

        The victim process runs the real serial sweep with
        checkpointing and SIGKILLs itself the moment two points are on
        disk — no clean shutdown, no atexit.  The resumed sweep must
        load exactly those two points and reproduce the uninterrupted
        sweep bit-for-bit.
        """
        script = """
import os, signal
from repro.config.presets import smoke
from repro.server.topology import moonshot_sut
from repro.sim import parallel
from repro.sim.checkpoint import CHECKPOINT_SUFFIX, SweepCheckpoint
from repro.sim.parallel import execute_sweep
from repro.workloads.benchmark import BenchmarkSet

directory = os.environ["CKPT_DIR"]
real_run_point = parallel._run_point

def killing_run_point(*args, **kwargs):
    done = sum(
        1 for name in os.listdir(directory)
        if name.endswith(CHECKPOINT_SUFFIX)
    ) if os.path.isdir(directory) else 0
    if done >= 2:
        os.kill(os.getpid(), signal.SIGKILL)
    return real_run_point(*args, **kwargs)

parallel._run_point = killing_run_point
points = [
    ("CF", BenchmarkSet.COMPUTATION, 0.3),
    ("HF", BenchmarkSet.COMPUTATION, 0.3),
    ("CF", BenchmarkSet.COMPUTATION, 0.7),
    ("CP", BenchmarkSet.COMPUTATION, 0.7),
]
execute_sweep(
    moonshot_sut(n_rows=2), smoke(seed=2), points,
    checkpoint=SweepCheckpoint(directory),
)
raise SystemExit("sweep was supposed to be killed")
"""
        env = dict(os.environ, CKPT_DIR=str(tmp_path))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")])
        )
        victim = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            cwd=os.path.dirname(os.path.dirname(__file__)),
            capture_output=True,
            timeout=300,
        )
        assert victim.returncode == -signal.SIGKILL, victim.stderr
        checkpoint = SweepCheckpoint(tmp_path)
        assert len(checkpoint) == 2

        params = smoke(seed=2)
        resumed = execute_sweep(
            small_sut, params, POINTS, checkpoint=checkpoint
        )
        assert checkpoint.loads == 2
        fresh = execute_sweep(small_sut, params, POINTS)
        assert _fingerprints(resumed) == _fingerprints(fresh)


class _FlakyRunPoint:
    """Fork-inheritable stand-in for ``parallel._run_point``.

    Misbehaves (once, or always) for one victim scheduler, then runs
    the real point.  A marker file records attempts across processes.
    """

    def __init__(self, marker, victim, mode):
        self.marker = marker
        self.victim = victim
        self.mode = mode

    def _attempts(self):
        try:
            with open(self.marker) as handle:
                return len(handle.read())
        except FileNotFoundError:
            return 0

    def __call__(
        self,
        topology,
        params,
        point,
        audit,
        fault_schedule=None,
        telemetry=None,
        profile=False,
        point_key=None,
    ):
        from repro.core import get_scheduler
        from repro.sim.runner import run_once

        name, benchmark_set, load = point
        if name == self.victim:
            first = self._attempts() == 0
            with open(self.marker, "a") as handle:
                handle.write("x")
            if first:
                if self.mode == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                if self.mode == "raise":
                    raise RuntimeError("transient worker failure")
            if self.mode == "fatal":
                raise SimulationError("deterministic failure")
        return run_once(
            topology,
            params,
            get_scheduler(name),
            benchmark_set,
            load,
            fault_schedule=fault_schedule,
            telemetry=telemetry,
            profile=profile,
        )


@needs_fork
class TestPoolRecovery:
    @pytest.fixture
    def serial_fingerprints(self, small_sut):
        return _fingerprints(
            execute_sweep(small_sut, smoke(seed=2), POINTS)
        )

    def _patched(self, monkeypatch, tmp_path, mode):
        flaky = _FlakyRunPoint(str(tmp_path / "marker"), "HF", mode)
        monkeypatch.setattr(parallel, "_run_point", flaky)
        monkeypatch.setattr(parallel, "_RETRY_BACKOFF_S", 0.01)
        return flaky

    def test_raise_once_point_retries_and_succeeds(
        self, monkeypatch, tmp_path, small_sut, serial_fingerprints
    ):
        flaky = self._patched(monkeypatch, tmp_path, "raise")
        results = execute_sweep(
            small_sut,
            smoke(seed=2),
            POINTS,
            max_workers=2,
        )
        assert flaky._attempts() == 2
        assert _fingerprints(results) == serial_fingerprints

    def test_killed_worker_rebuilds_pool_and_succeeds(
        self, monkeypatch, tmp_path, small_sut, serial_fingerprints
    ):
        flaky = self._patched(monkeypatch, tmp_path, "kill")
        results = execute_sweep(
            small_sut,
            smoke(seed=2),
            POINTS,
            max_workers=2,
        )
        assert flaky._attempts() == 2
        assert _fingerprints(results) == serial_fingerprints

    def test_deterministic_error_propagates_without_retry(
        self, monkeypatch, tmp_path, small_sut
    ):
        flaky = self._patched(monkeypatch, tmp_path, "fatal")
        with pytest.raises(SimulationError, match="deterministic"):
            execute_sweep(
                small_sut,
                smoke(seed=2),
                POINTS,
                max_workers=2,
            )
        assert flaky._attempts() == 1

    def test_finished_points_checkpoint_despite_crashes(
        self, monkeypatch, tmp_path, small_sut
    ):
        self._patched(monkeypatch, tmp_path, "kill")
        checkpoint = SweepCheckpoint(tmp_path / "ckpt")
        execute_sweep(
            small_sut,
            smoke(seed=2),
            POINTS,
            max_workers=2,
            checkpoint=checkpoint,
        )
        assert len(checkpoint) == len(POINTS)


class TestValidation:
    def test_fault_schedule_keys_are_distinct(self, small_sut):
        from repro.faults import FaultSchedule, SocketKillFault

        params = smoke(seed=2)
        schedule = FaultSchedule(
            events=(SocketKillFault(socket_id=0, start_s=1.0),)
        )
        plain = config_key(
            small_sut, params, "CF", BenchmarkSet.COMPUTATION, 0.5
        )
        faulted = config_key(
            small_sut,
            params,
            "CF",
            BenchmarkSet.COMPUTATION,
            0.5,
            fault_schedule=schedule,
        )
        empty = config_key(
            small_sut,
            params,
            "CF",
            BenchmarkSet.COMPUTATION,
            0.5,
            fault_schedule=FaultSchedule(),
        )
        assert len({plain, faulted, empty}) == 3
