"""Parallel sweep execution over a process pool, with memoisation.

Every figure in the paper is a sweep over (scheduler x benchmark set x
load) and each point is an independent simulation, so the sweep is
embarrassingly parallel.  This module fans the points of a sweep out
over a :class:`concurrent.futures.ProcessPoolExecutor` while keeping
the results bit-identical to serial execution:

- each point's workload stream is derived deterministically from the
  simulation parameters' seed (never from worker identity, submission
  order or wall-clock), so a point computes the same result no matter
  which process runs it or when;
- results are collected back in submission order;
- execution falls back to the plain serial loop when ``max_workers <=
  1``, when there is only one point to run, when the platform cannot
  ``fork`` (the only start method that is both cheap and inherits the
  loaded modules), or when the pool fails to come up.

The pool path is additionally *crash-resilient*: a worker that dies
(OOM kill, segfault) breaks the pool, and the harness rebuilds it and
retries only the unfinished points, with exponential backoff, for up
to two more rounds before falling back to in-process serial execution
for whatever is left.  Deterministic failures — anything in the
:class:`~repro.errors.ReproError` hierarchy, such as an
:class:`~repro.sim.invariants.InvariantViolation` — propagate
immediately: re-running a deterministic simulation cannot change its
outcome.

A process-wide :class:`SweepCache` memoises results keyed on the full
configuration (topology, parameters, scheduler name, benchmark set,
load, fault schedule), so repeated figure runs in one process — e.g.
Figure 14 and Figure 15 share their entire grid — skip identical
configurations.  The cache holds at most :data:`DEFAULT_CACHE_MAX`
entries (least-recently-used eviction), bounding sweep memory on large
grids.  Cached results are returned by reference; callers must treat
:class:`~repro.sim.results.SimulationResult` objects as read-only
(which every experiment already does).  For durability *across*
processes, pass a :class:`~repro.sim.checkpoint.SweepCheckpoint`:
every finished point is persisted immediately, so an interrupted sweep
resumes bit-identically.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

from ..config.parameters import SimulationParameters
from ..errors import ConfigurationError, ReproError
from ..obs.events import EventBus
from ..obs.writer import JsonlWriter
from ..server.topology import ServerTopology
from ..workloads.benchmark import BenchmarkSet
from .checkpoint import SweepCheckpoint
from .results import SimulationResult

#: One sweep point: (scheduler name, benchmark set, load).
SweepPoint = Tuple[str, BenchmarkSet, float]

#: Default bound of a :class:`SweepCache`, in results.
DEFAULT_CACHE_MAX = 256

#: Pool rounds re-attempted after worker crashes before the leftover
#: points run serially.
_MAX_RETRIES = 2

#: Base of the exponential sleep between retry rounds, seconds.
_RETRY_BACKOFF_S = 0.25


def topology_token(topology: ServerTopology) -> bytes:
    """A stable byte string identifying a topology's full geometry.

    Two topologies with equal tokens produce identical simulations for
    equal parameters: the token covers the grid shape, the processor,
    the per-socket sink arrays and the assembled coupling matrix.
    """
    scalars = (
        type(topology).__name__,
        topology.n_rows,
        topology.lanes_per_row,
        topology.chain_length,
        topology.sockets_per_cartridge_depth,
        topology.socket_airflow_cfm,
        topology.mixing_factor,
        topology.intra_cartridge_decay,
        topology.inter_cartridge_decay,
        repr(topology.processor),
    )
    parts = [repr(scalars).encode()]
    for array in (
        topology.r_ext_array,
        topology.theta_offset_array,
        topology.theta_slope_array,
        topology.tdp_array,
        topology.gated_power_array,
        topology.coupling.matrix,
    ):
        parts.append(array.tobytes())
    return b"|".join(parts)


def config_key(
    topology: ServerTopology,
    params: SimulationParameters,
    scheduler_name: str,
    benchmark_set: BenchmarkSet,
    load: float,
    fault_schedule=None,
) -> str:
    """Memo-cache and checkpoint key for one fully specified sweep point.

    A bare sha256 hex digest.  Other layers that share a
    :class:`SweepCache` prefix their own keys, so they never collide
    with these.

    Args:
        fault_schedule: Optional :class:`~repro.faults.schedule.
            FaultSchedule` active for the point; its content fingerprint
            joins the key, so faulted and fault-free runs of the same
            grid point never collide in the cache or on disk.
    """
    digest = hashlib.sha256()
    digest.update(topology_token(topology))
    digest.update(repr(params).encode())
    digest.update(
        f"|{scheduler_name}|{benchmark_set.value}|{load!r}".encode()
    )
    if fault_schedule is not None:
        digest.update(b"|faults:")
        digest.update(fault_schedule.fingerprint().encode())
    return digest.hexdigest()


class SweepCache:
    """Bounded, process-local LRU memo cache for sweep results.

    Engine sweep results are keyed by :func:`config_key`; any other
    layer that stores results here brings its own prefixed keys, so
    all entries share the bound without ever aliasing.

    Holds at most ``max_entries`` results, evicting the least recently
    *used* entry (both hits and inserts refresh recency) when full — a
    month-long grid of large result objects cannot grow memory without
    bound.

    Attributes:
        max_entries: Capacity; ``None`` means unbounded.
        hits: Lookups answered from the cache.
        misses: Lookups that fell through to a simulation run.
        evictions: Entries dropped to respect ``max_entries``.
    """

    def __init__(self, max_entries: Optional[int] = DEFAULT_CACHE_MAX):
        if max_entries is not None and not isinstance(max_entries, int):
            raise ConfigurationError(
                f"cache max_entries must be an int or None, got "
                f"{type(max_entries).__name__} ({max_entries!r})"
            )
        if max_entries is not None and max_entries < 1:
            raise ConfigurationError(
                f"cache max_entries must be positive (0 would cache "
                f"nothing), or None to run unbounded; got {max_entries}"
            )
        self.max_entries = max_entries
        self._store: "OrderedDict[str, SimulationResult]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: str) -> Optional[SimulationResult]:
        """The cached result for ``key``, counting the lookup."""
        result = self._store.get(key)
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
            self._store.move_to_end(key)
        return result

    def put(self, key: str, result: SimulationResult) -> None:
        """Store a result under its configuration key, evicting LRU."""
        self._store[key] = result
        self._store.move_to_end(key)
        if self.max_entries is not None:
            while len(self._store) > self.max_entries:
                self._store.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss/eviction counters."""
        self._store.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def keys(self) -> List[str]:
        """Cached keys, least recently used first."""
        return list(self._store)

    def __len__(self) -> int:
        return len(self._store)


#: Process-wide cache; ``ExperimentConfig.sweep`` passes it as
#: ``cache=``, so figures sharing grid points recompute nothing.
shared_cache = SweepCache()


def clear_shared_cache() -> None:
    """Empty the process-wide sweep cache (tests, memory pressure)."""
    shared_cache.clear()


def _run_point(
    topology: ServerTopology,
    params: SimulationParameters,
    point: SweepPoint,
    audit: bool,
    fault_schedule=None,
    telemetry=None,
    profile: bool = False,
    point_key: Optional[str] = None,
) -> SimulationResult:
    """Execute one sweep point; runs in workers and in the serial path.

    The scheduler is constructed *inside* the executing process from its
    registered name, so stateful policies always start fresh and no
    policy object ever crosses a process boundary.  Each point writes
    its own ``point-<key>`` log and manifest into the telemetry
    directory, named by the configuration key so artifacts from
    different points can never collide.
    """
    from ..core import get_scheduler  # local import: avoids cycle
    from .runner import run_once

    name, benchmark_set, load = point
    auditor = None
    if audit:
        from .invariants import InvariantAuditor

        auditor = InvariantAuditor()
    run_name = "run"
    if point_key is not None:
        run_name = f"point-{point_key[:12]}"
    return run_once(
        topology,
        params,
        get_scheduler(name),
        benchmark_set,
        load,
        auditor=auditor,
        fault_schedule=fault_schedule,
        telemetry=telemetry,
        profile=profile,
        run_name=run_name,
    )


def _fork_available() -> bool:
    """Whether the cheap ``fork`` start method exists on this platform."""
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - exotic platforms
        return False


def execute_sweep(
    topology: ServerTopology,
    params: SimulationParameters,
    points: Sequence[SweepPoint],
    max_workers: int = 1,
    audit: bool = False,
    cache: Optional[SweepCache] = None,
    fault_schedule=None,
    checkpoint: Optional[SweepCheckpoint] = None,
    telemetry=None,
    profile: bool = False,
) -> List[SimulationResult]:
    """Run every sweep point, in parallel where possible.

    Args:
        topology: Server geometry shared by every point.
        params: Simulation parameters shared by every point (each
            point's workload is re-derived from ``params.seed``, so
            results are independent of execution order).
        points: The (scheduler name, benchmark set, load) grid.
        max_workers: Process count; ``1`` forces the serial path.
        audit: Run each point under a fresh
            :class:`~repro.sim.invariants.InvariantAuditor`.
        cache: Optional memo cache consulted before and filled after
            execution.
        fault_schedule: Optional :class:`~repro.faults.schedule.
            FaultSchedule` replayed in every point (the schedule also
            joins the cache/checkpoint key).
        checkpoint: Optional :class:`~repro.sim.checkpoint.
            SweepCheckpoint`; finished points load from it up front and
            every newly computed point persists to it *immediately*, so
            a sweep killed mid-flight resumes bit-identically.  Every
            persisted point gets a ``.manifest.json`` provenance
            sidecar recording the full recipe and result fingerprint.
        telemetry: Optional directory.  The harness appends its own
            events (``sweep_start``, ``cache_hit``, ``point_done``,
            ``checkpoint_write``, ``pool_retry``, ``sweep_end``) to
            ``sweep.jsonl`` there — append mode, so an
            interrupted-and-resumed sweep keeps one continuous harness
            log — and each executed point records its own per-run
            event log and manifest there.
        profile: Attach per-component wall-clock accounting to every
            point's ``result.profile``.

    Returns:
        One :class:`~repro.sim.results.SimulationResult` per point, in
        the order given.

    Raises:
        SimulationError: propagated from any point, including an
            :class:`~repro.sim.invariants.InvariantViolation` raised
            inside a worker process.
    """
    results: List[Optional[SimulationResult]] = [None] * len(points)
    pending: List[int] = []
    keys: List[Optional[str]] = [None] * len(points)
    need_keys = (
        cache is not None
        or checkpoint is not None
        or telemetry is not None
    )
    for i, point in enumerate(points):
        if need_keys:
            keys[i] = config_key(
                topology,
                params,
                *point,
                fault_schedule=fault_schedule,
            )
        if cache is not None:
            hit = cache.get(keys[i])
            if hit is not None:
                results[i] = hit
                continue
        if checkpoint is not None:
            loaded = checkpoint.load(keys[i])
            if loaded is not None:
                results[i] = loaded
                if cache is not None:
                    cache.put(keys[i], loaded)
                continue
        pending.append(i)

    bus = EventBus()
    writer = None
    if telemetry is not None:
        # One continuous harness log per directory: append mode keeps
        # a killed-and-resumed sweep's rounds in a single stream.
        writer = JsonlWriter(Path(telemetry) / "sweep.jsonl", append=True)
        bus.subscribe(writer.emit)
    bus.emit(
        "sweep_start",
        n_points=len(points),
        n_resolved=len(points) - len(pending),
    )
    for i in range(len(points)):
        if results[i] is not None:
            bus.emit("cache_hit", index=i, key=keys[i])

    def record(i: int, result: SimulationResult) -> None:
        results[i] = result
        if checkpoint is not None:
            from ..obs.manifest import manifest_for_point

            # Every persisted point carries its provenance sidecar: the
            # recipe, the result fingerprint and the version guard.
            manifest = manifest_for_point(
                topology,
                params,
                points[i][0],
                points[i][1],
                points[i][2],
                fault_schedule=fault_schedule,
                result=result,
                profile=result.profile,
            )
            checkpoint.save(keys[i], result, manifest=manifest)
            bus.emit("checkpoint_write", index=i, key=keys[i])
        if cache is not None:
            cache.put(keys[i], result)
        name, benchmark_set, load = points[i]
        bus.emit(
            "point_done",
            index=i,
            scheduler=name,
            benchmark_set=benchmark_set.value,
            load=float(load),
        )

    try:
        if pending:
            workers = min(int(max_workers), len(pending))
            serial = list(pending)
            if workers > 1 and _fork_available():
                serial = _run_pool(
                    topology,
                    params,
                    points,
                    pending,
                    workers,
                    audit,
                    fault_schedule,
                    record,
                    telemetry=telemetry,
                    profile=profile,
                    keys=keys,
                    bus=bus,
                )
            for i in serial:
                record(
                    i,
                    _run_point(
                        topology,
                        params,
                        points[i],
                        audit,
                        fault_schedule,
                        telemetry=telemetry,
                        profile=profile,
                        point_key=keys[i],
                    ),
                )
        bus.emit("sweep_end", n_points=len(points))
    finally:
        if writer is not None:
            writer.close()
    return results  # type: ignore[return-value]


def _run_pool(
    topology: ServerTopology,
    params: SimulationParameters,
    points: Sequence[SweepPoint],
    pending: Sequence[int],
    workers: int,
    audit: bool,
    fault_schedule,
    record: Callable[[int, SimulationResult], None],
    bus,
    telemetry,
    profile: bool,
    keys: Sequence[Optional[str]],
) -> List[int]:
    """Fan points out over a fork-based process pool, with recovery.

    Runs up to ``1 + _MAX_RETRIES`` pool rounds.  Each round submits
    every still-unfinished point; successes are recorded immediately
    (checkpoint durability), deterministic :class:`ReproError` failures
    propagate, and crash-type failures (broken pool, pickling trouble)
    leave the point for the next round.  Returns the indices still
    unfinished after the last round, for the caller's serial fallback.
    """
    context = multiprocessing.get_context("fork")
    remaining: List[int] = list(pending)
    for round_no in range(1 + _MAX_RETRIES):
        if not remaining:
            break
        if round_no:
            bus.emit(
                "pool_retry",
                round=round_no,
                remaining=len(remaining),
            )
            time.sleep(_RETRY_BACKOFF_S * 2 ** (round_no - 1))
        try:
            pool = ProcessPoolExecutor(
                max_workers=min(workers, len(remaining)),
                mp_context=context,
            )
        except (OSError, PermissionError):
            return remaining  # sandboxed: no new processes at all
        try:
            try:
                futures = {
                    i: pool.submit(
                        _run_point,
                        topology,
                        params,
                        points[i],
                        audit,
                        fault_schedule,
                        telemetry,
                        profile,
                        keys[i],
                    )
                    for i in remaining
                }
            except ReproError:
                raise  # deterministic: a retry cannot change it
            except Exception:
                # Submission itself failed (e.g. a BrokenProcessPool
                # before any work was accepted).  Crash-type failure
                # for the whole round: every point stays in
                # ``remaining`` for the next round — or the caller's
                # serial fallback — instead of escaping the retry
                # machinery entirely.
                continue
            still: List[int] = []
            for i in remaining:
                try:
                    result = futures[i].result()
                except ReproError:
                    raise  # deterministic: a retry cannot change it
                except Exception:
                    # Crash-type failure (broken pool, pickling, OS):
                    # leave the point for the next round.
                    still.append(i)
                else:
                    record(i, result)
            remaining = still
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
    return remaining
