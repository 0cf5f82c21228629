"""Seeded fleet workloads and the virtual-time drive loop.

Shared by the throughput benchmark
(``benchmarks/bench_fleet_throughput.py``) and the batching test suite
(``tests/test_fleet_batching.py``): :func:`generate_workload` samples
a reproducible mixed interactive/batch query stream,
:func:`drive_fleet` pushes it through the chaos harness's virtual-time
runner (:func:`~repro.fleet.chaos.run_virtual`) with no chaos, so it
runs the schedule the chaos proofs run, and :func:`latency_stats`
digests the resulting event stream into queries/sec and
admission-to-answer latency percentiles.

Everything here is deterministic under its seed: the same seed,
registry and configuration produce the same workload, the same event
stream and the same answers — which is what lets the benchmark's
differential oracle pin windowed and one-member-batch payloads
bit-identical.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import FleetError
from .chaos import run_virtual
from .coordinator import FleetConfig, FleetCoordinator
from .messages import PlacementQuery, RequestClass, WhatIfQuery
from .registry import FleetRegistry
from .supervision import SupervisionPolicy


def generate_workload(
    registry: FleetRegistry,
    seed: int,
    n_requests: int,
    horizon_s: float,
    n_states: int = 3,
    what_if_fraction: float = 0.25,
) -> List[Tuple[float, object]]:
    """A seeded ``(submit_t, query)`` stream over the registry's fleet.

    Placement queries draw their utilization vector from a small pool
    of ``n_states`` per-chassis load profiles (plus the implicit
    ``None`` base state), so concurrent queries genuinely share
    chassis states — the regime micro-batching and the warm-field
    cache are built for.  What-if queries carry 1–3 scenarios and
    default to the BATCH shedding class, mirroring the chaos
    workload's mix.
    """
    if n_requests < 1:
        raise FleetError("workload needs at least one request")
    if not (math.isfinite(horizon_s) and horizon_s >= 0):
        raise FleetError(
            f"horizon_s must be finite and >= 0, got {horizon_s!r}"
        )
    if not 0.0 <= what_if_fraction <= 1.0:
        raise FleetError("what_if_fraction must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    chassis_ids = sorted(registry.chassis)
    pools: Dict[str, List[Optional[Tuple[float, ...]]]] = {}
    for chassis_id in chassis_ids:
        spec = registry.chassis[chassis_id]
        n = spec.build_topology().n_sockets
        pool: List[Optional[Tuple[float, ...]]] = [None]
        for _ in range(max(0, n_states - 1)):
            pool.append(
                tuple(
                    float(u)
                    for u in rng.uniform(0.2, 0.9, n).round(3)
                )
            )
        pools[chassis_id] = pool
    times = np.sort(rng.uniform(0.0, horizon_s, n_requests))
    workload: List[Tuple[float, object]] = []
    for t in times:
        chassis = chassis_ids[int(rng.integers(len(chassis_ids)))]
        if rng.random() < what_if_fraction:
            n_scenarios = int(rng.integers(1, 4))
            query: object = WhatIfQuery(
                chassis=chassis,
                scenarios=tuple(
                    (
                        float(rng.uniform(0.2, 0.9)),
                        float(rng.uniform(6.0, 18.0)),
                    )
                    for _ in range(n_scenarios)
                ),
                request_class=RequestClass.BATCH,
            )
        else:
            pool = pools[chassis]
            query = PlacementQuery(
                chassis=chassis,
                job_power_w=float(rng.uniform(5.0, 20.0)),
                utilization=pool[int(rng.integers(len(pool)))],
                request_class=(
                    RequestClass.INTERACTIVE
                    if rng.random() < 0.7
                    else RequestClass.BATCH
                ),
            )
        workload.append((float(t), query))
    return workload


def drive_fleet(
    registry: FleetRegistry,
    workload: Sequence[Tuple[float, object]],
    config: FleetConfig,
    tick_s: float = 0.02,
    warm_capacity: int = 0,
    drain_s: float = 60.0,
) -> FleetCoordinator:
    """Run one workload to completion over simulated workers.

    The chaos harness's drive loop
    (:func:`~repro.fleet.chaos.run_virtual`) without chaos, ticking
    until every request is terminal or ``drain_s`` has passed since the
    last submission.  ``warm_capacity`` is handed to every chassis'
    :class:`~repro.fleet.compute.ChassisCompute` — 0 is the cold
    one-member-batch baseline, a positive bound enables the
    warm-field cache.  Returns the finished coordinator.

    Raises:
        FleetError: for a bad ``tick_s`` or ``drain_s`` (naming the
            field), before any worker starts.
    """
    return run_virtual(
        registry,
        workload,
        config,
        SupervisionPolicy(heartbeat_interval_s=0.5, missed_heartbeats=3),
        tick_s=tick_s,
        drain_s=drain_s,
        warm_capacity=warm_capacity,
    )


def latency_stats(events: Sequence[dict]) -> dict:
    """Queries/sec and admission-to-answer latency from fleet events.

    Latency is virtual coordinator-clock seconds from each request's
    ``fleet_submit`` to its terminal ``fleet_answer``; sheds are
    excluded (they never ran).  ``virtual_qps`` is terminal answers
    per virtual second of the submit-to-last-answer span.
    """
    submits: Dict[int, float] = {}
    latencies: List[float] = []
    statuses: Dict[str, int] = {}
    last_answer_t = 0.0
    for event in events:
        type_ = event.get("type")
        if type_ == "fleet_submit":
            submits[int(event["request_id"])] = float(event["t"])
        elif type_ == "fleet_answer":
            rid = int(event["request_id"])
            status = str(event["status"])
            statuses[status] = statuses.get(status, 0) + 1
            if rid in submits:
                latencies.append(float(event["t"]) - submits[rid])
                last_answer_t = max(last_answer_t, float(event["t"]))
    if not latencies:
        return {
            "n_answered": 0,
            "statuses": statuses,
            "virtual_qps": 0.0,
            "p50_s": math.nan,
            "p99_s": math.nan,
        }
    arr = np.asarray(latencies)
    first_submit = min(submits.values())
    span = max(last_answer_t - first_submit, 1e-9)
    return {
        "n_answered": len(latencies),
        "statuses": statuses,
        "virtual_qps": float(len(latencies) / span),
        "p50_s": float(np.percentile(arr, 50)),
        "p99_s": float(np.percentile(arr, 99)),
    }
