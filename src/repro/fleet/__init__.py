"""Resilient fleet coordination over chassis worker processes.

The fleet layer turns the single-chassis simulator into a supervised
multi-chassis serving system: a registry of heterogeneous Table-I
chassis (:mod:`repro.fleet.registry`), one worker process per chassis
(:mod:`repro.fleet.worker`) answering placement and what-if queries
(:mod:`repro.fleet.compute`, :mod:`repro.fleet.messages`), and a
deterministic clock-driven coordinator
(:mod:`repro.fleet.coordinator`) providing heartbeat supervision with
restart budgets and quarantine (:mod:`repro.fleet.supervision`),
bounded-queue backpressure with class-aware load shedding, per-request
timeouts with replica retry, and bounded-staleness degraded serving
from the last telemetry snapshot.

Two drivers share that core and run one schedule on it: the asyncio
service (:mod:`repro.fleet.service`, behind ``repro fleet serve``)
supplies wall-clock time and real processes, while one virtual-time
runner (:func:`repro.fleet.chaos.run_virtual`) supplies simulated
workers, scheduled failures and a fixed tick grid to both the seeded
chaos harness and the load generator (:mod:`repro.fleet.loadgen`).
The coordinator publishes its events to an
:class:`~repro.obs.events.EventBus` and keeps none: callers subscribe a
``fleet.jsonl`` writer or a list, and :mod:`repro.fleet.invariants`
audits those streams for the coordinator's liveness/safety guarantees.
"""

from .chaos import (
    AnswerDelay,
    ChaosRunConfig,
    ChaosSchedule,
    CheckpointCorruption,
    SimWorkerHandle,
    WorkerHang,
    WorkerKill,
    run_chaos,
)
from .compute import (
    WARM_FIELD_CACHE_MAX,
    ChassisCompute,
    ChassisSnapshot,
    WarmFieldCache,
    degraded_payload,
)
from .coordinator import FleetConfig, FleetCoordinator, WorkerHandle
from .invariants import check_fleet_events, check_fleet_log
from .loadgen import drive_fleet, generate_workload, latency_stats
from .messages import (
    AnswerStatus,
    FleetAnswer,
    FleetQuery,
    PlacementQuery,
    QueryBatch,
    RequestClass,
    WhatIfQuery,
)
from .registry import (
    ChassisSpec,
    FleetRegistry,
    WorkerSpec,
    demo_fleet,
    spec_from_catalog,
)
from .service import FleetService, query_from_json, query_fleet
from .supervision import SupervisionPolicy, WorkerState, WorkerSupervisor
from .worker import ProcessWorkerHandle, worker_main

__all__ = [
    "AnswerDelay",
    "AnswerStatus",
    "ChaosRunConfig",
    "ChaosSchedule",
    "ChassisCompute",
    "ChassisSnapshot",
    "ChassisSpec",
    "CheckpointCorruption",
    "FleetAnswer",
    "FleetConfig",
    "FleetCoordinator",
    "FleetQuery",
    "FleetRegistry",
    "FleetService",
    "PlacementQuery",
    "ProcessWorkerHandle",
    "QueryBatch",
    "RequestClass",
    "SimWorkerHandle",
    "SupervisionPolicy",
    "WARM_FIELD_CACHE_MAX",
    "WarmFieldCache",
    "WhatIfQuery",
    "WorkerHandle",
    "WorkerHang",
    "WorkerKill",
    "WorkerSpec",
    "WorkerState",
    "WorkerSupervisor",
    "check_fleet_events",
    "check_fleet_log",
    "degraded_payload",
    "demo_fleet",
    "drive_fleet",
    "generate_workload",
    "latency_stats",
    "query_fleet",
    "query_from_json",
    "run_chaos",
    "spec_from_catalog",
    "worker_main",
]
