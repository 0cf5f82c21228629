"""The five end-to-end workloads; one runs per fresh process.

``run.py`` starts this script once per workload run (and a few more
times with ``--setup-only`` to sample set-up time).  The process prints
``KERNEL <s>``, the reference kernel's time (``reference.py``), just
before set-up and ``READY`` when set-up is done, measures for
``--seconds``, checks every output, and prints one ``RESULT <json>``
line.  Its environment is prepared by ``run.py``: ``REPRO_*`` scrubbed,
BLAS pinned to one thread, ``src/`` on ``PYTHONPATH``.

Inputs derive only from ``--seed``; the program under test receives the
generated inputs.  Why each workload exists is recorded in
``metrics.json`` and ``README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import inspect
import json
import os
import platform
import re
import signal
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

from reference import HostTimer, kernel_s
from tracing import (
    FleetProbe,
    Tracer,
    fleet_layer_metrics,
    fleet_spans,
    pct,
    wrap_function,
)

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"
TRACED_SERVE = HERE / "traced_serve.py"

#: Workload sizes.  ``smoke`` is about a tenth of ``full``.
SCALES = {
    "full": {
        "sweep_placement": {"n_rows": 15, "sim_time_s": 1.0},
        "sweep_engine": {"n_rows": 15, "sim_time_s": 3.0},
        "room_plan": {"n_rows": 15},
        "fleet_open": {"n_rows": 15},
        "fleet_wire": {},
    },
    "smoke": {
        "sweep_placement": {"n_rows": 3, "sim_time_s": 0.5},
        "sweep_engine": {"n_rows": 3, "sim_time_s": 1.0},
        "room_plan": {"n_rows": 3},
        "fleet_open": {"n_rows": 3},
        "fleet_wire": {},
    },
}

SWEEP_GRIDS = {
    # Placement scoring dominates step time with these policies.
    "sweep_placement": (("CP", "Predictive", "CN"), ("Computation",)),
    # Cheap policies: the power, retire, thermal and metrics stages
    # dominate instead.
    "sweep_engine": (("CF", "HF"), ("Computation", "Storage")),
}
SWEEP_LOADS = (0.4, 0.8)

ROOM_CHASSIS = 8
ROOM_PLACEMENTS = ("paper", "coolest", "minhr")
ROOM_CURVE_SETPOINTS_C = (14.0, 18.0, 22.0, 26.0, 30.0)
ROOM_SEARCH_SETPOINTS_C = tuple(float(t) for t in range(14, 31, 2))
ROOM_TARGET_UTILIZATION = 0.5

#: Open-loop offered rates, queries/s.  Both stay below the dispatch
#: ceiling (4 workers x 4 inflight per 50-ms tick = 320 qps), so no
#: request is shed.
LADDER_QPS = (160, 240)
REPORT_QPS = 160
#: Closed-loop callers of the saturation phase: twice the 16 inflight
#: slots, so every tick finds work queued, and well under the 64-entry
#: admission queue, so nothing is shed.
SATURATION_CALLERS = 32
SLO_MS = 200.0
LATE_LIMIT_MS = 10.0
PLACEMENT_SHARE = 0.75
N_STATES = 4
WHAT_IF_POOL = 6

WIRE_CONNECTIONS = 2
WIRE_CHASSIS = ("c0", "c1", "c2")

#: Tail percentile reported as ``tail_ms``: the highest with at least
#: ten samples beyond it at the full-scale sample count.
TAIL_PERCENTILE = {"fleet_open": 98.0, "fleet_wire": 95.0}

PROFILE_COMPONENTS = {
    "ArrivalAdmitter": "sim.arrival_admitter.ms",
    "Placer": "sim.placer.ms",
    "PowerManager": "sim.power_manager.ms",
    "WorkRetirer": "sim.work_retirer.ms",
    "ThermalUpdater": "sim.thermal_updater.ms",
    "MetricsAccumulator": "sim.metrics_accumulator.ms",
}


def load_goldens(scale: str, workload: str, seed: int):
    goldens = json.loads(GOLDENS.read_text())
    return goldens.get(scale, {}).get(workload, {}).get(str(seed))


def golden_errors(workload: str, expected, actual) -> list:
    """Names of the outputs that differ from the committed goldens."""
    if expected is None:
        return []
    wrong = [
        key
        for key in sorted(set(expected) | set(actual))
        if expected.get(key) != actual.get(key)
    ]
    return [f"{workload}: {key} differs from goldens.json" for key in wrong]


@dataclass
class Outcome:
    """What one measurement produced (serialised into ``RESULT``)."""

    metrics: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


class Workload:
    """Inputs shared by every workload; subclasses set up and measure."""

    def __init__(self, name, seed, scale, tracer, out_dir) -> None:
        self.name = name
        self.seed = seed
        self.scale = scale
        self.tracer = tracer
        self.out_dir = Path(out_dir)
        self.config = SCALES[scale][name]

    def close(self) -> None:
        pass

    def collect_trace(self, out: Outcome) -> None:
        """Fold in trace data that exists only after ``close``."""


class SweepWorkload(Workload):
    """``run_sweep`` over a fixed grid, one point per call, in passes.

    A pass runs every grid point once.  Point times are host-speed
    adjusted (``reference.py``).  ``p50_ms`` is the sum over points of
    each point's median time (one pass, robust to a single slow point);
    ``tail_ms`` is the costliest point's median, which sets the wall
    time of a sweep run in parallel; ``rate`` is simulated seconds per
    host second.
    """

    def setup(self) -> None:
        from repro.config.presets import scaled
        from repro.server.topology import moonshot_sut
        from repro.sim import result_fingerprint, run_sweep
        from repro.workloads.benchmark import BenchmarkSet

        self.run_sweep = run_sweep
        self.fingerprint = result_fingerprint
        self.timer = HostTimer()
        sim_time = self.config["sim_time_s"]
        self.topology = moonshot_sut(n_rows=self.config["n_rows"])
        self.params = scaled(
            sim_time_s=sim_time, warmup_s=sim_time / 4, seed=self.seed
        )
        schemes, sets = SWEEP_GRIDS[self.name]
        self.grid = [
            (scheme, BenchmarkSet(bset), load)
            for bset in sets
            for load in SWEEP_LOADS
            for scheme in schemes
        ]

    def _pass(self, out, times, first, profiles, deadline, may_stop):
        """Run the grid once; stop early past ``deadline`` if allowed.

        Appends each point's ``(wall, adjusted)`` seconds to ``times``.
        Returns whether every point ran.
        """
        tracer = self.tracer
        for point in self.grid:
            scheme, bset, load = point
            key = f"{scheme}|{bset.value}|{load}"

            def call():
                with _span(tracer, "sweep.point", key):
                    return self.run_sweep(
                        self.topology,
                        self.params,
                        [scheme],
                        [bset],
                        [load],
                        profile=tracer is not None,
                    )[point]

            result, wall, adjusted_s = self.timer.time(call)
            times[point].append((wall, adjusted_s))
            out.attempted += 1
            fp = self.fingerprint(result)
            if key not in first:
                first[key] = fp
            elif first[key] != fp:
                out.failed += 1
                out.errors.append(f"{self.name}: {key} is not deterministic")
            if tracer is not None:
                profiles.append((result.profile, len(result.completed_jobs)))
            if may_stop and time.perf_counter() >= deadline:
                return False
        return True

    def measure(self, seconds: float) -> Outcome:
        out = Outcome()
        times = {point: [] for point in self.grid}
        first = {}
        passes = 0
        profiles = []
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            with _span(self.tracer, "sweep.pass"):
                complete = self._pass(
                    out, times, first, profiles, deadline, passes > 0
                )
            if not complete:
                break
            passes += 1
        out.outputs = first
        out.errors += golden_errors(
            self.name, load_goldens(self.scale, self.name, self.seed), first
        )
        point_s = [median(a for _, a in t) for t in times.values()]
        pass_s = sum(point_s)
        out.metrics = {
            "p50_ms": pass_s * 1e3,
            "tail_ms": max(point_s) * 1e3,
            "rate": len(self.grid) * self.params.sim_time_s / pass_s,
        }
        out.extra = {
            "passes": passes,
            "wall_p50_ms": sum(median(w for w, _ in t) for t in times.values())
            * 1e3,
        }
        if self.tracer is not None:
            out.layers = self._layers(profiles, out.attempted / len(self.grid))
            out.layers["trace.p50_ms"] = out.metrics["p50_ms"]
        return out

    @staticmethod
    def _layers(profiles, n_passes: float) -> dict:
        """Per-pass totals from the engine's own profiler."""
        layers = {name: 0.0 for name in PROFILE_COMPONENTS.values()}
        steps = jobs = loop_s = place_calls = 0
        buckets = {}
        for profile, completed in profiles:
            steps += profile.n_steps
            jobs += completed
            loop_s += profile.engine_elapsed_s - profile.total_component_s
            for entry in profile.components:
                metric = PROFILE_COMPONENTS.get(entry.name)
                if metric is not None:
                    layers[metric] += entry.total_s * 1e3
            for entry in profile.buckets:
                calls, total = buckets.get(entry.name, (0, 0.0))
                buckets[entry.name] = (calls + entry.calls, total + entry.total_s)
                place_calls += entry.calls
        layers = {k: v / n_passes for k, v in layers.items()}
        layers["sim.engine_loop.ms"] = loop_s * 1e3 / n_passes
        layers["sim.steps"] = steps / n_passes
        layers["sim.jobs_completed"] = jobs / n_passes
        layers["core.place.calls"] = place_calls / n_passes
        for name, (calls, total) in buckets.items():
            policy = name.split(":", 1)[1]
            layers[f"core.place.{policy}.mean_us"] = total / calls * 1e6
        return layers


class RoomWorkload(Workload):
    """Room capacity planning passes with a cold shared cache.

    Each pass clears the shared sweep cache, draws the sustainable-load
    curves of three placements over five CRAC setpoints, and searches
    nine setpoints for the warmest one sustaining the target load.
    Phase times are host-speed adjusted (``reference.py``).  ``p50_ms``
    is the median pass, ``tail_ms`` the median of the costliest phase
    (one curve or the search), ``rate`` the room solves (cache misses)
    per host second.
    """

    def setup(self) -> None:
        from repro.fleet.registry import spec_from_catalog
        from repro.room import capacity, model
        from repro.room.model import Room
        from repro.room.recirculation import downwind_recirculation
        from repro.server.catalog import TABLE_I_SYSTEMS
        from repro.sim.parallel import clear_shared_cache, shared_cache

        self.capacity = capacity
        self.model = model
        self.timer = HostTimer()
        self.clear = clear_shared_cache
        self.cache = shared_cache
        by_degree = {}
        for system in TABLE_I_SYSTEMS:
            by_degree.setdefault(system.degree_of_coupling, system)
        cycle = [by_degree[d] for d in sorted(by_degree, reverse=True)]
        self.room = Room(
            chassis=tuple(
                spec_from_catalog(
                    cycle[i % len(cycle)], f"r{i}", n_rows=self.config["n_rows"]
                )
                for i in range(ROOM_CHASSIS)
            ),
            recirculation=downwind_recirculation(ROOM_CHASSIS),
        )
        # The seed shifts every CRAC setpoint down by up to 1 degC.  (A
        # seeded chassis order would be the richer input, but orders
        # with hot chassis upwind make the coolest placement raise an
        # inlet past the DVFS limit, and its cap search then fails.)
        shift = round(float(np.random.default_rng(self.seed).uniform(-1, 0)), 2)
        self.curve_setpoints = [t + shift for t in ROOM_CURVE_SETPOINTS_C]
        self.search_setpoints = [t + shift for t in ROOM_SEARCH_SETPOINTS_C]

    def _plan(self, emit, phase_s) -> dict:
        """One planning pass; appends each phase's (wall, adjusted) s."""
        capacity = self.capacity

        def timed(phase, call):
            value, wall, adjusted_s = self.timer.time(call)
            phase_s[phase].append((wall, adjusted_s))
            return value

        curves = {}
        for placement in ROOM_PLACEMENTS:
            curve = timed(
                placement,
                lambda: capacity.room_derating_curve(
                    self.room,
                    self.curve_setpoints,
                    placement=placement,
                    seed=self.seed,
                    emit=emit,
                ),
            )
            curves[placement] = [point.max_utilization for point in curve]
        choice = timed(
            "search",
            lambda: capacity.optimize_crac_setpoint(
                self.room,
                self.search_setpoints,
                ROOM_TARGET_UTILIZATION,
                seed=self.seed,
                emit=emit,
            ),
        )
        return {
            "curves": curves,
            "choice": {
                "crac_supply_c": choice.crac_supply_c,
                "max_utilization": choice.max_utilization,
                "meets_target": choice.meets_target,
            },
        }

    def measure(self, seconds: float) -> Outcome:
        out = Outcome()
        tracer = self.tracer
        iterations = []
        emit = None
        restore = []
        if tracer is not None:

            def emit(event):
                if event["type"] == "room_iteration":
                    iterations.append(event["residual_c"])

            restore = [
                wrap_function(self.capacity, "solve_room", tracer, "room.solve"),
                wrap_function(
                    self.capacity, "place_room_load", tracer, "room.placement"
                ),
                wrap_function(self.model, "evaluate_fleet", tracer, "sim.batched"),
            ]
        passes = []
        phase_s = {phase: [] for phase in (*ROOM_PLACEMENTS, "search")}
        solves = []
        hits = []
        first = None
        deadline = time.perf_counter() + seconds
        try:
            while not passes or time.perf_counter() < deadline:
                self.clear()
                with _span(tracer, "room.pass"):
                    plan = self._plan(emit, phase_s)
                passes.append(
                    [sum(t[-1][i] for t in phase_s.values()) for i in (0, 1)]
                )
                solves.append(self.cache.misses)
                hits.append(self.cache.hits)
                out.attempted += self.cache.misses
                if first is None:
                    first = plan
                elif plan != first:
                    out.failed += 1
                    out.errors.append(f"{self.name}: pass {len(passes)} differs")
        finally:
            for undo in restore:
                undo()
        out.errors += self._physics_errors(first)
        out.outputs = first
        out.errors += golden_errors(
            self.name, load_goldens(self.scale, self.name, self.seed), first
        )
        pass_s = median(a for _, a in passes)
        out.metrics = {
            "p50_ms": pass_s * 1e3,
            "tail_ms": max(median(a for _, a in t) for t in phase_s.values())
            * 1e3,
            "rate": median(solves) / pass_s,
        }
        out.extra = {
            "passes": len(passes),
            "pass_s": [w for w, _ in passes],
            "wall_p50_ms": median(w for w, _ in passes) * 1e3,
        }
        if tracer is not None:
            n = len(passes)
            n_solves = tracer.count("room.solve")
            solve_ms = tracer.total_s("room.solve") * 1e3
            lookups = sum(solves) + sum(hits)
            out.layers = {
                "room.solves": n_solves / n,
                "room.iterations": len(iterations) / n,
                "room.iter_per_solve": len(iterations) / n_solves,
                "room.solve.ms": solve_ms / n,
                "room.ms_per_iteration": solve_ms / len(iterations),
                "room.placement.calls": tracer.count("room.placement") / n,
                "room.placement.ms": tracer.total_s("room.placement") * 1e3 / n,
                "sim.batched.calls": tracer.count("sim.batched") / n,
                "sim.batched.ms": tracer.total_s("sim.batched") * 1e3 / n,
                "room.cache.hit_ratio": sum(hits) / lookups,
                "trace.p50_ms": out.metrics["p50_ms"],
            }
        return out

    def _physics_errors(self, plan) -> list:
        """Checks that hold for every seed, golden or not."""
        errors = []
        curves = plan["curves"]
        for placement, loads in curves.items():
            if loads != sorted(loads, reverse=True):
                errors.append(
                    f"{self.name}: {placement} curve rises with a warmer CRAC"
                )
        if any(c < p - 1e-9 for c, p in zip(curves["coolest"], curves["paper"])):
            errors.append(f"{self.name}: coolest sustains less than paper")
        return errors


def replay(name, registry, items, out: Outcome, decode=None) -> dict:
    """Check each ``ok`` answer against an in-process ``ChassisCompute``.

    ``items`` are ``(query, payload)`` pairs in submission order; the
    replay answers each query and then takes a snapshot of its state,
    as the worker does.  ``decode`` maps the replayed payload into the
    form the client received.  Returns the median compute timings.
    """
    from repro.fleet import ChassisCompute

    computes = {
        cid: ChassisCompute(spec) for cid, spec in registry.chassis.items()
    }
    place, what_if, snapshot = [], [], []
    for query, payload in items:
        compute = computes[query.chassis]
        t0 = time.perf_counter()
        expected = compute.answer(query)
        t1 = time.perf_counter()
        compute.snapshot(getattr(query, "utilization", None))
        t2 = time.perf_counter()
        (place if query.kind == "placement" else what_if).append(t1 - t0)
        snapshot.append(t2 - t1)
        if decode is not None:
            expected = decode(expected)
        if expected != payload:
            out.errors.append(
                f"{name}: answer for {query.kind} on {query.chassis} "
                f"differs from in-process ChassisCompute"
            )
    hits = sum(c.warm.hits for c in computes.values())
    lookups = hits + sum(c.warm.misses for c in computes.values())
    timings = {
        "fleet.compute.place_us": pct(place, 50) * 1e6,
        "fleet.compute.snapshot_us": pct(snapshot, 50) * 1e6,
        "fleet.compute.warm_hit_ratio": hits / lookups if lookups else 0.0,
    }
    if what_if:
        timings["fleet.compute.what_if_us"] = pct(what_if, 50) * 1e6
    return timings


class FleetOpenWorkload(Workload):
    """Open-loop Poisson ladder, then saturation, on a ``FleetService``.

    The service runs in-process with real ``ProcessWorkerHandle``
    workers.  Each ladder request is timed from its scheduled send
    time; ``p50_ms`` and ``tail_ms`` are taken at the 160-qps step.
    ``rate`` is the service's capacity: the answers per second while
    ``SATURATION_CALLERS`` closed-loop callers keep its queue non-empty.
    """

    service = None
    probe = None

    async def setup(self) -> None:
        from repro.fleet import (
            FleetService,
            PlacementQuery,
            WhatIfQuery,
            demo_fleet,
        )

        self.PlacementQuery = PlacementQuery
        self.WhatIfQuery = WhatIfQuery
        self.registry = demo_fleet(2, n_rows=self.config["n_rows"], replicas=1)
        self.rng = np.random.default_rng(self.seed)
        self.chassis = sorted(self.registry.chassis)
        self.states = {}
        self.what_ifs = {}
        for cid in self.chassis:
            n = self.registry.chassis[cid].build_topology().n_sockets
            self.states[cid] = [
                tuple(np.round(self.rng.uniform(0.2, 0.9, n), 3))
                for _ in range(N_STATES)
            ]
            self.what_ifs[cid] = [
                tuple(
                    (
                        round(float(self.rng.uniform(0.3, 0.9)), 2),
                        round(float(self.rng.uniform(8.0, 14.0)), 1),
                    )
                    for _ in range(2)
                )
                for _ in range(WHAT_IF_POOL)
            ]
        if self.tracer is not None:
            self.probe = FleetProbe()
            self.probe.install()
        self.service = FleetService(self.registry)
        await self.service.start()
        await self.service.submit(self._query())

    def _query(self):
        cid = self.chassis[int(self.rng.integers(len(self.chassis)))]
        if self.rng.random() < PLACEMENT_SHARE:
            return self.PlacementQuery(
                chassis=cid,
                job_power_w=round(float(self.rng.uniform(5.0, 15.0)), 2),
                utilization=self.states[cid][int(self.rng.integers(N_STATES))],
            )
        return self.WhatIfQuery(
            chassis=cid,
            scenarios=self.what_ifs[cid][int(self.rng.integers(WHAT_IF_POOL))],
        )

    async def close(self) -> None:
        if self.service is not None:
            await self.service.stop()
        if self.probe is not None:
            self.probe.uninstall()

    async def _step(self, offsets, queries):
        """Send on schedule; return ``(due, sent, done, answer)`` rows."""

        async def one(due, sent, query):
            answer = await self.service.submit(query)
            return due, sent, time.perf_counter(), answer

        tasks = []
        start = time.perf_counter()
        for offset, query in zip(offsets, queries):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(
                asyncio.ensure_future(one(due, time.perf_counter(), query))
            )
        return start, await asyncio.gather(*tasks)

    async def _saturate(self, seconds):
        """Closed loop: each caller sends its next query on an answer.

        Returns ``(due, sent, done, answer, query)`` rows in send order.
        """
        rows = []
        deadline = time.perf_counter() + seconds

        async def caller():
            while time.perf_counter() < deadline:
                query = self._query()
                sent = time.perf_counter()
                answer = await self.service.submit(query)
                rows.append((sent, sent, time.perf_counter(), answer, query))

        await asyncio.gather(*(caller() for _ in range(SATURATION_CALLERS)))
        return sorted(rows, key=lambda r: r[1])

    async def measure(self, seconds: float) -> Outcome:
        out = Outcome()
        step_s = seconds / (len(LADDER_QPS) + 1)
        plan = []
        for rate in LADDER_QPS:
            n = max(1, round(rate * step_s))
            offsets = np.sort(self.rng.uniform(0.0, step_s, n))
            plan.append((rate, offsets, [self._query() for _ in range(n)]))
        ladder = []
        rows = []  # (due, sent, done, answer, query), submission order
        for rate, offsets, queries in plan:
            start, step = await self._step(offsets, queries)
            step = [row + (q,) for row, q in zip(step, queries)]
            rows += step
            if rate == REPORT_QPS:
                reported = step
            latency = [(done - due) * 1e3 for due, _, done, _, _ in step]
            late = [(sent - due) * 1e3 for due, sent, _, _, _ in step]
            ok = sum(1 for r in step if r[3].status.value == "ok")
            last = max(r[2] for r in step)
            ladder.append(
                {
                    "rate_qps": rate,
                    "n": len(step),
                    "p50_ms": pct(latency, 50),
                    "tail_ms": pct(latency, TAIL_PERCENTILE[self.name]),
                    "late_p99_ms": pct(late, 99),
                    "not_ok": len(step) - ok,
                    "answered_qps": ok / (last - start),
                }
            )
        ladder_rows = len(rows)
        start = time.perf_counter()
        saturation = await self._saturate(step_s)
        ok = sum(1 for r in saturation if r[3].status.value == "ok")
        capacity = ok / (max(r[2] for r in saturation) - start)
        rows += saturation
        out.attempted = len(rows)
        out.failed = sum(1 for r in rows if r[3].status.value != "ok")
        report = next(s for s in ladder if s["rate_qps"] == REPORT_QPS)
        out.metrics = {
            "p50_ms": report["p50_ms"],
            "tail_ms": report["tail_ms"],
            "rate": capacity,
        }
        out.extra["saturation"] = {"n": len(saturation), "answered_qps": capacity}
        meets = [
            s["rate_qps"]
            for s in ladder
            if s["tail_ms"] <= SLO_MS
            and s["not_ok"] == 0
            and s["late_p99_ms"] <= LATE_LIMIT_MS
        ]
        out.extra["ladder"] = ladder
        out.extra["max_rate_qps"] = max(meets) if meets else 0
        items = [(r[4], r[3].payload) for r in rows if r[3].status.value == "ok"]
        compute = replay(self.name, self.registry, items, out)
        if self.tracer is not None:
            state = self.probe.state()
            parents = {
                r[3].request_id: self.tracer.add(
                    "loadgen.request", r[0], r[2], rid=r[3].request_id
                )
                for r in rows
            }
            fleet_spans(state, self.tracer, parents)
            # Request timings of the step behind p50_ms and tail_ms.
            out.layers = fleet_layer_metrics(
                state, {r[3].request_id for r in reported}
            )
            out.layers.update(compute)
            out.layers["loadgen.late_p99_ms"] = pct(
                [(r[1] - r[0]) * 1e3 for r in rows[:ladder_rows]], 99
            )
            out.layers["trace.p50_ms"] = out.metrics["p50_ms"]
        return out


class FleetWireWorkload(Workload):
    """Closed loop over TCP against the shipped ``repro fleet serve``.

    Two connections each send a placement, wait for its answer, and
    send the next.  ``p50_ms``/``tail_ms`` are per-request latencies,
    ``rate`` the answered queries per second.
    """

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.probe_path = self.out_dir / f"probe-{self.name}.json"
        self.proc = None
        self.conns = []
        self.connect_ms = []

    async def _connect(self):
        t0 = time.perf_counter()
        conn = await asyncio.open_connection("127.0.0.1", self.port)
        t1 = time.perf_counter()
        self.connect_ms.append((t1 - t0) * 1e3)
        if self.tracer is not None:
            self.tracer.add("wire.connect", t0, t1)
        self.conns.append(conn)
        return conn

    async def setup(self) -> None:
        from repro.fleet import demo_fleet

        self.registry = demo_fleet(3, replicas=1)
        if self.tracer is None:
            cmd = [sys.executable, "-m", "repro"]
        else:
            cmd = [sys.executable, str(TRACED_SERVE), str(self.probe_path)]
        self.proc = subprocess.Popen(
            cmd + ["fleet", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        line = self.proc.stdout.readline()
        match = re.search(r", (\d+)\)", line)
        if match is None:
            raise RuntimeError(f"fleet serve did not start: {line!r}")
        self.port = int(match.group(1))
        reader, writer = await self._connect()
        writer.write(
            json.dumps(
                {"kind": "placement", "chassis": "c0", "job_power_w": 10.0}
            ).encode()
            + b"\n"
        )
        await writer.drain()
        answer = json.loads(await reader.readline())
        if answer.get("status") != "ok":
            raise RuntimeError(f"first answer not ok: {answer}")

    async def close(self) -> None:
        for _, writer in self.conns:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
        if self.proc is None:
            return
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdout.close()

    async def _client(self, conn, rng, deadline, rows):
        reader, writer = conn
        while time.perf_counter() < deadline:
            obj = {
                "kind": "placement",
                "chassis": WIRE_CHASSIS[int(rng.integers(len(WIRE_CHASSIS)))],
                "job_power_w": round(float(rng.uniform(5.0, 15.0)), 2),
            }
            line = json.dumps(obj).encode() + b"\n"
            t0 = time.perf_counter()
            writer.write(line)
            await writer.drain()
            t1 = time.perf_counter()
            answer = json.loads(await reader.readline())
            rows.append((t0, t1, time.perf_counter(), line, answer))

    async def measure(self, seconds: float) -> Outcome:
        from repro.fleet import AnswerStatus, FleetAnswer, query_from_json

        out = Outcome()
        while len(self.conns) < WIRE_CONNECTIONS:
            await self._connect()
        rows = []
        start = time.perf_counter()
        deadline = start + seconds
        await asyncio.gather(
            *(
                self._client(
                    conn, np.random.default_rng([self.seed, k]), deadline, rows
                )
                for k, conn in enumerate(self.conns)
            )
        )
        elapsed = max(r[2] for r in rows) - start
        latency = [(r[2] - r[0]) * 1e3 for r in rows]
        out.attempted = len(rows)
        out.failed = sum(1 for r in rows if r[4].get("status") != "ok")
        out.metrics = {
            "p50_ms": pct(latency, 50),
            "tail_ms": pct(latency, TAIL_PERCENTILE[self.name]),
            "rate": len(rows) / elapsed,
        }
        decode_s, encode_s, items = [], [], []
        for _, _, _, line, answer in rows:
            t0 = time.perf_counter()
            query = query_from_json(json.loads(line))
            decode_s.append(time.perf_counter() - t0)
            if answer.get("status") != "ok":
                continue
            items.append((query, answer["payload"]))
            reply = FleetAnswer(
                request_id=answer["request_id"],
                status=AnswerStatus(answer["status"]),
                payload=answer["payload"],
            )
            t0 = time.perf_counter()
            json.dumps(reply.to_dict(), sort_keys=True).encode()
            encode_s.append(time.perf_counter() - t0)
        compute = replay(
            self.name,
            self.registry,
            items,
            out,
            decode=lambda payload: json.loads(json.dumps(payload)),
        )
        if self.tracer is not None:
            for t0, _, t2, _, _ in rows:
                self.tracer.add("wire.request", t0, t2)
            out.layers.update(compute)
            out.layers.update(
                {
                    "wire.connect_ms": median(self.connect_ms),
                    "wire.send_us": pct([(r[1] - r[0]) for r in rows], 50) * 1e6,
                    "wire.decode_us": pct(decode_s, 50) * 1e6,
                    "wire.encode_us": pct(encode_s, 50) * 1e6,
                    "trace.p50_ms": out.metrics["p50_ms"],
                }
            )
        return out

    def collect_trace(self, out: Outcome) -> None:
        """Fold in the traced server's probe data (written as it stopped)."""
        state = json.loads(self.probe_path.read_text())
        self.probe_path.unlink()
        fleet_spans(state, self.tracer)
        out.layers.update(fleet_layer_metrics(state))


def _span(tracer, name: str, rid=None):
    """A span when tracing, otherwise a do-nothing context."""
    return tracer.span(name, rid) if tracer is not None else nullcontext()


async def _maybe(value):
    if inspect.isawaitable(value):
        return await value
    return value


WORKLOADS = {
    "sweep_placement": SweepWorkload,
    "sweep_engine": SweepWorkload,
    "room_plan": RoomWorkload,
    "fleet_open": FleetOpenWorkload,
    "fleet_wire": FleetWireWorkload,
}


async def drive(args) -> None:
    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](
        args.workload, args.seed, args.scale, tracer, args.out
    )
    outcome = None
    try:
        print(f"KERNEL {kernel_s()!r}", flush=True)
        await _maybe(workload.setup())
        print("READY", flush=True)
        if args.setup_only:
            return
        outcome = await _maybe(workload.measure(args.seconds))
    finally:
        await _maybe(workload.close())
    if tracer is not None:
        workload.collect_trace(outcome)
        tracer.dump(Path(args.out) / f"trace-{args.workload}.jsonl")
    result = {
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "correct": not outcome.errors,
        "errors": outcome.errors,
        "metrics": outcome.metrics,
        "layers": outcome.layers,
        "outputs": outcome.outputs,
        "extra": outcome.extra,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
        },
    }
    print("RESULT " + json.dumps(result), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", default=str(HERE / "out"))
    args = parser.parse_args(argv)
    asyncio.run(drive(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
