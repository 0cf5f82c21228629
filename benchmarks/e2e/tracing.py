"""In-memory spans and layer probes for the end-to-end benchmark.

Spans are recorded only in the benchmark's own code, around calls into
each layer's public functions; nothing inside ``src/`` is instrumented.
A traced run keeps every span in memory and writes them as JSON lines
when it ends (``Tracer.dump``), one object per span::

    {"id": 3, "name": "room.solve", "start": 12.5, "end": 12.51,
     "parent": 1, "rid": null}

``start``/``end`` are ``time.perf_counter()`` seconds.  On Linux that is
``CLOCK_MONOTONIC``, shared by every process, so spans recorded by the
traced fleet server (``traced_serve.py``) line up with the client's.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

import numpy as np


def pct(values, q: float) -> float:
    """The ``q``-th percentile of ``values`` (0.0 when there are none)."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


class Tracer:
    """Spans of one run, kept in memory until :meth:`dump`.

    Synchronous code nests spans with :meth:`span` (the parent is the
    innermost open span); asynchronous code records finished intervals
    with :meth:`add` and names the parent explicitly.
    """

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._open: List[int] = []

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        rid=None,
    ) -> int:
        sid = len(self.spans)
        self.spans.append(
            {
                "id": sid,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "rid": rid,
            }
        )
        return sid

    @contextmanager
    def span(self, name: str, rid=None):
        parent = self._open[-1] if self._open else None
        sid = self.add(name, time.perf_counter(), 0.0, parent, rid)
        self._open.append(sid)
        try:
            yield sid
        finally:
            self._open.pop()
            self.spans[sid]["end"] = time.perf_counter()

    def total_s(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(
            s["end"] - s["start"] for s in self.spans if s["name"] == name
        )

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def wrap_function(module, attr: str, tracer: Tracer, span_name: str):
    """Replace ``module.attr`` by a span-recording wrapper.

    Returns a function that restores the original.  Callers inside
    ``module`` look the name up at call time, so they see the wrapper.
    """
    original = getattr(module, attr)

    def wrapper(*args, **kwargs):
        with tracer.span(span_name):
            return original(*args, **kwargs)

    setattr(module, attr, wrapper)
    return lambda: setattr(module, attr, original)


class FleetProbe:
    """Parent-side timestamps of the fleet coordinator and its workers.

    :meth:`install` wraps ``FleetCoordinator.submit``/``tick``,
    ``ProcessWorkerHandle.send``/``send_batch``/``poll`` and
    ``FleetService.submit``, recording per request id when it was
    admitted, sent to a worker, polled back and delivered to its
    caller, plus the duration of every coordinator tick.
    """

    def __init__(self) -> None:
        self.submit_t: Dict[int, float] = {}
        self.send_t: Dict[int, float] = {}
        self.poll_t: Dict[int, float] = {}
        self.done_t: Dict[int, float] = {}
        self.ticks: List[List[float]] = []
        self.coordinator = None
        self._restore: List = []

    def install(self) -> None:
        from repro.fleet.coordinator import FleetCoordinator
        from repro.fleet.service import FleetService
        from repro.fleet.worker import ProcessWorkerHandle

        probe = self
        clock = time.perf_counter

        def patch(cls, name, make):
            original = getattr(cls, name)
            setattr(cls, name, make(original))
            self._restore.append(lambda: setattr(cls, name, original))

        def submit(original):
            def wrapper(coordinator, query, now, callback=None):
                t = clock()
                probe.coordinator = coordinator
                rid = original(coordinator, query, now, callback)
                probe.submit_t[rid] = t
                return rid

            return wrapper

        def tick(original):
            def wrapper(coordinator, now):
                t = clock()
                original(coordinator, now)
                probe.ticks.append([t, clock()])

            return wrapper

        def send(original):
            def wrapper(handle, request_id, query, now):
                probe.send_t[request_id] = clock()
                original(handle, request_id, query, now)

            return wrapper

        def send_batch(original):
            def wrapper(handle, batch, now):
                t = clock()
                for rid in batch.request_ids:
                    probe.send_t[rid] = t
                original(handle, batch, now)

            return wrapper

        def poll(original):
            def wrapper(handle, now):
                messages = original(handle, now)
                t = clock()
                for message in messages:
                    if message[0] == "answer":
                        probe.poll_t[message[1]] = t
                    elif message[0] == "answer_batch":
                        for rid, _ in message[2]:
                            probe.poll_t[rid] = t
                return messages

            return wrapper

        def service_submit(original):
            async def wrapper(service, query):
                answer = await original(service, query)
                probe.done_t[answer.request_id] = clock()
                return answer

            return wrapper

        patch(FleetCoordinator, "submit", submit)
        patch(FleetCoordinator, "tick", tick)
        patch(ProcessWorkerHandle, "send", send)
        patch(ProcessWorkerHandle, "send_batch", send_batch)
        patch(ProcessWorkerHandle, "poll", poll)
        patch(FleetService, "submit", service_submit)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def state(self) -> dict:
        """JSON-safe probe data (what the traced server dumps)."""
        statuses: Dict[str, int] = {}
        peak = 0
        if self.coordinator is not None:
            peak = self.coordinator.peak_queue_len
            for answer in self.coordinator.answers.values():
                key = answer.status.value
                statuses[key] = statuses.get(key, 0) + 1
        return {
            "submit_t": self.submit_t,
            "send_t": self.send_t,
            "poll_t": self.poll_t,
            "done_t": self.done_t,
            "ticks": self.ticks,
            "peak_queue_len": peak,
            "statuses": statuses,
        }

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.state(), handle)


def fleet_spans(state: dict, tracer: Tracer, parents=None) -> None:
    """Turn probe data into spans: one request span per request id.

    ``parents`` optionally maps a request id to the caller's span, so
    the coordinator's request span nests under the load generator's.
    """
    parents = parents or {}

    def at(table, rid):
        return table.get(rid, table.get(str(rid)))

    for key, t_submit in state["submit_t"].items():
        rid = int(key)
        t_send = at(state["send_t"], rid)
        t_poll = at(state["poll_t"], rid)
        t_done = at(state["done_t"], rid)
        end = t_done or t_poll or t_send or t_submit
        root = tracer.add(
            "fleet.request", t_submit, end, parents.get(rid), rid
        )
        if t_send is not None:
            tracer.add("fleet.queue", t_submit, t_send, root, rid)
            if t_poll is not None:
                tracer.add("fleet.worker", t_send, t_poll, root, rid)
                if t_done is not None:
                    tracer.add("fleet.deliver", t_poll, t_done, root, rid)
    for start, end in state["ticks"]:
        tracer.add("fleet.tick", start, end)


def fleet_layer_metrics(state: dict, rids=None) -> dict:
    """Per-layer fleet metrics from probe data (see metrics.json).

    ``rids`` optionally limits the per-request timings to those request
    ids; tick and status counts always cover the whole run.
    """

    def gaps(first, second):
        out = []
        for key, t0 in first.items():
            if rids is not None and key not in rids:
                continue
            t1 = second.get(key)
            if t1 is not None:
                out.append((t1 - t0) * 1e3)
        return out

    queue = gaps(state["submit_t"], state["send_t"])
    rtt = gaps(state["send_t"], state["poll_t"])
    deliver = gaps(state["poll_t"], state["done_t"])
    ticks = [end - start for start, end in state["ticks"]]
    busy_s = sum(ticks)
    statuses = state["statuses"]
    return {
        "fleet.queue_wait_ms.p50": pct(queue, 50),
        "fleet.queue_wait_ms.p99": pct(queue, 99),
        "fleet.worker_rtt_ms.p50": pct(rtt, 50),
        "fleet.worker_rtt_ms.p99": pct(rtt, 99),
        "fleet.deliver_ms.p50": pct(deliver, 50),
        "fleet.tick.count": len(ticks),
        "fleet.tick.busy_ms": busy_s * 1e3,
        "fleet.tick.mean_us": busy_s / len(ticks) * 1e6 if ticks else 0.0,
        "fleet.peak_queue_len": state["peak_queue_len"],
        "fleet.shed": statuses.get("shed", 0),
        "fleet.degraded": statuses.get("degraded", 0),
        "fleet.failed": statuses.get("failed", 0),
    }
