"""Fleet-service throughput: a coalescing window vs. one-member batches.

Drives one seeded mixed interactive/batch query stream (600 requests
over two 180-socket chassis, 25% what-if scenarios, placements drawn
from a small pool of shared chassis states) through the virtual-time
fleet drive loop twice:

- **per_message** — one-member batches (window 0, ``max_batch=1``,
  the coordinator's defaults), warm-field cache off: every query is
  one message, one steady-state solve, one post-answer snapshot.
- **batched** — a 0.5s coalescing window with ``max_batch=64`` and a
  16-entry warm-field cache: compatible queued queries ride one
  :class:`~repro.fleet.messages.QueryBatch`, the equilibrium field is
  solved once per distinct chassis state per batch, and what-if
  scenarios stack into single fleet-tensor calls.

The two runs must agree **bit for bit** on every answer (status and
payload) — micro-batching is a transport/compute optimisation, never a
semantic one — and the batched run must clear
``BENCH_FLEET_MIN_SPEEDUP`` (default 3x; the CI smoke run lowers the
bar to 1.5x and trims the workload).  Wall-clock queries/sec is the
headline; virtual-clock admission-to-answer p50/p99 are reported for
both variants so the latency cost of the coalescing window stays
visible next to the throughput win.

The measurement alternates the two variants
(:func:`_timing.alternating_best_of`) so interference bursts on shared
runners hit both floors equally, and keeps sampling until the ratio
clears the threshold with margin or the round cap is hit.
"""

import os
import sys

import pytest

from repro.fleet import (
    FleetConfig,
    demo_fleet,
    drive_fleet,
    generate_workload,
    latency_stats,
)

from _timing import alternating_best_of, write_bench_json

#: Required batched-vs-per-message throughput ratio.  The committed
#: artifact clears 3x on an idle machine; the CI smoke overrides with
#: 1.5 (guarding the mechanism, not the machine).
FLEET_MIN_SPEEDUP = float(
    os.environ.get("BENCH_FLEET_MIN_SPEEDUP", "3.0")
)

#: Stream length (the smoke run trims this for runner time).
FLEET_REQUESTS = int(os.environ.get("BENCH_FLEET_REQUESTS", "600"))

SEED = 7
HORIZON_S = 2.0
N_STATES = 2
WHAT_IF_FRACTION = 0.25
TICK_S = 0.05
BATCH_WINDOW_S = 0.5
MAX_BATCH = 64
WARM_CAPACITY = 16


def _config(batch_window_s, max_batch):
    return FleetConfig(
        max_queue=2048,
        max_inflight_per_worker=256,
        request_timeout_s=60.0,
        queue_timeout_s=120.0,
        retry_jitter_s=0.0,
        max_staleness_s=600.0,
        log_heartbeats=False,
        batch_window_s=batch_window_s,
        max_batch=max_batch,
    )


def _answers(coordinator):
    """Status + payload per request — the differential oracle's view."""
    return {
        rid: (answer.status.value, repr(answer.payload))
        for rid, answer in coordinator.answers.items()
    }


def test_fleet_throughput(record_artifact):
    registry = demo_fleet(n_chassis=2, n_rows=15, replicas=1)
    workload = generate_workload(
        registry,
        seed=SEED,
        n_requests=FLEET_REQUESTS,
        horizon_s=HORIZON_S,
        n_states=N_STATES,
        what_if_fraction=WHAT_IF_FRACTION,
    )

    variants = {
        "per_message": lambda: drive_fleet(
            registry,
            workload,
            _config(batch_window_s=0.0, max_batch=1),
            tick_s=TICK_S,
            warm_capacity=0,
        ),
        "batched": lambda: drive_fleet(
            registry,
            workload,
            _config(
                batch_window_s=BATCH_WINDOW_S, max_batch=MAX_BATCH
            ),
            tick_s=TICK_S,
            warm_capacity=WARM_CAPACITY,
        ),
    }

    def _cleared(best):
        # Keep sampling until the ratio clears the bar with margin.
        return (
            best["per_message"] / best["batched"]
            >= FLEET_MIN_SPEEDUP * 1.1
        )

    best, results, rounds = alternating_best_of(
        variants, stop=_cleared
    )

    serial, serial_events = results["per_message"]
    batched, batched_events = results["batched"]

    # Differential oracle: batching must not change a single answer.
    assert _answers(serial) == _answers(batched)
    assert len(serial.answers) == FLEET_REQUESTS

    batch_events = [
        event
        for event in batched_events
        if event["type"] == "fleet_batch"
    ]
    assert batch_events, "batched run dispatched no batches"
    n_batched_queries = sum(e["size"] for e in batch_events)
    warm_hits = sum(e["warm_hits"] for e in batch_events)
    warm_misses = sum(e["warm_misses"] for e in batch_events)

    serial_latency = latency_stats(serial_events)
    batched_latency = latency_stats(batched_events)
    speedup = best["per_message"] / best["batched"]

    payload = {
        "benchmark": "fleet_throughput",
        "n_requests": FLEET_REQUESTS,
        "n_chassis": 2,
        "n_sockets_per_chassis": 180,
        "n_states": N_STATES,
        "what_if_fraction": WHAT_IF_FRACTION,
        "seed": SEED,
        "rounds": rounds,
        "batch_window_s": BATCH_WINDOW_S,
        "max_batch": MAX_BATCH,
        "warm_capacity": WARM_CAPACITY,
        "per_message_s": round(best["per_message"], 4),
        "batched_s": round(best["batched"], 4),
        "per_message_qps": round(
            FLEET_REQUESTS / best["per_message"], 1
        ),
        "batched_qps": round(FLEET_REQUESTS / best["batched"], 1),
        "speedup": round(speedup, 3),
        "min_speedup": FLEET_MIN_SPEEDUP,
        "n_batches": len(batch_events),
        "mean_batch_size": round(
            n_batched_queries / len(batch_events), 2
        ),
        "warm_hits": warm_hits,
        "warm_misses": warm_misses,
        "per_message_p50_s": round(serial_latency["p50_s"], 4),
        "per_message_p99_s": round(serial_latency["p99_s"], 4),
        "batched_p50_s": round(batched_latency["p50_s"], 4),
        "batched_p99_s": round(batched_latency["p99_s"], 4),
    }
    line = write_bench_json("fleet_throughput.json", payload)
    record_artifact("fleet_throughput", line + "\n")

    assert speedup >= FLEET_MIN_SPEEDUP, (
        f"micro-batched dispatch reached only {speedup:.2f}x over the "
        f"per-message baseline (required {FLEET_MIN_SPEEDUP}x): {line}"
    )


if __name__ == "__main__":
    argv = sys.argv[1:]
    if "--smoke" in argv:
        # CI perf-regression smoke: a lighter stream and a 1.5x floor —
        # enough to catch the batched path regressing toward the
        # per-message baseline without flaky absolute-time bars.
        argv.remove("--smoke")
        os.environ.setdefault("BENCH_FLEET_MIN_SPEEDUP", "1.5")
        os.environ.setdefault("BENCH_FLEET_REQUESTS", "300")
    sys.exit(pytest.main([__file__, "-v", "-s"] + argv))
