"""The buffered JSONL writer: round-trips, truncation safety, reuse."""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.config.presets import smoke
from repro.core import get_scheduler
from repro.errors import ObservabilityError
from repro.obs.writer import (
    JsonlWriter,
    encode_event,
    iter_events,
    read_events,
)
from repro.obs.events import make_event
from repro.server.topology import moonshot_sut
from repro.sim.engine import Simulation
from repro.sim.tracing import TraceConfig
from repro.workloads.arrivals import ArrivalProcess
from repro.workloads.benchmark import BenchmarkSet


def _events(n):
    return [
        make_event("placement", step=i, t=i * 0.001, job_id=i, socket=i % 4)
        for i in range(n)
    ]


# -- round-trip -----------------------------------------------------------


def test_round_trip(tmp_path):
    path = tmp_path / "log.jsonl"
    events = _events(100)
    with JsonlWriter(path) as writer:
        for event in events:
            writer.emit(event)
    assert read_events(path, strict=True, validate=True) == events


def test_bytes_are_canonical(tmp_path):
    """Same stream -> same file bytes (logs can be fingerprinted)."""
    path = tmp_path / "log.jsonl"
    events = _events(20)
    with JsonlWriter(path) as writer:
        for event in events:
            writer.emit(event)
    expected = b"".join(encode_event(e) for e in events)
    assert path.read_bytes() == expected


def test_parent_directories_created(tmp_path):
    path = tmp_path / "a" / "b" / "log.jsonl"
    with JsonlWriter(path) as writer:
        writer.emit(_events(1)[0])
    assert read_events(path, strict=True)


# -- truncation and corruption --------------------------------------------


def test_truncated_tail_tolerated(tmp_path):
    path = tmp_path / "log.jsonl"
    events = _events(5)
    with JsonlWriter(path) as writer:
        for event in events:
            writer.emit(event)
    # Simulate a SIGKILL mid-write: chop the final line in half.
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 20])
    recovered = read_events(path, validate=True)
    assert recovered == events[:4]
    with pytest.raises(ObservabilityError, match="truncated"):
        read_events(path, strict=True)


def test_interior_corruption_always_raises(tmp_path):
    path = tmp_path / "log.jsonl"
    with JsonlWriter(path) as writer:
        for event in _events(5):
            writer.emit(event)
    lines = path.read_bytes().split(b"\n")
    lines[2] = b"{definitely not json"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ObservabilityError, match="line 3 is corrupt"):
        read_events(path)  # even in non-strict mode


def test_missing_file_raises(tmp_path):
    with pytest.raises(ObservabilityError, match="cannot read"):
        read_events(tmp_path / "absent.jsonl")


def test_append_mode_terminates_unterminated_tail(tmp_path):
    """Resume after a crash: an unterminated last line must not fuse
    with the first appended line into one corrupt record."""
    path = tmp_path / "log.jsonl"
    first = _events(3)
    with JsonlWriter(path) as writer:
        for event in first:
            writer.emit(event)
    data = path.read_bytes()
    path.write_bytes(data[:-1])  # crash after the bytes, before the \n
    second = _events(2)
    with JsonlWriter(path, append=True) as writer:
        for event in second:
            writer.emit(event)
    assert read_events(path, strict=True, validate=True) == first + second


# -- writer lifecycle ------------------------------------------------------


def test_close_is_idempotent(tmp_path):
    writer = JsonlWriter(tmp_path / "log.jsonl")
    writer.emit(_events(1)[0])
    writer.close()
    writer.close()


def test_emit_after_close_raises(tmp_path):
    writer = JsonlWriter(tmp_path / "log.jsonl")
    writer.close()
    with pytest.raises(ObservabilityError, match="closed"):
        writer.emit(_events(1)[0])


def test_serialisation_error_raises_at_emit(tmp_path):
    """An event that cannot be encoded raises where it is emitted and
    writes nothing; the events around it are kept."""
    path = tmp_path / "log.jsonl"
    first, second = _events(2)
    with JsonlWriter(path) as writer:
        writer.emit(first)
        with pytest.raises(ObservabilityError, match="not JSON"):
            writer.emit({"v": 1, "type": "sweep_end", "n_points": object()})
        writer.emit(second)
    assert read_events(path, strict=True) == [first, second]


def test_encode_event_rejects_non_finite():
    with pytest.raises(ObservabilityError, match="not JSON-serialisable"):
        encode_event({"v": 1, "type": "x", "value": float("nan")})


# -- SIGKILL truncation safety (the real thing, not a simulation) ----------


_KILL_SCRIPT = textwrap.dedent(
    """
    import sys
    from repro.obs.events import make_event
    from repro.obs.writer import JsonlWriter

    writer = JsonlWriter(sys.argv[1])
    for i in range(200_000):
        writer.emit(
            make_event(
                "placement", step=i, t=i * 0.001, job_id=i, socket=0
            )
        )
        if i == 500:
            print("WRITING", flush=True)
    """
)


def test_sigkill_leaves_parseable_log(tmp_path):
    """A writer process killed with SIGKILL mid-stream leaves a log
    whose every complete line parses and validates."""
    path = tmp_path / "killed.jsonl"
    env = dict(os.environ)
    root = Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = str(root / "src")
    proc = subprocess.Popen(
        [sys.executable, "-c", _KILL_SCRIPT, str(path)],
        stdout=subprocess.PIPE,
        env=env,
    )
    try:
        assert proc.stdout.readline().strip() == b"WRITING"
        # Wait until the writer has handed a few flushes to the OS,
        # then kill without any chance to flush or close.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if path.exists() and path.stat().st_size > 4096:
                break
            time.sleep(0.01)
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        proc.stdout.close()
        if proc.poll() is None:  # pragma: no cover - cleanup path
            proc.kill()
            proc.wait()
    events = read_events(path, validate=True)  # non-strict: tail may be cut
    assert len(events) > 0
    # Steps are contiguous from zero: nothing interior went missing.
    assert [e["step"] for e in events] == list(range(len(events)))


# -- no thread at fork ------------------------------------------------------


_FORK_PROBE_SCRIPT = textwrap.dedent(
    """
    import asyncio, json, os, sys, threading

    counts = []
    os.register_at_fork(before=lambda: counts.append(threading.active_count()))

    from repro.__main__ import main
    from repro.fleet import FleetService, demo_fleet
    from repro.obs.events import EventBus
    from repro.obs.writer import JsonlWriter

    out = sys.argv[1]
    main([
        "sweep", "--schemes", "CF", "CP", "--sets", "Computation",
        "--loads", "0.5", "--sim-time", "2", "--rows", "1",
        "--workers", "2", "--telemetry", out,
    ])
    sweep = list(counts)
    writer = JsonlWriter(os.path.join(out, "fleet.jsonl"))
    bus = EventBus()
    bus.subscribe(writer.emit)

    async def serve():
        service = FleetService(demo_fleet(1, n_rows=1, replicas=1), bus=bus)
        await service.start()
        await service.stop()

    asyncio.run(serve())
    writer.close()
    print("FORKS", json.dumps({"sweep": sweep, "fleet": counts[len(sweep):]}))
    """
)


@pytest.mark.skipif(
    not hasattr(os, "register_at_fork"), reason="needs os.register_at_fork"
)
def test_no_thread_is_alive_at_any_fork(tmp_path):
    """Writing telemetry starts no thread: a pooled sweep and a fleet
    service, both with a log open, fork their workers from a process
    whose only thread is the main one."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _FORK_PROBE_SCRIPT, str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    (line,) = [
        line for line in proc.stdout.splitlines() if line.startswith("FORKS ")
    ]
    forks = json.loads(line[len("FORKS ") :])
    assert forks == {"sweep": [1, 1], "fleet": [1, 1]}
    assert (tmp_path / "sweep.jsonl").stat().st_size > 0
    assert read_events(tmp_path / "fleet.jsonl", strict=True)


# -- engine reuse ----------------------------------------------------------


def _simulate_twice(tmp_path, trace_config=None):
    topology = moonshot_sut(n_rows=1)
    params = smoke(seed=11)
    arrivals = ArrivalProcess(
        benchmark_set=BenchmarkSet.COMPUTATION,
        load=0.5,
        n_sockets=topology.n_sockets,
        seed=params.seed,
        duration_scale=params.duration_scale,
    )
    jobs = arrivals.generate(params.sim_time_s)
    simulation = Simulation(
        topology,
        params,
        get_scheduler("CF"),
        trace_config=trace_config,
        telemetry=tmp_path,
    )
    return simulation, [simulation.run(jobs), simulation.run(jobs)]


def test_engine_reuse_writes_independent_logs(tmp_path):
    """Two back-to-back runs on one engine produce two independent,
    non-interleaved logs with identical event streams."""
    _, _results = _simulate_twice(tmp_path)
    first = tmp_path / "run-r0.jsonl"
    second = tmp_path / "run-r1.jsonl"
    assert first.exists() and second.exists()
    streams = []
    for path in (first, second):
        events = read_events(path, strict=True, validate=True)
        types = [e["type"] for e in events]
        assert types.count("run_start") == 1
        assert types.count("run_end") == 1
        assert types[0] == "run_start"
        assert types[-1] == "run_end"
        # Normalise the only run-specific field: the log's own name.
        for event in events:
            event.pop("run", None)
        streams.append(events)
    assert streams[0] == streams[1]


def test_tracer_resets_between_runs(tmp_path):
    """The tracer starts fresh every run: no sample concatenation."""
    _, results = _simulate_twice(
        tmp_path, trace_config=TraceConfig(interval_s=0.5)
    )
    first, second = (r.trace for r in results)
    assert first is not None and second is not None
    assert first is not second  # a fresh trace object per run
    assert len(first) > 0
    assert first.times_s == second.times_s  # equal, not concatenated
