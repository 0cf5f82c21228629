"""Command-line entry point: ``python -m repro``.

Subcommands:

- ``list`` — show every reproducible table/figure.
- ``run <name> [<name> ...]`` — regenerate specific artifacts.
- ``run --all`` / ``run --light`` — regenerate everything / only the
  analytical artifacts.
- ``schedulers`` — list the registered scheduling policies.
- ``sweep`` — run a custom scheduler x load x workload sweep and write
  the summaries to CSV/JSON.
- ``fleet serve`` / ``fleet query`` / ``fleet chaos`` — run the
  resilient multi-chassis fleet coordinator, query it over TCP, or
  drive it through a seeded chaos scenario and audit the invariants.
- ``room`` — room-scale sustainable load under CRAC supply
  temperature, heat recirculation and thermal-aware placement.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Dict, List

from ._version import __version__
from .core import all_scheduler_names
from .experiments.registry import (
    all_experiments,
    get_experiment,
)


def _cmd_list(_args) -> int:
    for experiment in all_experiments():
        kind = "sim " if experiment.heavy else "fast"
        print(f"{experiment.name:8s} [{kind}] {experiment.title}")
    return 0


def _cmd_schedulers(_args) -> int:
    for name in all_scheduler_names():
        print(name)
    return 0


def _make_output_dirs(*dirs, files=()) -> bool:
    """Create the output directories and the output files' parents.

    Commands call this after checking their inputs and before any work,
    so an unusable path (one under a regular file, say) costs nothing.
    Returns False after one ``error:`` line; the caller exits 2.
    """
    from pathlib import Path

    paths = [Path(d) for d in dirs if d]
    paths += [Path(f).parent for f in files if f]
    for path in paths:
        try:
            path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(
                f"error: cannot create directory {path}: "
                f"{exc.strerror or exc}",
                file=sys.stderr,
            )
            return False
    return True


def _unknown_names(*checks) -> bool:
    """Whether a ``(kind, names, known)`` check names an unknown value.

    Prints one ``error:`` line for the first such check; the caller
    exits 2.
    """
    for kind, names, known in checks:
        unknown = [name for name in names if name not in known]
        if unknown:
            print(
                f"error: unknown {kind}(s) {', '.join(unknown)}; "
                f"known: {', '.join(known)}",
                file=sys.stderr,
            )
            return True
    return False


@contextlib.contextmanager
def _environ(values: Dict[str, str]):
    """Set environment variables for the block, then restore the
    caller's values, also when the block raises."""
    saved = {name: os.environ.get(name) for name in values}
    os.environ.update(values)
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _cmd_run(args) -> int:
    from .experiments.common import (
        ENV_AUDIT,
        ENV_PROFILE,
        ENV_TELEMETRY,
        ENV_WORKERS,
        env_telemetry_dir,
    )

    if args.all:
        experiments = all_experiments()
    elif args.light:
        experiments = all_experiments(include_heavy=False)
    else:
        if not args.names:
            print(
                "specify artifact names, or --all / --light",
                file=sys.stderr,
            )
            return 2
        experiments = [get_experiment(name) for name in args.names]
    if not _make_output_dirs(args.telemetry or env_telemetry_dir()):
        return 2
    # Experiments read their scale knobs from ExperimentConfig, which
    # honours these environment variables; the flags are a convenience
    # spelling of the same contract, in force for this run only.
    flags = {}
    if args.workers is not None:
        flags[ENV_WORKERS] = str(args.workers)
    if args.audit:
        flags[ENV_AUDIT] = "1"
    if args.telemetry:
        flags[ENV_TELEMETRY] = args.telemetry
    if args.profile:
        flags[ENV_PROFILE] = "1"
    with _environ(flags):
        for experiment in experiments:
            print(f"==> {experiment.name}: {experiment.title}")
            experiment.main()
            print()
    return 0


def _cmd_report(args) -> int:
    from .experiments.report import write_report

    if not _make_output_dirs(files=(args.out,)):
        return 2
    path = write_report(args.out, include_heavy=args.heavy)
    print(f"wrote {path}")
    return 0


def _cmd_sweep(args) -> int:
    from .config.presets import scaled
    from .errors import ConfigurationError, TopologyError, WorkloadError
    from .experiments.common import ENV_PROFILE, env_flag, env_telemetry_dir
    from .server.topology import moonshot_sut
    from .sim.export import save_csv, save_json, sweep_summaries
    from .sim.runner import run_sweep
    from .workloads.arrivals import check_load
    from .workloads.benchmark import BenchmarkSet

    if _unknown_names(
        ("scheduler", args.schemes, all_scheduler_names()),
        ("benchmark set", args.sets, [m.value for m in BenchmarkSet]),
    ):
        return 2
    sets = [BenchmarkSet(name) for name in args.sets]
    fault_schedule = None
    try:
        topology = moonshot_sut(n_rows=args.rows)
        params = scaled(
            sim_time_s=args.sim_time,
            warmup_s=min(args.sim_time / 3.0, 8.0),
            seed=args.seed,
        )
        for load in args.loads:
            check_load(load)
        if args.faults:
            from .faults import parse_fault_spec

            fault_schedule = parse_fault_spec(
                args.faults,
                topology=topology,
                horizon_s=args.sim_time,
            )
    except (ConfigurationError, TopologyError, WorkloadError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    telemetry = args.telemetry or env_telemetry_dir()
    if not _make_output_dirs(
        telemetry, args.resume, files=(args.csv, args.json)
    ):
        return 2
    if fault_schedule is not None:
        print(
            f"fault schedule: {len(fault_schedule)} event(s), "
            f"fingerprint {fault_schedule.fingerprint()[:16]}"
        )
    results = run_sweep(
        topology,
        params,
        args.schemes,
        sets,
        args.loads,
        max_workers=args.workers or 1,
        audit=args.audit,
        fault_schedule=fault_schedule,
        checkpoint_dir=args.resume,
        telemetry=telemetry,
        profile=args.profile or env_flag(ENV_PROFILE),
    )
    if args.csv:
        save_csv(results, args.csv)
        print(f"wrote {args.csv}")
    if args.json:
        save_json(results, args.json)
        print(f"wrote {args.json}")
    if not args.csv and not args.json:
        for row in sweep_summaries(results):
            print(
                f"{row['scheduler']:12s} {row['benchmark_set']:12s} "
                f"load={row['load']:.2f} "
                f"expansion={row['mean_runtime_expansion']:.4f} "
                f"power={row['average_power_w']:.0f}W"
            )
    return 0


def _heartbeat(args) -> dict:
    """``--heartbeat-interval`` as a config field; omitted keeps the
    config's own default."""
    if args.heartbeat_interval is None:
        return {}
    return {"heartbeat_interval_s": args.heartbeat_interval}


def _max_batch(args) -> int:
    """``--max-batch``; omitted, 8 with a positive ``--batch-window``
    and 1 without."""
    if args.max_batch is not None:
        return args.max_batch
    return 8 if args.batch_window > 0 else 1


def _cmd_fleet_serve(args) -> int:
    import asyncio

    from .errors import ConfigurationError, FleetError
    from .fleet import (
        FleetConfig,
        FleetService,
        SupervisionPolicy,
        demo_fleet,
    )

    try:
        policy = SupervisionPolicy(**_heartbeat(args))
        config = FleetConfig(
            log_heartbeats=False,
            batch_window_s=args.batch_window,
            max_batch=_max_batch(args),
        )
        registry = demo_fleet(
            n_chassis=args.chassis, replicas=args.replicas
        )
    except (ConfigurationError, FleetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not _make_output_dirs(args.telemetry, args.checkpoints):
        return 2
    bus = writer = None
    if args.telemetry:
        from pathlib import Path

        from .obs.events import EventBus
        from .obs.writer import JsonlWriter

        writer = JsonlWriter(Path(args.telemetry) / "fleet.jsonl")
        bus = EventBus()
        bus.subscribe(writer.emit)
    service = FleetService(
        registry,
        policy=policy,
        config=config,
        checkpoint_dir=args.checkpoints,
        bus=bus,
    )

    async def _serve() -> None:
        server = await service.serve(host=args.host, port=args.port)
        address = ", ".join(
            str(sock.getsockname()) for sock in server.sockets
        )
        print(
            f"fleet: {registry.n_chassis} chassis / "
            f"{registry.n_workers} workers serving on {address}"
        )
        try:
            async with server:
                await server.serve_forever()
        finally:
            await service.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("fleet: stopped")
    finally:
        if writer is not None:
            writer.close()
    return 0


def _cmd_fleet_query(args) -> int:
    import asyncio
    import json

    from .errors import FleetError
    from .fleet.service import query_fleet

    if args.kind == "placement":
        obj = {
            "kind": "placement",
            "chassis": args.chassis,
            "job_power_w": args.power,
        }
    else:
        try:
            scenarios = [
                [float(u), float(p)]
                for u, p in (
                    pair.split(":") for pair in args.scenarios
                )
            ]
        except ValueError:
            print(
                "error: --scenarios takes UTIL:POWER pairs of numbers, "
                f"got {' '.join(args.scenarios)}",
                file=sys.stderr,
            )
            return 2
        obj = {
            "kind": "what_if",
            "chassis": args.chassis,
            "scenarios": scenarios,
        }
    try:
        answer = asyncio.run(
            query_fleet(obj, host=args.host, port=args.port)
        )
    except (OSError, FleetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(answer, indent=2, sort_keys=True))
    return 0 if answer.get("status") in ("ok", "degraded") else 1


def _cmd_fleet_chaos(args) -> int:
    import json

    from .errors import ConfigurationError, FleetError
    from .fleet import ChaosRunConfig, run_chaos

    try:
        config = ChaosRunConfig(
            seed=args.seed,
            horizon_s=args.horizon,
            n_chassis=args.chassis,
            n_requests=args.requests,
            n_chaos_events=args.chaos_events,
            batch_window_s=args.batch_window,
            max_batch=_max_batch(args),
            **_heartbeat(args),
        )
        if not _make_output_dirs(args.out):
            return 2
        report = run_chaos(config, out_dir=args.out)
    except (ConfigurationError, FleetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report.summary(), indent=2, sort_keys=True))
    if report.log_path is not None:
        print(f"wrote {report.log_path}")
    if not report.ok:
        print(
            f"{len(report.problems)} invariant violation(s)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_room(args) -> int:
    import json
    import math

    from .errors import ReproError
    from .experiments.common import ExperimentConfig, env_telemetry_dir
    from .experiments.room_scenarios import DEFAULT_MIXES, run
    from .room.placement import ROOM_PLACEMENTS
    from .workloads.benchmark import BenchmarkSet

    if _unknown_names(
        ("chassis mix", args.mixes, DEFAULT_MIXES),
        ("room placement", args.placements, sorted(ROOM_PLACEMENTS)),
        ("benchmark set", [args.set], [m.value for m in BenchmarkSet]),
    ):
        return 2
    problem = None
    if not all(math.isfinite(c) for c in args.setpoints):
        problem = f"setpoints must be finite, got {args.setpoints}"
    elif args.chassis < 1:
        problem = f"chassis must be >= 1, got {args.chassis}"
    elif args.diurnal_step < 1:
        problem = f"diurnal step must be >= 1, got {args.diurnal_step}"
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    telemetry = args.telemetry or env_telemetry_dir()
    if not _make_output_dirs(telemetry, files=(args.out,)):
        return 2
    try:
        config = ExperimentConfig(
            seed=args.seed,
            audit=args.audit,
            telemetry_dir=telemetry,
        )
        result = run(
            config=config,
            mixes=args.mixes,
            crac_setpoints_c=args.setpoints,
            placements=args.placements,
            benchmark_set=BenchmarkSet(args.set),
            n_chassis=args.chassis,
            diurnal_step_h=args.diurnal_step,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    from .experiments.common import format_table

    print("Sustainable room load vs CRAC supply temperature")
    print(
        format_table(
            ["CRAC degC"] + list(result.mixes), result.curve_rows()
        )
    )
    print()
    print(
        f"Placement comparison at {result.reference_crac_c:.0f} degC"
    )
    print(
        format_table(
            ["mix"] + list(result.placements),
            result.placement_rows(),
        )
    )
    print()
    print(f"Diurnal envelope ({result.diurnal_mix} mix)")
    print(
        format_table(
            ["hour", "supply degC", "max load"],
            result.diurnal_rows(),
        )
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(
                result.to_json_dict(),
                handle,
                indent=2,
                sort_keys=True,
            )
            handle.write("\n")
        print(f"wrote {args.out}")
    return 0


def _worker_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"worker count must be >= 1, got {value}"
        )
    return value


def _add_execution_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--workers`` / ``--audit`` execution flags."""
    parser.add_argument(
        "--workers",
        type=_worker_count,
        default=None,
        metavar="N",
        help=(
            "run sweep points across N worker processes "
            "(results are bit-identical to serial execution)"
        ),
    )
    parser.add_argument(
        "--audit",
        action="store_true",
        help=(
            "check physical invariants (finite ordered temperatures, "
            "power envelope, non-negative work, monotone energy) "
            "periodically during every simulation"
        ),
    )
    parser.add_argument(
        "--telemetry",
        metavar="DIR",
        default=None,
        help=(
            "record structured JSONL telemetry (scheduling decisions, "
            "DVFS throttles, thermal trips, fault activations, sweep "
            "harness actions) plus per-run provenance manifests into "
            "DIR; results stay bit-identical (also: REPRO_TELEMETRY)"
        ),
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "account per-component wall-clock for every simulation "
            "(about 3%% overhead on the 180-socket SUT) and attach the "
            "profile table to results and manifests (also: "
            "REPRO_PROFILE=1)"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Understanding the Impact of Socket "
            "Density in Density Optimized Servers' (HPCA 2019)"
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_parser = sub.add_parser(
        "list", help="list reproducible tables and figures"
    )
    list_parser.set_defaults(func=_cmd_list)

    run_parser = sub.add_parser(
        "run", help="regenerate one or more artifacts"
    )
    run_parser.add_argument(
        "names", nargs="*", help="artifact names (e.g. fig14 table2)"
    )
    run_parser.add_argument(
        "--all", action="store_true", help="regenerate everything"
    )
    run_parser.add_argument(
        "--light",
        action="store_true",
        help="regenerate only the fast analytical artifacts",
    )
    _add_execution_flags(run_parser)
    run_parser.set_defaults(func=_cmd_run)

    sched_parser = sub.add_parser(
        "schedulers", help="list registered scheduling policies"
    )
    sched_parser.set_defaults(func=_cmd_schedulers)

    sweep_parser = sub.add_parser(
        "sweep", help="run a custom sweep and export summaries"
    )
    sweep_parser.add_argument(
        "--schemes",
        nargs="+",
        default=["CF", "CP"],
        help="scheduler names (see `schedulers`)",
    )
    sweep_parser.add_argument(
        "--sets",
        nargs="+",
        default=["Computation"],
        help="benchmark sets: Computation, GP, Storage",
    )
    sweep_parser.add_argument(
        "--loads",
        nargs="+",
        type=float,
        default=[0.3, 0.7],
        help="load levels in (0, 1]",
    )
    sweep_parser.add_argument(
        "--rows", type=int, default=3, help="SUT rows (15 = full)"
    )
    sweep_parser.add_argument(
        "--sim-time",
        type=float,
        default=16.0,
        help="scaled horizon, seconds",
    )
    sweep_parser.add_argument("--seed", type=int, default=0)
    sweep_parser.add_argument(
        "--faults",
        metavar="SPEC",
        help=(
            "inject a deterministic fault schedule into every point; "
            "clauses separated by ';', e.g. "
            "'fan:row=0,scale=0.5,start=2;kill:socket=3,start=4' or "
            "'random:seed=7,n=3' (see repro.faults.parse_fault_spec)"
        ),
    )
    sweep_parser.add_argument(
        "--resume",
        metavar="DIR",
        help=(
            "checkpoint directory: every finished point is persisted "
            "there immediately, and re-running with the same "
            "configuration resumes bit-identically from whatever "
            "completed"
        ),
    )
    sweep_parser.add_argument("--csv", help="write summaries to CSV")
    sweep_parser.add_argument("--json", help="write summaries to JSON")
    _add_execution_flags(sweep_parser)
    sweep_parser.set_defaults(func=_cmd_sweep)

    fleet_parser = sub.add_parser(
        "fleet",
        help="resilient multi-chassis fleet coordinator",
    )
    fleet_sub = fleet_parser.add_subparsers(
        dest="fleet_command", required=True
    )

    def _add_fleet_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--heartbeat-interval",
            type=float,
            default=None,
            metavar="S",
            help=(
                "worker heartbeat cadence in seconds; must be "
                "positive (default: 1 for serve, 0.25 for chaos)"
            ),
        )
        p.add_argument(
            "--chassis", type=int, default=3, help="fleet width"
        )
        p.add_argument(
            "--batch-window",
            type=float,
            default=0.0,
            metavar="S",
            help=(
                "micro-batching coalescing window in seconds; with 0 "
                "(default) only queries queued behind a full worker "
                "coalesce"
            ),
        )
        p.add_argument(
            "--max-batch",
            type=int,
            default=None,
            metavar="N",
            help=(
                "most queries per batch message (default 8 with a "
                "positive --batch-window, else 1); a batch is full, "
                "and ships without waiting out the window, at this "
                "or at the per-worker in-flight cap, whichever is less"
            ),
        )

    serve_parser = fleet_sub.add_parser(
        "serve", help="run the fleet service (JSON lines over TCP)"
    )
    _add_fleet_flags(serve_parser)
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=7781)
    serve_parser.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="extra workers per chassis (retry targets)",
    )
    serve_parser.add_argument(
        "--checkpoints",
        metavar="DIR",
        help="persist worker snapshots for restart recovery",
    )
    serve_parser.add_argument(
        "--telemetry",
        metavar="DIR",
        help="mirror fleet supervision events to DIR/fleet.jsonl",
    )
    serve_parser.set_defaults(func=_cmd_fleet_serve)

    query_parser = fleet_sub.add_parser(
        "query", help="send one query to a running fleet service"
    )
    query_parser.add_argument(
        "kind", choices=["placement", "what_if"]
    )
    query_parser.add_argument("--host", default="127.0.0.1")
    query_parser.add_argument("--port", type=int, default=7781)
    query_parser.add_argument(
        "--chassis", default="c0", help="target chassis id"
    )
    query_parser.add_argument(
        "--power",
        type=float,
        default=10.0,
        help="job dynamic power for placement queries, W",
    )
    query_parser.add_argument(
        "--scenarios",
        nargs="+",
        default=["0.5:10"],
        metavar="UTIL:POWER",
        help="what-if scenarios as utilization:dyn_power pairs",
    )
    query_parser.set_defaults(func=_cmd_fleet_query)

    chaos_parser = fleet_sub.add_parser(
        "chaos",
        help=(
            "drive the coordinator through a seeded chaos scenario "
            "in virtual time and audit the invariants"
        ),
    )
    _add_fleet_flags(chaos_parser)
    chaos_parser.add_argument("--seed", type=int, default=0)
    chaos_parser.add_argument(
        "--horizon", type=float, default=30.0, help="virtual seconds"
    )
    chaos_parser.add_argument(
        "--requests", type=int, default=40, help="workload size"
    )
    chaos_parser.add_argument(
        "--chaos-events", type=int, default=6, help="failures injected"
    )
    chaos_parser.add_argument(
        "--out",
        metavar="DIR",
        help="write fleet.jsonl and worker checkpoints under DIR",
    )
    chaos_parser.set_defaults(func=_cmd_fleet_chaos)

    room_parser = sub.add_parser(
        "room",
        help=(
            "room-scale sustainable load: CRAC setpoints, heat "
            "recirculation and thermal-aware placement"
        ),
    )
    room_parser.add_argument(
        "--mixes",
        nargs="+",
        default=["coupled", "uncoupled", "mixed"],
        help="chassis mixes: coupled, uncoupled, mixed",
    )
    room_parser.add_argument(
        "--setpoints",
        nargs="+",
        type=float,
        default=[14.0, 18.0, 22.0, 26.0, 30.0],
        metavar="DEGC",
        help="CRAC supply temperatures for the derating curves",
    )
    room_parser.add_argument(
        "--placements",
        nargs="+",
        default=["paper", "coolest", "minhr"],
        help="placement policies: paper, coolest, minhr",
    )
    room_parser.add_argument(
        "--set",
        default="Computation",
        help="benchmark set: Computation, GP, Storage",
    )
    room_parser.add_argument(
        "--chassis", type=int, default=3, help="chassis per mix"
    )
    room_parser.add_argument(
        "--diurnal-step",
        type=int,
        default=2,
        metavar="H",
        help="hour stride of the diurnal free-cooling trace",
    )
    room_parser.add_argument("--seed", type=int, default=0)
    room_parser.add_argument(
        "--audit",
        action="store_true",
        help=(
            "recheck every converged room equilibrium against the "
            "room invariant envelope (fixed point, inlet floors, "
            "temperature ordering, exhaust accounting)"
        ),
    )
    room_parser.add_argument(
        "--telemetry",
        metavar="DIR",
        help="mirror room solver events to DIR/room.jsonl",
    )
    room_parser.add_argument(
        "--out",
        metavar="JSON",
        help="write the sustainable-load results as JSON",
    )
    room_parser.set_defaults(func=_cmd_room)

    report_parser = sub.add_parser(
        "report", help="write a full reproduction report (markdown)"
    )
    report_parser.add_argument(
        "--out", default="REPORT.md", help="output path"
    )
    report_parser.add_argument(
        "--heavy",
        action="store_true",
        help="also run the simulation-backed artifacts (minutes)",
    )
    report_parser.set_defaults(func=_cmd_report)
    return parser


def main(argv: "List[str] | None" = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
