"""End-to-end benchmark: engine sweeps, room planning and the fleet service.

Run from the repository root::

    python3 benchmarks/e2e/run.py --seed 0                # every workload
    python3 benchmarks/e2e/run.py --seed 0 --trace 1      # + traced runs
    python3 benchmarks/e2e/run.py --smoke                 # ~1/10 scale
    python3 benchmarks/e2e/run.py --workload fleet_wire --seed 3  # one run

Each workload runs in a fresh process (``workloads.py``) whose
environment has every ``REPRO_*`` variable removed and BLAS pinned to
one thread.  Set-up time is the median over fresh processes of spawn to
ready, host-speed adjusted (``reference.py``); peak RSS is sampled over
the workload process and all its descendants.  Every output is checked (``goldens.json`` for seeds 0 and
1, replay against in-process compute for the fleet).

Output: one ``<workload> <metric> <value> <unit>`` line per metric
(end-to-end metrics untraced; with ``--trace 1`` the per-layer metrics
of the layers the workload exercises), a JSON result per run under
``--out``, and as the last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--seconds``, if given,
must equal ``BENCHMARK.json``'s ``run_seconds``: the run length is part
of the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

from reference import SETUP_SENSITIVITY, adjusted

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKER = HERE / "workloads.py"

#: Extra set-up-only processes per untraced run (the measured run is
#: one more set-up sample).
SETUP_ONLY_RUNS = {"full": 4, "smoke": 0}
RSS_SAMPLE_S = 0.05
CHILD_TIMEOUT_S = 150.0


def declaration() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        PYTHONUNBUFFERED="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
    )
    return env


def tree_rss_bytes(root: int) -> int:
    """Resident set size of ``root`` plus all its descendants."""
    children = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    total = 0
    stack = [root]
    while stack:
        pid = stack.pop()
        try:
            with open(f"/proc/{pid}/statm") as handle:
                total += int(handle.read().split()[1]) * os.sysconf(
                    "SC_PAGE_SIZE"
                )
        except (OSError, IndexError, ValueError):
            pass
        stack.extend(children.get(pid, ()))
    return total


def _kill_group(pgid: int) -> bool:
    """SIGKILL a process group; False once nothing is left to kill."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        return False
    return True


def _reap_group(pgid: int) -> None:
    """Kill whatever is left of a child's process group and wait."""
    deadline = time.monotonic() + 5.0
    while _kill_group(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)


def run_child(args, sample_rss: bool):
    """Run ``workloads.py`` once.

    Returns ``(returncode, setup, result, peak_rss_bytes)``, where
    ``setup`` is ``(wall_s, kernel_s)``: spawn to ready without the
    reference kernel the child runs just before set-up, and that
    kernel's time.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=child_env(),
        start_new_session=True,
    )
    peak = [0]
    done = threading.Event()

    def sample() -> None:
        while not done.wait(RSS_SAMPLE_S):
            peak[0] = max(peak[0], tree_rss_bytes(proc.pid))

    sampler = threading.Thread(target=sample, daemon=True)
    if sample_rss:
        sampler.start()
    timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, [proc.pid])
    timer.start()
    setup_s = kernel = None
    result = None
    try:
        for line in proc.stdout:
            if line == "READY\n":
                setup_s = time.perf_counter() - t0
            elif line.startswith("KERNEL "):
                kernel = float(line[len("KERNEL "):])
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                sys.stderr.write(line)
        proc.wait()
    finally:
        timer.cancel()
        done.set()
        if sample_rss:
            sampler.join()
        _reap_group(proc.pid)
        proc.stdout.close()
    setup = None
    if setup_s is not None and kernel is not None:
        setup = (setup_s - kernel, kernel)
    return proc.returncode, setup, result, peak[0]


def run_workload(name, seed, seconds, trace, scale, out_dir: Path) -> dict:
    """One measured run of one workload; raises RuntimeError on failure."""
    common = [
        "--workload", name,
        "--seed", str(seed),
        "--scale", scale,
        "--out", str(out_dir),
    ]
    setups = []
    for _ in range(0 if trace else SETUP_ONLY_RUNS[scale]):
        code, setup, _, _ = run_child(common + ["--setup-only"], False)
        if code != 0 or setup is None:
            raise RuntimeError(f"{name}: set-up failed (exit {code})")
        setups.append(setup)
    code, setup, result, peak = run_child(
        common + ["--seconds", str(seconds), "--trace", str(trace)],
        sample_rss=not trace,
    )
    if code != 0 or result is None:
        raise RuntimeError(f"{name}: workload process failed (exit {code})")
    setups.append(setup)
    result["metrics"]["setup_s"] = median(
        adjusted(wall, kernel, SETUP_SENSITIVITY) for wall, kernel in setups
    )
    result["metrics"]["peak_rss_mb"] = peak / 2**20
    result["setup_samples_s"] = setups
    result.update(
        workload=name, seed=seed, seconds=seconds, trace=trace, scale=scale
    )
    return result


def measured(result: dict, trace: int, decl: dict) -> dict:
    """The declared metrics this run produced, in declaration order.

    An untraced run produces every end-to-end metric; a traced run only
    the per-layer metrics of the layers its workload exercises.
    """
    if trace:
        source, entries = result["layers"], decl["per_layer"]
    else:
        source, entries = result["metrics"], decl["end_to_end"]
    return {
        e["name"]: {"value": source[e["name"]], "unit": e["unit"]}
        for e in entries
        if e["name"] in source
    }


def contract_metrics(metrics: dict, trace: int, decl: dict) -> dict:
    """``metrics`` with every declared name, as the result line needs.

    A per-layer metric of a layer the workload does not exercise reads
    0 there; the printed lines and the saved JSON leave it out.
    """
    entries = decl["per_layer"] if trace else decl["end_to_end"]
    return {
        e["name"]: metrics.get(e["name"], {"value": 0.0, "unit": e["unit"]})
        for e in entries
    }


def save(result: dict, out_dir: Path) -> Path:
    stem = (
        f"{result['workload']}.s{result['seed']}.t{result['trace']}."
        f"{result['scale']}"
    )
    k = 0
    while (out_dir / f"{stem}.{k}.json").exists():
        k += 1
    path = out_dir / f"{stem}.{k}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return path


def report(name: str, metrics: dict) -> None:
    for metric, entry in metrics.items():
        print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: no program to measure: {ROOT / 'src' / 'repro'} "
            f"is missing",
            file=sys.stderr,
        )
        return 2
    decl = declaration()
    names = [w["name"] for w in decl["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=names, help="one workload (default: all)"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds",
        type=float,
        default=decl["run_seconds"],
        help="must equal BENCHMARK.json's run_seconds: the run length is "
        "part of the benchmark (--smoke measures a tenth of it)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="about 1/10 scale"
    )
    parser.add_argument("--out", default=str(HERE / "out"))
    args = parser.parse_args(argv)
    if args.seconds != decl["run_seconds"]:
        parser.error(
            f"--seconds {args.seconds:g}: runs measure run_seconds "
            f"({decl['run_seconds']}); use --smoke for a short run"
        )
    scale = "smoke" if args.smoke else "full"
    seconds = decl["run_seconds"] / (10 if args.smoke else 1)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.workload is not None:
        try:
            result = run_workload(
                args.workload, args.seed, seconds, args.trace, scale, out_dir
            )
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        save(result, out_dir)
        metrics = measured(result, args.trace, decl)
        report(args.workload, metrics)
        for error in result["errors"]:
            print(f"error: {error}", file=sys.stderr)
        print(
            json.dumps(
                {
                    "correct": result["correct"],
                    "attempted": result["attempted"],
                    "failed": result["failed"],
                    "metrics": contract_metrics(metrics, args.trace, decl),
                }
            )
        )
        return 0 if result["correct"] else 1

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            runs = [run_workload(name, args.seed, seconds, 0, scale, out_dir)]
            if args.trace:
                runs.append(
                    run_workload(name, args.seed, seconds, 1, scale, out_dir)
                )
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            summary["correct"] = False
            continue
        for trace, result in enumerate(runs):
            metrics = measured(result, trace, decl)
            if trace:
                base = runs[0]["metrics"]["p50_ms"]
                extra = result["layers"]["trace.p50_ms"] - base
                result["trace_overhead_ms"] = extra
                metrics["trace_overhead_ms"] = {"value": extra, "unit": "ms"}
                metrics["trace_overhead_pct"] = {
                    "value": 100.0 * extra / base,
                    "unit": "%",
                }
            save(result, out_dir)
            report(name, metrics)
            for error in result["errors"]:
                print(f"error: {error}", file=sys.stderr)
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            summary["metrics"].update(
                {f"{name}.{m}": e for m, e in metrics.items()}
            )
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
