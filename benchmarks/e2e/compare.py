"""Compare two sets of end-to-end benchmark runs.

    python3 benchmarks/e2e/compare.py OLD_DIR NEW_DIR
    python3 benchmarks/e2e/compare.py OLD_DIR NEW_DIR --baseline-out FILE

Each directory holds the per-run JSON files ``run.py`` writes (``--out``).
For every workload and end-to-end metric it prints both sets' medians
and quartiles and a verdict against the metric's bound on that
workload: the smaller of the ``BENCHMARK.json`` bound and the
workload's own bound in ``metrics.json``.

- ``ok``: the new median is not worse than the old by more than the bound;
- ``regressed``: it is;
- ``unresolved``: either set's quartile spread is wider than the bound,
  unless every new run reads better than every old run (``better``);
- ``derived``: the metric is a function of another one on this workload
  (``rate`` as work per ``p50_ms``) and is judged through that one.

The ``pairs`` column applies the rule for claiming a gain: runs are
paired by seed, and a gain needs the new side to win at least 9/10 of
the pairs (ties count for neither) with the medians further apart than
the old set's quartile spread.  The exit status is 1 if anything
regressed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def load_runs(directory: Path) -> dict:
    """Untraced results by workload, each list ordered by seed."""
    runs = {}
    for path in sorted(directory.glob("*.t0.*.json")):
        result = json.loads(path.read_text())
        runs.setdefault(result["workload"], []).append(result)
    for results in runs.values():
        results.sort(key=lambda r: r["seed"])
    return runs


def stats(values) -> dict:
    if len(values) > 1:
        q1, mid, q3 = quantiles(values, n=4)
    else:
        q1 = mid = q3 = values[0]
    return {"median": mid, "q1": q1, "q3": q3, "n": len(values)}


def better(a: float, b: float, direction: str) -> bool:
    """Whether ``a`` reads better than ``b``."""
    return a < b if direction == "lower" else a > b


def compare_metric(old, new, entry, local: dict) -> dict:
    """Verdict for one workload x metric (lists of run results).

    ``local`` is the metric's ``metrics.json`` entry for the workload.
    """
    name, direction = entry["name"], entry["better"]
    bound = min(entry["bound"], local["bound"])
    a = [r["metrics"][name] for r in old]
    b = [r["metrics"][name] for r in new]
    sa, sb = stats(a), stats(b)
    change = (sb["median"] - sa["median"]) / sa["median"]
    worse = change if direction == "lower" else -change
    spread = max(
        (s["q3"] - s["q1"]) / s["median"] for s in (sa, sb)
    )
    if "derived_from" in local:
        verdict = "derived"
    elif spread > bound:
        every = all(better(y, x, direction) for x in a for y in b)
        verdict = "better" if every else "unresolved"
    elif worse > bound:
        verdict = "regressed"
    else:
        verdict = "ok"
    by_seed = {r["seed"]: r["metrics"][name] for r in old}
    pairs = [
        (by_seed[r["seed"]], r["metrics"][name])
        for r in new
        if r["seed"] in by_seed
    ]
    wins = sum(1 for x, y in pairs if better(y, x, direction))
    gain = (
        verdict != "derived"
        and bool(pairs)
        and wins >= 0.9 * len(pairs)
        and abs(sb["median"] - sa["median"]) > sa["q3"] - sa["q1"]
    )
    return {
        "old": sa,
        "new": sb,
        "change": change,
        "spread": spread,
        "bound": bound,
        "verdict": verdict,
        "wins": wins,
        "pairs": len(pairs),
        "gain": gain,
    }


def show(s: dict) -> str:
    return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "system": f"{platform.system()} {platform.machine()}",
        "git_sha": sha,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument(
        "--baseline-out",
        type=Path,
        help="also write both sets' statistics and the machine to FILE",
    )
    args = parser.parse_args(argv)
    decl = json.loads((ROOT / "BENCHMARK.json").read_text())
    local = json.loads((HERE / "metrics.json").read_text())["end_to_end"]
    old, new = load_runs(args.old), load_runs(args.new)
    rows = {}
    header = (
        f"{'workload':16} {'metric':12} {'old median [q1, q3]':>30} "
        f"{'new median [q1, q3]':>30} {'change':>8} {'spread':>7} "
        f"{'bound':>6} {'verdict':10} pairs"
    )
    print(header)
    regressed = False
    for workload in [w["name"] for w in decl["workloads"]]:
        if workload not in old or workload not in new:
            print(f"{workload:16} (missing from one set)")
            continue
        for entry in decl["end_to_end"]:
            row = compare_metric(
                old[workload], new[workload], entry,
                local[entry["name"]][workload],
            )
            rows.setdefault(workload, {})[entry["name"]] = row
            regressed |= row["verdict"] == "regressed"
            claim = "gain" if row["gain"] else "-"
            print(
                f"{workload:16} {entry['name']:12} {show(row['old']):>30} "
                f"{show(row['new']):>30} {row['change']:+8.1%} "
                f"{row['spread']:7.1%} {row['bound']:6.0%} "
                f"{row['verdict']:10} {row['wins']}/{row['pairs']} {claim}"
            )
    if args.baseline_out is not None:
        env = next(iter(old.values()))[0]["env"]
        baseline = {
            "machine": {**machine(), **env},
            "run_seconds": decl["run_seconds"],
            "seeds": sorted({r["seed"] for rs in old.values() for r in rs}),
            "metrics": rows,
        }
        args.baseline_out.write_text(
            json.dumps(baseline, indent=1, sort_keys=True) + "\n"
        )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
