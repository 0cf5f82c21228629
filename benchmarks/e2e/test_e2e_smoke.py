"""Smoke test of the end-to-end benchmark (about a minute).

Run with ``pytest benchmarks/e2e``; it is not part of the tier-1 suite.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DECL = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECL["workloads"]]
E2E = {m["name"]: m["unit"] for m in DECL["end_to_end"]}
LAYERS = {m["name"]: m["unit"] for m in DECL["per_layer"]}
#: The per-layer metrics each workload's traced run must report.
REPORTS = {
    w: {
        name
        for name, entry in json.loads((HERE / "metrics.json").read_text())[
            "per_layer"
        ].items()
        if w in entry["workloads"]
    }
    for w in WORKLOADS
}
#: Counts of failures, which read 0 on a healthy run.
MAY_BE_ZERO = {"fleet.shed", "fleet.degraded", "fleet.failed"}


def run(root: Path, *args, timeout=300):
    return subprocess.run(
        [sys.executable, str(root / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def copy_benchmark(dest: Path, with_program: bool) -> Path:
    """A checkout holding BENCHMARK.json, the benchmark and maybe src/."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(
        HERE,
        dest / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    if with_program:
        (dest / "src").symlink_to(ROOT / "src")
    return dest


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("out")
    proc = run(ROOT, "--smoke", "--trace", "1", "--seed", "0", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return proc, out


def test_every_reported_metric_is_printed_with_its_unit(smoke):
    proc, _ = smoke
    printed = {}
    for line in proc.stdout.splitlines()[:-1]:
        workload, metric, value, unit = line.split()
        float(value)
        printed.setdefault(workload, {})[metric] = unit
    for workload in WORKLOADS:
        expected = {
            **E2E,
            **{m: LAYERS[m] for m in REPORTS[workload]},
            "trace_overhead_ms": "ms",
            "trace_overhead_pct": "%",
        }
        assert printed[workload] == expected, workload


def test_json_results_match_declared_names(smoke):
    proc, out = smoke
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    expected = {
        f"{w}.{m}"
        for w in WORKLOADS
        for m in [
            *E2E, *REPORTS[w], "trace_overhead_ms", "trace_overhead_pct"
        ]
    }
    assert set(summary["metrics"]) == expected
    for workload in WORKLOADS:
        (untraced,) = out.glob(f"{workload}.s0.t0.smoke.*.json")
        (traced,) = out.glob(f"{workload}.s0.t1.smoke.*.json")
        assert set(json.loads(untraced.read_text())["metrics"]) == set(E2E)
        layers = json.loads(traced.read_text())["layers"]
        assert set(layers) == REPORTS[workload], workload
        unmeasured = {m for m, v in layers.items() if v <= 0} - MAY_BE_ZERO
        assert not unmeasured, (workload, unmeasured)
        assert (out / f"trace-{workload}.jsonl").stat().st_size > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_one_run_prints_the_contract_line(tmp_path, trace):
    proc = run(
        ROOT,
        "--smoke",
        "--workload", "fleet_wire",
        "--seed", "1",
        "--trace", str(trace),
        "--out", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == (LAYERS if trace else E2E)
    expected = REPORTS["fleet_wire"] - MAY_BE_ZERO if trace else set(E2E)
    positive = {k for k, v in result["metrics"].items() if v["value"] > 0}
    assert positive >= expected


def test_run_length_is_fixed():
    seconds = str(DECL["run_seconds"] + 1)
    proc = run(ROOT, "--workload", "fleet_wire", "--seconds", seconds)
    assert proc.returncode == 2
    assert "run_seconds" in proc.stderr and proc.stdout == ""


def test_wrong_golden_fails_the_run(tmp_path):
    root = copy_benchmark(tmp_path, with_program=True)
    goldens_path = root / "benchmarks" / "e2e" / "goldens.json"
    goldens = json.loads(goldens_path.read_text())
    points = goldens["smoke"]["sweep_placement"]["0"]
    points[sorted(points)[0]] = "0" * 64
    goldens_path.write_text(json.dumps(goldens))
    proc = run(
        root, "--smoke", "--workload", "sweep_placement", "--seed", "0"
    )
    assert proc.returncode != 0
    assert "sweep_placement" in proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is False


def test_refuses_to_run_without_the_program(tmp_path):
    root = copy_benchmark(tmp_path, with_program=False)
    proc = run(root, "--workload", "fleet_wire", "--seed", "0", timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
