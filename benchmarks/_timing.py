"""Shared timing harness for the benchmark suite.

Two measurement idioms, extracted from ``bench_step_pipeline.py`` so
every bench scores runs the same way:

- :func:`best_of` — best-of-N wall-clock of a single variant.  On
  shared machines interference spikes (neighbour load, GC) inflate
  individual runs by far more than the effects under measurement; only
  the noise *floor* is stable, so the minimum over a few rounds is the
  score.
- :func:`alternating_best_of` — adaptive best-of over several variants
  run in alternation.  Alternating gives every variant the same shot at
  quiet windows; sampling continues past a minimum round count until a
  caller-supplied predicate says the measured ratio has cleared its
  threshold (or a round cap is hit), since on virtualised runners
  host-steal bursts can inflate either floor for seconds at a time.
- :func:`alternating_rounds` — the same alternation, keeping every
  round's times.  Two best-of floors can come from different
  host-speed periods; a ratio taken within each round compares runs
  made back to back, and :func:`median_ratio` summarises those.

:func:`write_bench_json` standardises the BENCH output contract: one
``BENCH {...}`` line on stdout plus a committed JSON artifact under
``benchmarks/results/``.

:func:`write_text_artifact` writes the human-readable ``.txt`` artifact
*and* always emits a machine-readable ``.json`` sidecar next to it —
``BENCH`` lines sidecar to their parsed payload (identical to what
:func:`write_bench_json` writes), plain tables/figures to their lines —
so every committed artifact can be consumed without scraping text.
"""

import json
import os
import statistics
import time

#: Default best-of repetitions; the least-interfered round is scored.
ROUNDS = 5

#: Default round bounds for the adaptive alternating measurement.
ADAPTIVE_ROUNDS_MIN = 6
ADAPTIVE_ROUNDS_MAX = 30

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def best_of(fn, rounds=ROUNDS):
    """Best (minimum) wall-clock seconds of ``fn()`` over ``rounds``.

    Returns:
        ``(best_seconds, last_result)`` — the result is stable across
        rounds for deterministic workloads, so the last one stands in
        for all of them.
    """
    best_s = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best_s = min(best_s, elapsed)
    return best_s, result


def alternating_rounds(
    variants,
    stop=None,
    rounds_min=ADAPTIVE_ROUNDS_MIN,
    rounds_max=ADAPTIVE_ROUNDS_MAX,
):
    """Adaptive alternating rounds across named variants.

    Args:
        variants: Ordered mapping of ``name -> zero-arg callable``.
            Every round runs each variant once, in order.
        stop: Optional ``stop(times) -> bool`` predicate over the
            ``name -> [seconds of each round so far]`` lists; once it
            returns True (and at least ``rounds_min`` rounds have
            run), sampling stops early.
        rounds_min: Minimum full rounds before ``stop`` is consulted.
        rounds_max: Hard cap on rounds.

    Returns:
        ``(times, results, rounds)``: the per-variant seconds of every
        round, the per-variant last results, and the rounds run.
    """
    times = {name: [] for name in variants}
    results = {}
    rounds = 0
    for rounds in range(1, rounds_max + 1):
        for name, fn in variants.items():
            start = time.perf_counter()
            results[name] = fn()
            times[name].append(time.perf_counter() - start)
        if stop is not None and rounds >= rounds_min and stop(times):
            break
    return times, results, rounds


def median_ratio(times, name, reference):
    """Median over rounds of ``name``'s time over ``reference``'s."""
    return statistics.median(
        a / b for a, b in zip(times[name], times[reference])
    )


def alternating_best_of(
    variants,
    stop=None,
    rounds_min=ADAPTIVE_ROUNDS_MIN,
    rounds_max=ADAPTIVE_ROUNDS_MAX,
):
    """Adaptive alternating best-of across named variants.

    :func:`alternating_rounds` scored by each variant's floor: ``stop``
    is a ``stop(best) -> bool`` predicate over the current
    ``name -> best_seconds`` floors.

    Returns:
        ``(best, results, rounds)``: the per-variant best seconds, the
        per-variant last results, and the rounds actually run.
    """

    def floors(times):
        return {name: min(values) for name, values in times.items()}

    times, results, rounds = alternating_rounds(
        variants,
        stop=None if stop is None else (lambda times: stop(floors(times))),
        rounds_min=rounds_min,
        rounds_max=rounds_max,
    )
    return floors(times), results, rounds


def write_bench_json(filename, payload, merge=False):
    """Emit the BENCH line and persist the JSON artifact.

    Args:
        filename: Artifact name under ``benchmarks/results/`` (with
            extension, e.g. ``"profiler_overhead.json"``).
        payload: JSON-ready measurement dict.
        merge: Merge ``payload``'s keys into an existing artifact
            instead of replacing it (used when several tests share one
            results file).

    Returns:
        The printed ``BENCH ...`` line (for artifact recording).
    """
    line = "BENCH " + json.dumps(payload, sort_keys=True)
    print(line)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, filename)
    merged = payload
    if merge and os.path.exists(path):
        with open(path) as handle:
            merged = json.load(handle)
        merged.update(payload)
    with open(path, "w") as handle:
        json.dump(merged, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return line


def parse_bench_lines(text):
    """Extract every ``BENCH {...}`` payload embedded in ``text``."""
    return [
        json.loads(line[len("BENCH ") :])
        for line in text.splitlines()
        if line.startswith("BENCH ")
    ]


def write_text_artifact(name, text):
    """Write ``<name>.txt`` plus its machine-readable JSON sidecar.

    The sidecar at ``<name>.json`` is the parsed payload when ``text``
    is a single ``BENCH`` line (byte-identical to what
    :func:`write_bench_json` would emit for the same payload, so the
    two writers can share a stem), a ``{"artifact", "bench"}`` wrapper
    for several BENCH lines, and a ``{"artifact", "lines"}`` wrapper
    for plain tables/figures.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as handle:
        handle.write(text)
    payloads = parse_bench_lines(text)
    if len(payloads) == 1:
        sidecar = payloads[0]
    elif payloads:
        sidecar = {"artifact": name, "bench": payloads}
    else:
        sidecar = {"artifact": name, "lines": text.splitlines()}
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    with open(path, "w") as handle:
        json.dump(sidecar, handle, indent=2, sort_keys=True)
        handle.write("\n")
