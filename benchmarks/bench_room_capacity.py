"""Regenerate the room sustainable-load artifact (CRAC sensitivity).

Runs the full ``room`` experiment family — sustainable-load curves for
the three chassis mixes across the CRAC setpoint sweep, the placement
comparison at the reference setpoint and the diurnal free-cooling
envelope — and commits the numbers under ``benchmarks/results/``:
``room_capacity.txt`` (the printed tables) plus the machine-readable
``room_capacity.json`` sidecar carrying the structured curves.

Physics gates asserted on every run:

- every mix's curve derates monotonically with a warming CRAC supply;
- the strongly coupled mix derates at least as fast as the uncoupled
  one at every setpoint (in-chassis coupling multiplies the room-level
  inlet rise);
- inlet-aware ``coolest`` placement never sustains less room load than
  the paper's room-blind uniform placement.
"""

import io
from contextlib import redirect_stdout

from repro.experiments import room_scenarios
from repro.sim.parallel import clear_shared_cache

from _timing import best_of, write_bench_json

#: The room family is analytical (no transient simulation); a small
#: best-of keeps the committed timing representative without making
#: the bench heavy.
ROOM_ROUNDS = 3


def _cold_run():
    """One family run with an empty shared sweep cache.

    Room solves memoise into the process-wide cache, so without the
    clear every round after the first would time cache hits.
    """
    clear_shared_cache()
    return room_scenarios.run()


def test_room_capacity(record_artifact):
    best_s, result = best_of(_cold_run, rounds=ROOM_ROUNDS)

    assert len(result.mixes) >= 3
    for mix in result.mixes:
        loads = [p.max_utilization for p in result.curves[mix]]
        assert loads == sorted(loads, reverse=True), mix
    coupled = [p.max_utilization for p in result.curves["coupled"]]
    uncoupled = [p.max_utilization for p in result.curves["uncoupled"]]
    assert all(u >= c for u, c in zip(uncoupled, coupled))
    for mix in result.mixes:
        assert (
            result.placement_loads[(mix, "coolest")]
            >= result.placement_loads[(mix, "paper")] - 1e-9
        ), mix

    payload = {
        "bench": "room_capacity",
        "best_s": best_s,
        "rounds": ROOM_ROUNDS,
        "crac_setpoints_c": list(result.crac_setpoints_c),
        "curves": result.to_json_dict()["curves"],
        "placement_loads": result.to_json_dict()["placement_loads"],
        "reference_crac_c": result.reference_crac_c,
        "diurnal": result.to_json_dict()["diurnal"],
        "benchmark_set": result.benchmark_set.value,
    }
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        room_scenarios.main()
    line = write_bench_json("room_capacity.json", payload)
    record_artifact(
        "room_capacity", buffer.getvalue() + "\n" + line + "\n"
    )
