"""The bit-identity oracle: one table of runs pinned to one golden.

Every figure the paper reports comes out of one engine, and the
contract is that nothing meant to be inert moves a bit of it: CP's
and Predictive's pool scoring against their scalar references,
telemetry with profiling, the invariant auditor, and an empty fault
schedule.  :data:`ORACLE` is the one table of (policy, kwargs,
benchmark set, load) rows, and ``goldens/kernel_oracle.json`` holds
each row's content fingerprint and sweep ``config_key``.
:func:`test_run_matches_golden` runs every row in every inert mode
and compares it with the golden, never with a second run beside it.

The predictive policies score a candidate pool in one pass:
:func:`~repro.core.prediction.predict_job_placement` predicts the
job's frequency and power on every candidate, and CP's
:class:`~repro.core.kernels.PlacementKernel` charges each candidate its
downwind losses from padded per-topology tables.  Their per-candidate
scalar scoring loops live on only here, as the local reference
subclasses :class:`_ScalarCP` and :class:`_ScalarPredictive`, built
from the scalar helpers alone: the ``reference`` mode runs them on the
CP and Predictive rows.  Below the run level, a live-decision probe
checks the pool pass against the scalar helpers inside real runs, and
property tests check it on random states and idle sets, and on
downwind chains long enough for ``ndarray.sum`` to switch to its
unrolled pairwise order.

The golden is the proof that a refactor of the engine's numerics
changes no answer and no cache key.  Regenerate it after an
intentional model change with::

    PYTHONPATH=src python tests/test_oracle.py
"""

import json
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.config.presets import smoke
from repro.core import all_scheduler_names, get_scheduler
from repro.core.coupling_predictor import CouplingPredictor
from repro.core.kernels import PlacementKernel
from repro.core.prediction import (
    predict_downwind_slowdown,
    predict_job_frequency,
    predict_job_placement,
    predicted_job_power,
)
from repro.core.predictive import SINK_TIEBREAK_WEIGHT, Predictive
from repro.faults import FaultSchedule
from repro.obs.session import TelemetryConfig
from repro.obs.writer import read_events
from repro.server.topology import ServerTopology, moonshot_sut
from repro.sim.engine import Simulation
from repro.sim.fingerprint import result_fingerprint
from repro.sim.invariants import InvariantAuditor
from repro.sim.parallel import config_key
from repro.sim.runner import run_once
from repro.workloads.arrivals import ArrivalProcess
from repro.workloads.benchmark import BenchmarkSet
from repro.workloads.job import Job
from repro.workloads.pcmark import PCMARK_APPS

COMPUTATION = BenchmarkSet.COMPUTATION
GENERAL = BenchmarkSet.GENERAL_PURPOSE
STORAGE = BenchmarkSet.STORAGE

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "goldens", "kernel_oracle.json"
)

#: Fixed scenario of every oracle run.
ORACLE_SEED = 4


def _oracle_configs():
    """The (policy, kwargs, benchmark set, load) rows of the oracle.

    Default CP over every set and three loads, full-search CP and the
    coupling ablation over the load range, and Predictive across sets
    and extremes — every kernel code path under every workload mix.
    Then every registered scheduler at the midpoint load, and CF over
    every set at both load extremes — every policy code path.
    """
    configs = []
    for benchmark_set in (COMPUTATION, GENERAL, STORAGE):
        for load in (0.3, 0.5, 0.9):
            configs.append(("CP", {}, benchmark_set, load))
    for load in (0.3, 0.5, 0.9):
        configs.append(
            ("CP", {"row_restricted": False}, COMPUTATION, load)
        )
    for load in (0.3, 0.9):
        configs.append(
            ("CP", {"coupling_aware": False}, COMPUTATION, load)
        )
    for benchmark_set in (COMPUTATION, GENERAL, STORAGE):
        configs.append(("Predictive", {}, benchmark_set, 0.5))
    for load in (0.3, 0.9):
        configs.append(("Predictive", {}, COMPUTATION, load))
    for name in all_scheduler_names():
        if (name, {}, COMPUTATION, 0.5) not in configs:
            configs.append((name, {}, COMPUTATION, 0.5))
    for benchmark_set in (COMPUTATION, GENERAL, STORAGE):
        for load in (0.3, 0.9):
            configs.append(("CF", {}, benchmark_set, load))
    return configs


#: The one oracle table: 36 rows, each with an entry in the golden.
ORACLE = _oracle_configs()


def _unique_pool(idle_ids, view, rng):
    """CP's row-restricted pool as ``np.unique`` picks it (the reference)."""
    rows = view.topology.row_array[idle_ids]
    unique_rows = np.unique(rows)
    chosen = unique_rows[rng.integers(0, unique_rows.size)]
    return idle_ids[rows == chosen]


class _ScalarCP(CouplingPredictor):
    """CP scoring one candidate at a time (the pre-kernel reference)."""

    def _candidate_pool(self, idle_ids, view):
        if not self.row_restricted:
            return idle_ids
        return _unique_pool(idle_ids, view, self.rng)

    def select_socket(self, job, idle_ids, view):
        self._require_candidates(idle_ids)
        candidates = self._candidate_pool(idle_ids, view)
        freq = predict_job_frequency(view, candidates, job)
        scores = np.empty(candidates.shape, dtype=float)
        topology = view.topology
        for i, (socket, f_mhz) in enumerate(zip(candidates, freq)):
            socket = int(socket)
            power = predicted_job_power(view, socket, job, float(f_mhz))
            slowdown = 0.0
            if self.coupling_aware:
                slowdown = predict_downwind_slowdown(view, socket, power)
            sink_ss = (
                view.ambient_c[socket]
                + power * topology.r_ext_array[socket]
            )
            scores[i] = (
                float(f_mhz)
                - slowdown
                - SINK_TIEBREAK_WEIGHT
                * (sink_ss + float(view.sink_c[socket]))
            )
        return int(candidates[int(np.argmax(scores))])


class _ScalarPredictive(Predictive):
    """Predictive scoring one candidate at a time (the reference)."""

    def select_socket(self, job, idle_ids, view):
        self._require_candidates(idle_ids)
        freq = predict_job_frequency(view, idle_ids, job)
        scores = np.empty(idle_ids.shape, dtype=float)
        topology = view.topology
        for i, (socket, f_mhz) in enumerate(zip(idle_ids, freq)):
            socket = int(socket)
            power = predicted_job_power(view, socket, job, float(f_mhz))
            sink_ss = (
                view.ambient_c[socket]
                + power * topology.r_ext_array[socket]
            )
            scores[i] = float(f_mhz) - SINK_TIEBREAK_WEIGHT * (
                sink_ss + float(view.sink_c[socket])
            )
        return int(idle_ids[int(np.argmax(scores))])


#: The scalar reference of each policy the ``reference`` mode covers.
_SCALAR = {"CP": _ScalarCP, "Predictive": _ScalarPredictive}


def _make_policy(policy, kwargs, reference=False):
    """The registered policy (or its scalar reference) with the
    row's kwargs."""
    cls = _SCALAR[policy] if reference else type(get_scheduler(policy))
    return cls(**kwargs)


def _oracle_id(value):
    return getattr(value, "value", str(value).replace(" ", ""))


def _golden_name(policy, kwargs, benchmark_set, load):
    """The golden's entry name; the test id's part after the mode."""
    return "-".join(
        _oracle_id(value) for value in (policy, kwargs, benchmark_set, load)
    )


def _oracle_entry(topology, policy, kwargs, benchmark_set, load, result):
    """The golden record of one bare oracle run.

    The ``config_key`` names the variant by its golden name, since the
    CP variants share the registry name ``"CP"``.
    """
    name = _golden_name(policy, kwargs, benchmark_set, load)
    return {
        "fingerprint": result_fingerprint(result),
        "config_key": config_key(
            topology, smoke(seed=ORACLE_SEED), name, benchmark_set, load
        ),
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_the_oracle(golden):
    names = [_golden_name(*row) for row in ORACLE]
    assert len(set(names)) == len(names) == 36
    assert sorted(golden) == sorted(names)


def test_oracle_covers_every_scheduler():
    """Every policy code path: each registered scheduler is a row."""
    for name in all_scheduler_names():
        assert (name, {}, COMPUTATION, 0.5) in ORACLE


def test_oracle_covers_every_set_at_the_load_extremes():
    """Every workload mix at the lightest and heaviest load."""
    for benchmark_set in (COMPUTATION, GENERAL, STORAGE):
        for load in (0.3, 0.9):
            assert ("CF", {}, benchmark_set, load) in ORACLE


#: The modes that must not move a bit: the policy as registered, the
#: scalar reference, and each observer the engine can carry.
MODES = ("bare", "reference", "telemetry", "audit", "empty_faults")


def _oracle_cases():
    """Every (mode, row) pair: the ``reference`` mode only on the rows
    whose policy has a scalar reference."""
    return [
        pytest.param(mode, *row, id=f"{mode}-{_golden_name(*row)}")
        for mode in MODES
        for row in ORACLE
        if mode != "reference" or row[0] in _SCALAR
    ]


@pytest.mark.parametrize(
    "mode,policy,kwargs,benchmark_set,load", _oracle_cases()
)
def test_run_matches_golden(
    tmp_path, small_sut, golden, mode, policy, kwargs, benchmark_set, load
):
    observers = {}
    if mode == "telemetry":
        observers["telemetry"] = TelemetryConfig(
            directory=str(tmp_path), profile=True
        )
    elif mode == "audit":
        observers["auditor"] = InvariantAuditor()
    elif mode == "empty_faults":
        observers["fault_schedule"] = FaultSchedule()
    result = run_once(
        small_sut,
        smoke(seed=ORACLE_SEED),
        _make_policy(policy, kwargs, reference=mode == "reference"),
        benchmark_set,
        load,
        **observers,
    )
    entry = golden[_golden_name(policy, kwargs, benchmark_set, load)]

    # The mode's machinery ran...
    if mode == "telemetry":
        events = read_events(
            tmp_path / "run-r0.jsonl", strict=True, validate=True
        )
        assert events[0]["type"] == "run_start"
        assert events[-1]["type"] == "run_end"
        assert result.profile is not None
        assert result.profile.n_steps > 0
    elif mode == "audit":
        assert observers["auditor"].n_audits > 0
    elif mode == "empty_faults":
        assert result.fault_summary["n_events"] == 0
        assert result.fault_summary["n_trips"] == 0
    else:
        assert result.profile is None
        assert result.fault_summary is None
    if mode == "bare":
        assert _oracle_entry(
            small_sut, policy, kwargs, benchmark_set, load, result
        ) == entry
    # ...but the trajectory is the golden one, to the last bit.  An
    # empty schedule attaches its inert summary, which is left out.
    assert result_fingerprint(
        result, include_fault_summary=mode != "empty_faults"
    ) == entry["fingerprint"]


def test_two_telemetry_runs_write_identical_bytes(tmp_path, small_sut):
    """Determinism of the stream itself: same configuration, same
    bytes (modulo the run-name field, identical here by construction)."""
    params = smoke(seed=4)
    logs = []
    for sub in ("a", "b"):
        directory = tmp_path / sub
        run_once(
            small_sut,
            params,
            get_scheduler("CF"),
            BenchmarkSet.COMPUTATION,
            0.5,
            telemetry=str(directory),
        )
        logs.append((directory / "run-r0.jsonl").read_bytes())
    assert logs[0] == logs[1]


def _assert_losses_match_scalars(view, candidates, powers):
    losses = PlacementKernel(view.topology).downwind_losses(
        view, candidates, powers
    )
    scalar_losses = [
        predict_downwind_slowdown(view, int(socket), float(power))
        for socket, power in zip(candidates, powers)
    ]
    assert losses.tobytes() == np.array(scalar_losses).tobytes()


def _assert_pool_pass_matches_scalars(view, candidates, job):
    """The pool pass against the scalar helpers, byte for byte.

    Returns the number of (candidate, downwind socket) pairs checked.
    """
    freq, powers = predict_job_placement(view, candidates, job)
    scalar_freq = predict_job_frequency(view, candidates, job)
    assert freq.tobytes() == scalar_freq.tobytes()
    scalar_powers = [
        predicted_job_power(view, int(socket), job, float(f_mhz))
        for socket, f_mhz in zip(candidates, scalar_freq)
    ]
    assert powers.tobytes() == np.array(scalar_powers).tobytes()
    _assert_losses_match_scalars(view, candidates, powers)
    coupling = view.topology.coupling
    return sum(coupling.downwind_of(int(s)).size for s in candidates)


class _ProbingCP(CouplingPredictor):
    """Full-search CP that checks its pool pass against the scalar
    helpers inside live decisions (real views, real temperatures,
    mid-drain busy flips) before delegating to the normal path."""

    def __init__(self):
        super().__init__(row_restricted=False)
        self.decisions = 0
        self.pairs_checked = 0

    def select_socket(self, job, idle_ids, view):
        self.pairs_checked += _assert_pool_pass_matches_scalars(
            view, idle_ids, job
        )
        self.decisions += 1
        return super().select_socket(job, idle_ids, view)


def test_kernels_match_scalars_inside_live_decisions(small_sut):
    params = smoke(seed=11)
    probe = _ProbingCP()
    arrivals = ArrivalProcess(
        benchmark_set=COMPUTATION,
        load=0.7,
        n_sockets=small_sut.n_sockets,
        seed=params.seed,
        duration_scale=params.duration_scale,
    )
    jobs = arrivals.generate(params.sim_time_s)
    Simulation(small_sut, params, probe).run(jobs)
    assert probe.decisions > 10
    assert probe.pairs_checked > probe.decisions


def test_kernel_survives_engine_reuse(small_sut):
    """One Simulation instance re-run twice: the policy and its kernel
    carry nothing from run 1 into run 2, which stays identical to a
    fresh scheduler's run."""
    params = smoke(seed=4)

    def _jobs():
        arrivals = ArrivalProcess(
            benchmark_set=COMPUTATION,
            load=0.6,
            n_sockets=small_sut.n_sockets,
            seed=params.seed,
            duration_scale=params.duration_scale,
        )
        return arrivals.generate(params.sim_time_s)

    sim = Simulation(
        small_sut, params, CouplingPredictor(row_restricted=False)
    )
    first = sim.run(_jobs())
    second = sim.run(_jobs())
    fresh = Simulation(
        small_sut, params, CouplingPredictor(row_restricted=False)
    ).run(_jobs())
    assert result_fingerprint(first) == result_fingerprint(fresh)
    assert result_fingerprint(second) == result_fingerprint(fresh)


#: The shipped SUT at three sizes (downwind chains of at most 5
#: sockets) and a chassis of 12-socket chains, whose upwind sockets
#: have up to 11 downwind sockets: 8 or more busy ones take
#: ``ndarray.sum``'s unrolled pairwise order.
_PROPERTY_TOPOLOGIES = ("rows1", "rows3", "rows15", "chain12")


@pytest.fixture(scope="module")
def property_topologies():
    return {
        "rows1": moonshot_sut(n_rows=1),
        "rows3": moonshot_sut(n_rows=3),
        "rows15": moonshot_sut(n_rows=15),
        "chain12": ServerTopology(
            n_rows=2,
            lanes_per_row=2,
            chain_length=12,
            sockets_per_cartridge_depth=2,
        ),
    }


def _draw_floats(data, n, low, high, **kwargs):
    values = data.draw(
        arrays(np.float64, n, elements=st.floats(low, high), **kwargs)
    )
    values.flags.writeable = False
    return values


def _draw_busy(data, n):
    """Busy flags, drawn mostly busy half of the time, never all busy."""
    flags = st.booleans()
    if data.draw(st.booleans()):
        flags = st.sampled_from((True, True, True, False))
    busy = np.array(data.draw(st.lists(flags, min_size=n, max_size=n)))
    if busy.all():
        busy[data.draw(st.integers(0, n - 1))] = False
    return busy


def _draw_view(data, topology, busy):
    """A random live state around the given busy flags: finite
    temperatures, EMAs and running-job power curves."""
    n = topology.n_sockets
    busy.flags.writeable = False
    return SimpleNamespace(
        topology=topology,
        ladder=topology.processor.ladder,
        params=smoke(),
        busy=busy,
        chip_c=_draw_floats(data, n, 20.0, 110.0),
        sink_c=_draw_floats(data, n, 20.0, 100.0),
        ambient_c=_draw_floats(data, n, 15.0, 80.0),
        # Distinct utilisations give distinct weighted losses, whose
        # sums depend on the summation order.
        busy_ema=_draw_floats(data, n, 0.0, 1.0, fill=st.nothing()),
        dyn_max_w=_draw_floats(data, n, 0.5, 30.0),
        dyn_exp=_draw_floats(data, n, 1.0, 3.0),
    )


def _choice(cls, view, job, idle_ids, seed, **kwargs):
    policy = cls(**kwargs)
    policy.reset(view, np.random.default_rng(seed))
    return policy.select_socket(job, idle_ids, view)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_pool_pass_matches_the_scalar_loop(property_topologies, data):
    topology = property_topologies[
        data.draw(st.sampled_from(_PROPERTY_TOPOLOGIES))
    ]
    view = _draw_view(data, topology, _draw_busy(data, topology.n_sockets))
    idle = np.flatnonzero(~view.busy).tolist()
    idle_ids = np.array(
        sorted(data.draw(st.sets(st.sampled_from(idle), min_size=1)))
    )
    job = Job(
        job_id=0,
        app=data.draw(st.sampled_from(PCMARK_APPS)),
        arrival_s=0.0,
        work_ms=1.0,
    )

    _assert_pool_pass_matches_scalars(view, idle_ids, job)
    # Heavier heat than any job draws slows most busy victims.
    _assert_losses_match_scalars(
        view, idle_ids, _draw_floats(data, idle_ids.size, 0.0, 400.0)
    )

    seed = data.draw(st.integers(0, 2**32 - 1))
    policy = CouplingPredictor()
    policy.reset(view, np.random.default_rng(seed))
    reference_rng = np.random.default_rng(seed)
    pool = policy._candidate_pool(idle_ids, view)
    reference = _unique_pool(idle_ids, view, reference_rng)
    assert pool.tolist() == reference.tolist()
    assert policy.rng.bit_generator.state == reference_rng.bit_generator.state

    restricted = {"row_restricted": data.draw(st.booleans())}
    assert _choice(
        CouplingPredictor, view, job, idle_ids, seed, **restricted
    ) == _choice(_ScalarCP, view, job, idle_ids, seed, **restricted)
    assert _choice(Predictive, view, job, idle_ids, seed) == _choice(
        _ScalarPredictive, view, job, idle_ids, seed
    )


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_long_downwind_chains_keep_the_scalar_sum(property_topologies, data):
    """The first two sockets of every 12-socket chain idle, the rest
    busy: each candidate sums 10 weighted losses, past the length at
    which ``ndarray.sum`` stops adding left to right."""
    topology = property_topologies["chain12"]
    view = _draw_view(data, topology, topology.chain_pos_array >= 2)
    idle_ids = np.flatnonzero(~view.busy)
    _assert_losses_match_scalars(
        view, idle_ids, _draw_floats(data, idle_ids.size, 0.0, 400.0)
    )


def _regenerate():
    """Rewrite ``goldens/kernel_oracle.json`` from the bare runs."""
    topology = moonshot_sut(n_rows=2)
    golden = {}
    for policy, kwargs, benchmark_set, load in ORACLE:
        result = run_once(
            topology,
            smoke(seed=ORACLE_SEED),
            _make_policy(policy, kwargs),
            benchmark_set,
            load,
        )
        golden[_golden_name(policy, kwargs, benchmark_set, load)] = (
            _oracle_entry(
                topology, policy, kwargs, benchmark_set, load, result
            )
        )
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} entries to {GOLDEN_PATH}")


if __name__ == "__main__":
    _regenerate()
