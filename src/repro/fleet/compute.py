"""Per-chassis query evaluation — the worker's compute core.

One :class:`ChassisCompute` lives inside each worker process (and
inside the simulated workers of the chaos harness) and answers the two
query kinds deterministically from chassis state:

- **Placement** queries score *every* candidate socket in one
  vectorised pass: the steady-state field is solved once, then the
  linear coupling response ``M[:, i] * p`` of adding the job's power
  ``p`` on candidate ``i`` is applied for all candidates at once — the
  same batched full-candidate scoring shape as
  :class:`repro.core.kernels.PlacementKernel`, over the equilibrium
  field instead of the engine view.
- **What-if** queries go through the batched fleet-tensor sweep
  (:func:`repro.sim.batched.evaluate_fleet`): every scenario is one
  :class:`~repro.sim.batched.FleetPoint` and the whole batch's steady
  fields come from stacked kernel calls.  One
  :func:`~repro.sim.power_manager.select_frequencies` call over those
  fields then gives every scenario's DVFS states.  Answers are
  memoised in a :class:`~repro.sim.parallel.SweepCache`.

:meth:`ChassisCompute.answer_batch` is the cross-*query* analogue and
the entry point of every coordinator dispatch: the
steady-state field is solved once per **distinct chassis state** in
the batch (state fingerprint = utilization vector over this chassis'
topology/parameters), all placement candidates of all queries sharing
a state are scored in one stacked pass, and the what-if scenarios of
every member stack into a single :func:`~repro.sim.batched.
evaluate_fleet` fleet-tensor call and one DVFS selection.  The
batched answers are bit-identical to the per-query
:meth:`ChassisCompute.answer` — every stacked operation is
elementwise over the member axis.

Solved equilibrium fields are additionally memoised in a **warm-field
cache** (:class:`WarmFieldCache`): a bounded, state-fingerprint-keyed
LRU reused across batches while the chassis state is unchanged, with
hit/miss counters surfaced through batch stats and ``fleet_batch``
telemetry.  A snapshot update that changes the chassis state
invalidates the cache (see :meth:`ChassisCompute.snapshot`).

All paths are pure reads of chassis state — answering a query twice
(e.g. a retried request) has no side effect, which is what makes the
coordinator's retry-on-replica policy safe.

The module also owns *degraded* answering: given only a
:class:`ChassisSnapshot` (the last state a now-dead worker reported),
produce a bounded-staleness approximation instead of failing closed.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import FleetError
from ..sim.batched import FleetPoint, FleetSweepResult, evaluate_fleet
from ..sim.parallel import SweepCache
from ..sim.power_manager import select_frequencies
from ..sim.steady_state import SteadyStateField, solve_steady_state
from .messages import PlacementQuery, WhatIfQuery
from .registry import ChassisSpec

#: Busy dynamic power assumed per socket, as a fraction of TDP, when a
#: query describes load only through utilization.
DEFAULT_DYN_FRACTION = 0.6

#: Dynamic power exponent of a what-if scenario's DVFS selection: a
#: scenario names utilisation and dynamic power, not a workload.
WHAT_IF_DYN_EXP = 2.0

#: Default bound on the warm-field cache (distinct chassis states whose
#: solved equilibrium fields are retained).
WARM_FIELD_CACHE_MAX = 16

#: Member-axis chunk for the stacked placement scorer.  Each chunk
#: materialises a ``chunk x sockets x sockets`` prediction tensor; a
#: small chunk keeps that working set cache-resident (measurably faster
#: than one full-batch broadcast at large socket counts) without
#: changing a single output bit — see
#: :meth:`ChassisCompute._place_group`.
PLACE_CHUNK_MEMBERS = 4


class WarmFieldCache:
    """Bounded LRU of solved equilibrium fields, keyed by state.

    The key is a *state fingerprint* (see
    :meth:`ChassisCompute.state_fingerprint`): a content hash of the
    chassis recipe, simulation parameters and utilization vector — the
    complete input of :func:`~repro.sim.steady_state.
    solve_steady_state` on the worker's hot path.  Because the solve
    is a pure function of that state, a hit returns bit-identical
    fields; the bound only trades recompute for memory.

    ``capacity=0`` disables retention (every lookup is a miss), which
    is how the one-member-batch baseline is benchmarked.

    Attributes:
        capacity: Maximum retained entries (0 disables).
        hits: Cumulative lookup hits.
        misses: Cumulative lookup misses.
    """

    def __init__(self, capacity: int = WARM_FIELD_CACHE_MAX) -> None:
        if capacity < 0:
            raise FleetError(
                f"warm-field cache capacity must be >= 0, got {capacity}"
            )
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[str, SteadyStateField]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    def get(self, fingerprint: str) -> Optional[SteadyStateField]:
        """The cached field for one state, counting the hit/miss."""
        field = self._entries.get(fingerprint)
        if field is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(fingerprint)
        return field

    def put(self, fingerprint: str, field: SteadyStateField) -> None:
        """Retain one solved field, evicting the LRU entry at bound."""
        if self.capacity == 0:
            return
        self._entries[fingerprint] = field
        self._entries.move_to_end(fingerprint)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def invalidate(self) -> None:
        """Drop every entry (counters survive — they are telemetry)."""
        self._entries.clear()

    def stats(self) -> dict:
        """JSON-safe counter snapshot."""
        return {
            "warm_hits": int(self.hits),
            "warm_misses": int(self.misses),
            "warm_entries": len(self._entries),
        }


@dataclass(frozen=True)
class ChassisSnapshot:
    """The last known thermal state of one chassis.

    Produced by workers (at startup and after every answer), persisted
    to the worker's recovery checkpoint, and cached by the coordinator
    as the source for degraded answers.  Tuples, not arrays: the
    snapshot must pickle compactly and serialise to JSON.

    Attributes:
        chassis_id: Which chassis this state describes.
        t: Coordinator-clock time the state was produced, seconds.
        utilization: Per-socket busy fractions behind the field.
        chip_c: Per-socket steady chip temperatures, degC.
        power_w: Per-socket steady total power, W.
    """

    chassis_id: str
    t: float
    utilization: Tuple[float, ...]
    chip_c: Tuple[float, ...]
    power_w: Tuple[float, ...]

    @property
    def peak_chip_c(self) -> float:
        return max(self.chip_c)

    @property
    def hottest_socket(self) -> int:
        return int(np.argmax(self.chip_c))

    def summary(self) -> dict:
        """JSON-safe digest carried in heartbeats and answers."""
        return {
            "chassis": self.chassis_id,
            "peak_chip_c": float(self.peak_chip_c),
            "hottest_socket": self.hottest_socket,
            "total_power_w": float(sum(self.power_w)),
        }


class ChassisCompute:
    """Deterministic query evaluation for one chassis.

    Attributes:
        spec: The chassis recipe.
        topology: Geometry built from the spec.
        params: Simulation parameters built from the spec.
        cache: What-if memo cache (a bounded
            :class:`~repro.sim.parallel.SweepCache`).
        warm: The warm-field cache (``warm_capacity=0`` disables it).
    """

    def __init__(
        self,
        spec: ChassisSpec,
        warm_capacity: int = WARM_FIELD_CACHE_MAX,
    ) -> None:
        self.spec = spec
        self.topology = spec.build_topology()
        self.params = spec.build_params()
        self.cache = SweepCache()
        self.warm = WarmFieldCache(warm_capacity)
        self._state_prefix = self._fingerprint_prefix()
        self._last_state_fp: Optional[str] = None

    # -- state ----------------------------------------------------------

    def _utilization(self, utilization=None) -> np.ndarray:
        n = self.topology.n_sockets
        if utilization is None:
            return np.full(n, self.spec.base_utilization)
        util = np.asarray(utilization, dtype=float)
        if util.shape != (n,):
            raise FleetError(
                f"chassis {self.spec.chassis_id!r} has {n} sockets, "
                f"got utilization of shape {util.shape}"
            )
        return util

    def _fingerprint_prefix(self) -> "hashlib._Hash":
        digest = hashlib.sha256()
        digest.update(repr(self.spec).encode())
        digest.update(repr(self.params).encode())
        return digest

    def state_fingerprint(self, utilization=None) -> str:
        """Content hash of the chassis state behind one field solve.

        Folds the chassis recipe, the simulation parameters and the
        (validated) utilization vector — the exact inputs of the
        steady-state solve — so equal fingerprints guarantee
        bit-identical fields.  This is the warm-field cache key and
        the fingerprint a :class:`ChassisSnapshot` describes.
        """
        util = self._utilization(utilization)
        digest = self._state_prefix.copy()
        digest.update(util.tobytes())
        return digest.hexdigest()

    def _solve_field(self, util: np.ndarray) -> SteadyStateField:
        """The equilibrium field for one state, through the warm cache."""
        fp = self.state_fingerprint(util)
        field = self.warm.get(fp)
        if field is None:
            field = solve_steady_state(
                self.topology,
                self.params,
                DEFAULT_DYN_FRACTION * self.topology.tdp_array,
                util,
            )
            self.warm.put(fp, field)
        return field

    def snapshot(self, utilization=None, t: float = 0.0) -> ChassisSnapshot:
        """Solve and package the chassis' current steady state.

        A snapshot *update* — a call whose state fingerprint differs
        from the previous snapshot's — marks a chassis state change
        and therefore invalidates the warm-field cache (the freshly
        solved field is re-retained, so the current state stays warm).
        """
        util = self._utilization(utilization)
        fp = self.state_fingerprint(util)
        field = self._solve_field(util)
        if self._last_state_fp is not None and fp != self._last_state_fp:
            self.warm.invalidate()
            self.warm.put(fp, field)
        self._last_state_fp = fp
        return ChassisSnapshot(
            chassis_id=self.spec.chassis_id,
            t=float(t),
            utilization=tuple(float(u) for u in util),
            chip_c=tuple(float(c) for c in field.chip_c),
            power_w=tuple(float(p) for p in field.power_w),
        )

    # -- live answering -------------------------------------------------

    def place(self, query: PlacementQuery) -> dict:
        """Score every candidate socket; return the coolest landing.

        The score of candidate ``i`` is the predicted fleet-wide peak
        chip temperature after adding ``job_power_w`` on ``i``: the
        solved base field, shifted by the linear coupling response of
        the extra heat (downwind entry air rises by ``M[:, i] * p``)
        plus the candidate's own conduction rise.  First-order in the
        leakage feedback, exact in the coupling — and evaluated for
        all candidates in one batched pass.
        """
        util = self._utilization(query.utilization)
        base = self._solve_field(util)
        p = float(query.job_power_w)
        matrix = self.topology.coupling.matrix
        # predicted[i, j]: chip temperature of socket j if the job
        # lands on socket i.  Row i gets the coupling column of i.
        predicted = base.chip_c[None, :] + p * matrix.T
        own = p * (
            self.topology.r_ext_array + self.params.r_int
        ) + self.topology.theta_slope_array * p
        np.fill_diagonal(predicted, np.diagonal(predicted) + own)
        peaks = predicted.max(axis=1)
        socket = int(np.argmin(peaks))
        return {
            "chassis": self.spec.chassis_id,
            "socket": socket,
            "predicted_peak_c": float(peaks[socket]),
            "base_peak_c": float(base.chip_c.max()),
        }

    def what_if(self, query: WhatIfQuery) -> dict:
        """Evaluate a scenario batch via the fleet-tensor sweep."""
        key = self._what_if_key(query)
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        result, freq = self._evaluate(query.scenarios)
        payload = self._what_if_payload(
            result, freq, 0, len(query.scenarios)
        )
        self.cache.put(key, payload)
        return payload

    def _evaluate(
        self, scenarios: Sequence[Tuple[float, float]]
    ) -> Tuple[FleetSweepResult, np.ndarray]:
        """Steady fields and steady DVFS states of ``scenarios``.

        The fields come from one :func:`~repro.sim.batched.
        evaluate_fleet` call.  The selection flattens the stacked
        ``(N, n)`` fields to one ``(N * n,)`` call: it is elementwise
        per socket column, so each row is bit-identical to that
        scenario's own ``(n,)`` call.
        """
        points = [
            FleetPoint(utilization=u, dyn_max_w=p) for u, p in scenarios
        ]
        result = evaluate_fleet(self.topology, self.params, points)
        topology = self.topology
        n_points, n = len(points), topology.n_sockets
        flat = (n_points * n,)
        freq = select_frequencies(
            ambient_c=result.ambient_c.reshape(flat),
            chip_c=result.chip_c.reshape(flat),
            dyn_max_w=np.repeat(
                np.array([p.dyn_max_w for p in points], dtype=float), n
            ),
            dyn_exp=np.full(flat, WHAT_IF_DYN_EXP),
            tdp_w=np.tile(topology.tdp_array, n_points),
            r_ext=np.tile(topology.r_ext_array, n_points),
            theta_offset=np.tile(topology.theta_offset_array, n_points),
            theta_slope=np.tile(topology.theta_slope_array, n_points),
            ladder=topology.processor.ladder,
            params=self.params,
        ).reshape((n_points, n))
        return result, freq

    def _what_if_payload(
        self, result, freq: np.ndarray, start: int, count: int
    ) -> dict:
        """Package ``count`` rows of a fleet-sweep result from ``start``."""
        stop = start + count
        return {
            "chassis": self.spec.chassis_id,
            "peak_chip_c": [
                float(c) for c in result.chip_c[start:stop].max(axis=1)
            ],
            "min_freq_mhz": [
                float(f) for f in freq[start:stop].min(axis=1)
            ],
            "total_power_w": [
                float(p) for p in result.power_w[start:stop].sum(axis=1)
            ],
        }

    def _what_if_key(self, query: WhatIfQuery) -> str:
        digest = self._state_prefix.copy()
        digest.update(repr(query.scenarios).encode())
        return digest.hexdigest()

    def answer(self, query) -> dict:
        """Dispatch on query kind: the per-query reference answer."""
        if isinstance(query, PlacementQuery):
            return self.place(query)
        if isinstance(query, WhatIfQuery):
            return self.what_if(query)
        raise FleetError(
            f"unknown query type {type(query).__name__}"
        )

    # -- batched answering ----------------------------------------------

    def answer_batch(
        self, queries: Sequence
    ) -> Tuple[List[dict], dict]:
        """Answer several queries in stacked passes.

        Placement members are grouped by state fingerprint: the
        equilibrium field is solved **once per distinct chassis
        state** (through the warm-field cache), and every candidate
        socket of every member sharing that state is scored in one
        stacked broadcast over the member axis.  What-if members'
        uncached scenarios stack into one
        :func:`~repro.sim.batched.evaluate_fleet` call and one DVFS
        selection.

        Every payload is bit-identical to the corresponding
        :meth:`answer` call — all stacked operations are elementwise
        over the member axis, and the fleet-tensor evaluator is
        per-point bit-identical by construction.

        Returns:
            ``(payloads, stats)`` — payloads aligned with ``queries``,
            and the JSON-safe batch stats (warm-cache hits/misses
            consumed by this batch, field solves and stacked
            evaluations performed).
        """
        payloads: List[Optional[dict]] = [None] * len(queries)
        placements: Dict[str, List[int]] = {}
        what_ifs: List[int] = []
        for index, query in enumerate(queries):
            if isinstance(query, PlacementQuery):
                fp = self.state_fingerprint(query.utilization)
                placements.setdefault(fp, []).append(index)
            elif isinstance(query, WhatIfQuery):
                what_ifs.append(index)
            else:
                raise FleetError(
                    f"unknown query type {type(query).__name__}"
                )
        hits0, misses0 = self.warm.hits, self.warm.misses
        n_solves = 0
        for indices in placements.values():
            n_solves += 1
            self._place_group(queries, indices, payloads)
        n_evaluations = self._what_if_groups(queries, what_ifs, payloads)
        stats = {
            "warm_hits": int(self.warm.hits - hits0),
            "warm_misses": int(self.warm.misses - misses0),
            "n_states": int(n_solves),
            "n_evaluations": int(n_evaluations),
        }
        return [p for p in payloads], stats

    def _place_group(
        self,
        queries: Sequence,
        indices: List[int],
        payloads: List[Optional[dict]],
    ) -> None:
        """Score all placement members sharing one chassis state.

        The broadcast adds a leading member axis to the exact
        per-query math of :meth:`place`: every element of
        ``predicted[q]`` is produced by the same scalar operations in
        the same order as the single-query pass, so the stacked
        scoring is bit-identical on numpy.  The member axis is
        processed in chunks of :data:`PLACE_CHUNK_MEMBERS` to keep the
        ``members x sockets x sockets`` working set cache-resident —
        chunk boundaries cannot change any element (all member-axis
        operations are elementwise, and the peak reduction runs within
        one member's row).
        """
        util = self._utilization(
            queries[indices[0]].utilization
        )
        base = self._solve_field(util)
        matrix_t = self.topology.coupling.matrix.T
        r_own = self.topology.r_ext_array + self.params.r_int
        slope = self.topology.theta_slope_array
        ps = np.array(
            [float(queries[i].job_power_w) for i in indices]
        )
        n = self.topology.n_sockets
        diag = np.arange(n)
        n_members = len(indices)
        peaks = np.empty((n_members, n))
        sockets = np.empty(n_members, dtype=int)
        for start in range(0, n_members, PLACE_CHUNK_MEMBERS):
            stop = min(start + PLACE_CHUNK_MEMBERS, n_members)
            chunk = ps[start:stop]
            # predicted[q, i, j]: chip temperature of socket j if
            # member q's job lands on socket i.
            predicted = base.chip_c[None, None, :] + (
                chunk[:, None, None] * matrix_t[None, :, :]
            )
            own = (
                chunk[:, None] * r_own[None, :]
                + slope[None, :] * chunk[:, None]
            )
            predicted[:, diag, diag] += own
            chunk_peaks = predicted.max(axis=2)
            peaks[start:stop] = chunk_peaks
            sockets[start:stop] = np.argmin(chunk_peaks, axis=1)
        base_peak = float(base.chip_c.max())
        for row, index in enumerate(indices):
            socket = int(sockets[row])
            payloads[index] = {
                "chassis": self.spec.chassis_id,
                "socket": socket,
                "predicted_peak_c": float(peaks[row, socket]),
                "base_peak_c": base_peak,
            }

    def _what_if_groups(
        self,
        queries: Sequence,
        indices: List[int],
        payloads: List[Optional[dict]],
    ) -> int:
        """Answer what-if members with one stacked fleet-tensor call.

        Members whose memo key is already cached are served from the
        :class:`~repro.sim.parallel.SweepCache`; the misses' scenarios
        concatenate into one :meth:`_evaluate` call.  Returns the
        number of evaluator calls made (0 or 1).
        """
        misses: List[int] = []
        for index in indices:
            cached = self.cache.get(self._what_if_key(queries[index]))
            if cached is not None:
                payloads[index] = cached
            else:
                misses.append(index)
        if not misses:
            return 0
        result, freq = self._evaluate(
            [s for index in misses for s in queries[index].scenarios]
        )
        start = 0
        for index in misses:
            count = len(queries[index].scenarios)
            payload = self._what_if_payload(result, freq, start, count)
            start += count
            self.cache.put(self._what_if_key(queries[index]), payload)
            payloads[index] = payload
        return 1


def degraded_payload(snapshot: ChassisSnapshot, query) -> dict:
    """A bounded-staleness answer from the last known snapshot only.

    Placement falls back to the coolest socket of the stale field
    (ignoring the job's own coupling response — the topology is the
    dead worker's business); what-ifs return the stale field digest as
    the best available approximation.  Callers tag the answer
    ``DEGRADED`` with the snapshot's age.
    """
    if isinstance(query, PlacementQuery):
        socket = int(np.argmin(snapshot.chip_c))
        return {
            "chassis": snapshot.chassis_id,
            "socket": socket,
            "predicted_peak_c": float(snapshot.peak_chip_c),
            "from_snapshot": True,
        }
    payload = snapshot.summary()
    payload["from_snapshot"] = True
    return payload
