"""Request/answer vocabulary of the fleet coordinator.

Everything here is a frozen, picklable value object: queries travel
from the coordinator into worker processes, answers travel back, and
both sides must survive the fork boundary and a JSON round-trip (the
``repro fleet serve`` TCP protocol ships :meth:`FleetAnswer.to_dict`
lines).

A :class:`PlacementQuery` asks which socket of a chassis should take a
job; a :class:`WhatIfQuery` asks what a hypothetical load would do to
it.  Both are answered from steady thermal fields: a what-if reports
each scenario's peak chip temperature, lowest DVFS frequency and total
power, and no query carries a transient.

The coordinator promises every admitted request exactly one *terminal*
answer, whose :class:`AnswerStatus` tells the caller how much to trust
it:

- ``OK`` — computed by a live chassis worker from current state;
- ``DEGRADED`` — served from the chassis' last telemetry snapshot
  because no healthy worker was available; ``staleness_s`` bounds how
  old that state is;
- ``SHED`` — rejected under backpressure without being executed (the
  ``503`` of the wire protocol);
- ``FAILED`` — no worker, no fresh-enough snapshot, or the retry
  budget ran out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Optional, Tuple

from ..errors import FleetError


class RequestClass(Enum):
    """Load-shedding priority class of a request.

    ``INTERACTIVE`` requests are the last to be shed: when the bounded
    queue fills, the coordinator evicts queued ``BATCH`` work to admit
    them.  ``BATCH`` requests are shed first.
    """

    INTERACTIVE = "interactive"
    BATCH = "batch"


class AnswerStatus(Enum):
    """Terminal disposition of a request (see module docstring)."""

    OK = "ok"
    DEGRADED = "degraded"
    SHED = "shed"
    FAILED = "failed"


@dataclass(frozen=True)
class PlacementQuery:
    """Where should a job of this size land on a chassis?

    Attributes:
        chassis: Target chassis id in the fleet registry.
        job_power_w: Dynamic power the job draws while busy, W.
        utilization: Optional per-socket busy fractions in [0, 1]
            describing the chassis' current load; ``None`` means the
            uniform ``base_utilization`` of the chassis spec.  Its
            length is checked against the chassis at admission.
        request_class: Shedding priority.

    Raises:
        FleetError: for a non-finite or non-positive job power, or a
            utilization outside [0, 1].
    """

    chassis: str
    job_power_w: float
    utilization: Optional[Tuple[float, ...]] = None
    request_class: RequestClass = RequestClass.INTERACTIVE

    kind = "placement"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.job_power_w) and self.job_power_w > 0):
            raise FleetError("job power must be positive and finite")
        if self.utilization is not None:
            utilization = tuple(float(u) for u in self.utilization)
            if not all(0.0 <= u <= 1.0 for u in utilization):
                raise FleetError("utilization values must lie in [0, 1]")
            object.__setattr__(self, "utilization", utilization)


@dataclass(frozen=True)
class WhatIfQuery:
    """What would the chassis look like under a hypothetical load?

    Evaluated through the batched fleet-tensor sweep
    (:func:`repro.sim.batched.evaluate_fleet`): each ``(utilization,
    dyn_max_w)`` scenario becomes one :class:`~repro.sim.batched.
    FleetPoint` and the whole batch's steady fields come from stacked
    kernel calls.  One :func:`~repro.sim.power_manager.
    select_frequencies` call over those fields gives each scenario's
    lowest steady DVFS state (``min_freq_mhz``).

    Attributes:
        chassis: Target chassis id.
        scenarios: ``(utilization, dyn_max_w)`` pairs to evaluate;
            utilization in [0, 1], power finite and non-negative.
        request_class: Shedding priority (what-ifs default to BATCH).

    Raises:
        FleetError: for an empty or out-of-range scenario list.
    """

    chassis: str
    scenarios: Tuple[Tuple[float, float], ...]
    request_class: RequestClass = RequestClass.BATCH

    kind = "what_if"

    def __post_init__(self) -> None:
        scenarios = tuple(
            (float(u), float(p)) for u, p in self.scenarios
        )
        if not scenarios:
            raise FleetError("what-if query needs at least one scenario")
        for utilization, power in scenarios:
            if not 0.0 <= utilization <= 1.0:
                raise FleetError("what-if utilization must lie in [0, 1]")
            if not (math.isfinite(power) and power >= 0):
                raise FleetError(
                    "what-if power must be finite and non-negative"
                )
        object.__setattr__(self, "scenarios", scenarios)


#: Union of the concrete query types.
FleetQuery = (PlacementQuery, WhatIfQuery)


@dataclass(frozen=True)
class QueryBatch:
    """Queued queries for one chassis, shipped as one message.

    The coordinator's only dispatch message (see
    :class:`~repro.fleet.coordinator.FleetConfig` ``batch_window_s`` /
    ``max_batch``): the queries that coalesced inside one batching
    window travel to the worker together (one member under the default
    window 0 and max 1), the worker answers them in one
    :meth:`~repro.fleet.compute.ChassisCompute.answer_batch` pass, and
    the reply comes back as a single
    ``("answer_batch", batch_id, entries, stats)`` message.  Each
    member keeps its own request id, timeout, retry budget and
    exactly-one-terminal-answer guarantee — the batch is a *transport
    and compute* grouping, never a delivery grouping.

    Attributes:
        batch_id: Coordinator-assigned id echoed back by the worker so
            the reply can be matched to its dispatch record.
        chassis: The single chassis every member targets.
        request_ids: Coordinator request ids, aligned with ``queries``.
        queries: The member queries, in dispatch (queue) order.
    """

    batch_id: int
    chassis: str
    request_ids: Tuple[int, ...]
    queries: Tuple

    kind = "query_batch"

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "request_ids", tuple(int(r) for r in self.request_ids)
        )
        object.__setattr__(self, "queries", tuple(self.queries))
        if not self.queries:
            raise FleetError("a query batch needs at least one member")
        if len(self.request_ids) != len(self.queries):
            raise FleetError(
                f"batch has {len(self.request_ids)} request ids for "
                f"{len(self.queries)} queries"
            )
        if len(set(self.request_ids)) != len(self.request_ids):
            raise FleetError("batch request ids must be unique")
        for query in self.queries:
            if not isinstance(query, FleetQuery):
                raise FleetError(
                    f"batch members must be fleet queries, got "
                    f"{type(query).__name__}"
                )
            if query.chassis != self.chassis:
                raise FleetError(
                    f"batch for chassis {self.chassis!r} contains a "
                    f"query for {query.chassis!r}"
                )

    def __len__(self) -> int:
        return len(self.queries)


@dataclass(frozen=True)
class FleetAnswer:
    """The single terminal answer for one request.

    Attributes:
        request_id: Coordinator-assigned id echoed back to the caller.
        status: Terminal disposition.
        payload: Status-specific result fields (e.g. ``socket`` and
            ``predicted_peak_c`` for a placement).  Always JSON-safe.
        staleness_s: Age of the serving snapshot for ``DEGRADED``
            answers; ``0.0`` otherwise.
        attempts: Worker dispatch attempts consumed (0 for sheds and
            snapshot-only answers).
        reason: Human-readable cause for SHED/FAILED/DEGRADED answers.
    """

    request_id: int
    status: AnswerStatus
    payload: Mapping = field(default_factory=dict)
    staleness_s: float = 0.0
    attempts: int = 0
    reason: str = ""

    def to_dict(self) -> dict:
        """JSON-safe representation (the TCP wire format)."""
        return {
            "request_id": self.request_id,
            "status": self.status.value,
            "payload": dict(self.payload),
            "staleness_s": self.staleness_s,
            "attempts": self.attempts,
            "reason": self.reason,
        }

