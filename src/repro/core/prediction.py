"""Frequency prediction helpers shared by Predictive and CP.

Both policies follow the mechanics of Section IV-C: assume the job is
placed on a candidate socket, estimate the chip temperature with
Equation 1, compensate leakage once, and find the highest DVFS state
that respects the temperature limit (and the boost governor).  The same
machinery, pointed at a downwind socket with its entry temperature
shifted by the coupling weight, predicts how much that socket would slow
down.

The policies score a whole candidate pool through
:func:`predict_job_placement`, which gathers each candidate column once
and returns the job's predicted frequency and power draw together.  The
scalar helpers (:func:`predict_job_frequency`,
:func:`predicted_job_power`, :func:`predict_downwind_slowdown`) serve
the migration policy and are the per-candidate references the pool
scoring is tested against, bit for bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

import numpy as np

from ..sim.power_manager import (
    dynamic_power,
    select_frequencies,
    select_frequencies_steady,
)
from ..workloads.benchmark import profile_for
from ..workloads.power_model import (
    LEAKAGE_FLOOR_FRACTION,
    LEAKAGE_REFERENCE_C,
    LEAKAGE_TDP_FRACTION,
    LEAKAGE_TEMP_COEFF,
    leakage_power,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.view import SchedulerView
    from ..workloads.job import Job


def predict_job_frequency(
    view: "SchedulerView",
    socket_ids: np.ndarray,
    job: "Job",
) -> np.ndarray:
    """Predicted frequency (MHz) ``job`` would get on each candidate.

    Args:
        view: Read-only simulation view.
        socket_ids: Candidate socket indices.
        job: The job being placed.

    Returns:
        Array of predicted MHz, aligned with ``socket_ids``.
    """
    topology = view.topology
    ids = np.asarray(socket_ids)
    tdp = topology.tdp_array[ids]
    profile = profile_for(job.app.benchmark_set)
    dyn_max = job.app.power_at_max_w - LEAKAGE_TDP_FRACTION * tdp
    dyn_exp = np.full(ids.shape, profile.dynamic_exponent)
    return select_frequencies(
        sink_c=view.sink_c[ids],
        chip_c=view.chip_c[ids],
        dyn_max_w=dyn_max,
        dyn_exp=dyn_exp,
        tdp_w=tdp,
        theta_offset=topology.theta_offset_array[ids],
        theta_slope=topology.theta_slope_array[ids],
        ladder=view.ladder,
        params=view.params,
    )


def predict_job_placement(
    view: "SchedulerView",
    socket_ids: np.ndarray,
    job: "Job",
) -> Tuple[np.ndarray, np.ndarray]:
    """Predicted frequency (MHz) and power draw (W) of ``job`` per candidate.

    Bit-identical to :func:`predict_job_frequency` followed by one
    :func:`predicted_job_power` call per candidate, from one gather of
    each candidate column:

    - The frequency comes from :func:`~repro.sim.power_manager.
      select_frequencies_steady` with ``ambient_c`` set to the sink
      temperatures and ``r_ext=0.0``.  That is the instantaneous-sink
      selection op for op: ``r_int + 0.0`` is ``r_int``, and every
      other step is the same operation in the same order.
    - The power keeps :func:`predicted_job_power`'s per-element order.
      Its leakage term is inlined because :func:`~repro.workloads.
      power_model.leakage_power` validates ``tdp_w`` as a scalar.
    """
    topology = view.topology
    tdp = topology.tdp_array[socket_ids]
    chip = view.chip_c[socket_ids]
    exponent = profile_for(job.app.benchmark_set).dynamic_exponent
    reference_leak = LEAKAGE_TDP_FRACTION * tdp
    dyn_max = job.app.power_at_max_w - reference_leak
    ladder = view.ladder
    freq = select_frequencies_steady(
        ambient_c=view.sink_c[socket_ids],
        chip_c=chip,
        dyn_max_w=dyn_max,
        dyn_exp=np.full(tdp.shape, exponent),
        tdp_w=tdp,
        r_ext=0.0,
        theta_offset=topology.theta_offset_array[socket_ids],
        theta_slope=topology.theta_slope_array[socket_ids],
        ladder=ladder,
        params=view.params,
    )
    factor = 1.0 + LEAKAGE_TEMP_COEFF * (chip - LEAKAGE_REFERENCE_C)
    factor = np.maximum(factor, LEAKAGE_FLOOR_FRACTION)
    power = dynamic_power(freq, dyn_max, exponent, ladder.max_mhz)
    return freq, power + reference_leak * factor


def predicted_job_power(
    view: "SchedulerView", socket_id: int, job: "Job", freq_mhz: float
) -> float:
    """Power the job would draw on a socket at the predicted frequency."""
    tdp = float(view.topology.tdp_array[socket_id])
    profile = profile_for(job.app.benchmark_set)
    dyn_max = job.app.power_at_max_w - LEAKAGE_TDP_FRACTION * tdp
    dyn = dynamic_power(
        freq_mhz, dyn_max, profile.dynamic_exponent, view.ladder.max_mhz
    )
    leak = leakage_power(float(view.chip_c[socket_id]), tdp)
    return float(dyn) + float(leak)


def predict_downwind_slowdown(
    view: "SchedulerView", candidate: int, job_power_w: float
) -> float:
    """Total predicted frequency loss (MHz) across downwind sockets.

    Assumes the downwind sockets keep running their current jobs while
    the candidate's heat output settles at ``job_power_w`` instead of
    the gated idle draw it would decay to if left alone; their entry
    air warms by the coupling weight times that difference, their sinks
    eventually follow, and their achievable frequency drops accordingly.
    Idle downwind sockets contribute nothing (they are gated and their
    future work is unknown).
    """
    topology = view.topology
    coupling = topology.coupling
    downwind = coupling.downwind_of(candidate)
    if downwind.size == 0:
        return 0.0
    busy_down = downwind[view.busy[downwind]]
    if busy_down.size == 0:
        return 0.0

    heat_delta = job_power_w - float(
        topology.gated_power_array[candidate]
    )
    weights = np.array(
        [coupling.influence_on(int(d), candidate) for d in busy_down]
    )
    ambient_delta = weights * heat_delta

    common = dict(
        chip_c=view.chip_c[busy_down],
        dyn_max_w=view.dyn_max_w[busy_down],
        dyn_exp=view.dyn_exp[busy_down],
        tdp_w=topology.tdp_array[busy_down],
        r_ext=topology.r_ext_array[busy_down],
        theta_offset=topology.theta_offset_array[busy_down],
        theta_slope=topology.theta_slope_array[busy_down],
        ladder=view.ladder,
        params=view.params,
    )
    freq_now = select_frequencies_steady(
        ambient_c=view.ambient_c[busy_down], **common
    )
    freq_later = select_frequencies_steady(
        ambient_c=view.ambient_c[busy_down] + ambient_delta, **common
    )
    losses = np.maximum(freq_now - freq_later, 0.0)
    # A predicted loss only materialises while the victim keeps running
    # work; weight by its observed utilisation.
    return float((losses * view.busy_ema[busy_down]).sum())
