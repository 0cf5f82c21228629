"""Predictive policy (Yeo et al. / Ayoub & Rosing).

Predictive estimates the future temperature of each candidate socket if
the job were placed there, derives the frequency the socket could then
sustain, and picks the socket that runs the job fastest.  Ties between
sockets that predict the same DVFS state break toward the socket whose
heat sink would settle coolest (lowest ``ambient + P * R_ext``), i.e.
the one that can hold the frequency longest — which is why Predictive
gravitates to cool sockets with the better 30-fin sink (zone 2 in the
SUT) at low load.
"""

from __future__ import annotations

import numpy as np

from .base import Scheduler, register_scheduler
from .prediction import predict_job_frequency, predict_job_powers

#: MHz-per-degC weight of the sink steady-state tie-breaker; small
#: enough never to override a 200 MHz state difference.
SINK_TIEBREAK_WEIGHT = 0.05


@register_scheduler
class Predictive(Scheduler):
    """Place the job where its predicted frequency is highest."""

    name = "Predictive"

    def select_socket(self, job, idle_ids, view) -> int:
        self._require_candidates(idle_ids)
        freq = predict_job_frequency(view, idle_ids, job)
        sink_ss = self._sink_steady_state(job, idle_ids, view, freq)
        # Among equal predicted states, prefer the socket whose sink
        # would settle coolest (sustains the state longest) and whose
        # sink is currently freshest (longest boost runway).
        score = freq - SINK_TIEBREAK_WEIGHT * (
            sink_ss + view.sink_c[idle_ids]
        )
        return int(idle_ids[int(np.argmax(score))])

    def _sink_steady_state(self, job, idle_ids, view, freq) -> np.ndarray:
        """Eventual sink temperature if the job ran indefinitely."""
        topology = view.topology
        powers = predict_job_powers(view, idle_ids, job, freq)
        return (
            view.ambient_c[idle_ids]
            + powers * topology.r_ext_array[idle_ids]
        )
