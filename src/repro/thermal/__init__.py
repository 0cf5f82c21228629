"""Thermal substrate: heat sinks, chip temperature models, airflow, coupling.

This package implements every thermal model the paper relies on:

- :mod:`repro.thermal.heatsink` — the two M700 heat sinks (18 and 30 fin)
  with their external resistances and empirical :math:`\\theta` terms.
- :mod:`repro.thermal.chip_model` — the paper's Equation 1 simplified peak
  chip temperature model.
- :mod:`repro.thermal.detailed_model` — a multi-node RC-grid reference
  model standing in for the proprietary HotSpot-like validated model
  (used for Figures 9 and 10).
- :mod:`repro.thermal.dynamics` — two-node transient dynamics with the
  5 ms chip and 30 s socket time constants from Table III.
- :mod:`repro.thermal.airflow` — first-law airflow requirements (Table II)
  and a simple fan model.
- :mod:`repro.thermal.coupling` — the inter-socket thermal coupling chain
  (directional air heating) that replaces the Ansys Icepak CFD model.
- :mod:`repro.thermal.analytical` — the Section II-B analytical model of
  socket entry temperature (Figure 5).
"""

from .heatsink import HeatSink, FIN_18, FIN_30
from .chip_model import SimplifiedChipModel, peak_temperature
from .detailed_model import DetailedChipModel, DetailedChipResult
from .dynamics import TwoNodeThermalState, exponential_step
from .airflow import FanModel, airflow_table, server_airflow_requirement
from .fan_control import FanController
from .coupling import CouplingChain, CouplingMatrix
from .analytical import (
    EntryTemperatureModel,
    entry_temperature_profile,
    entry_temperature_statistics,
)

__all__ = [
    "HeatSink",
    "FIN_18",
    "FIN_30",
    "SimplifiedChipModel",
    "peak_temperature",
    "DetailedChipModel",
    "DetailedChipResult",
    "TwoNodeThermalState",
    "exponential_step",
    "FanModel",
    "FanController",
    "airflow_table",
    "server_airflow_requirement",
    "CouplingChain",
    "CouplingMatrix",
    "EntryTemperatureModel",
    "entry_temperature_profile",
    "entry_temperature_statistics",
]
