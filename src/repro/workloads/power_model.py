"""Socket power model: dynamic power vs frequency, leakage vs temperature.

The paper measured power in hardware at several P-states and, estimating
leakage as 30% of TDP at the 90 degC measurement temperature, separated
dynamic from static power (Figure 7a).  We reproduce that decomposition:

- dynamic power follows ``P_dyn(f) = P_dyn(f_max) * (f / f_max) ** alpha``
  with a per-set exponent (Computation's power falls fastest with
  frequency, Storage's slowest);
- leakage is linear in chip temperature and equals 30% of TDP at 90 degC;
- a power-gated idle socket draws a flat 10% of TDP (handled by the
  socket spec, not here).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..errors import WorkloadError
from ..server.processors import FrequencyLadder, X2150_LADDER
from .benchmark import BenchmarkSet, SetProfile, profile_for
from .pcmark import Application

#: Leakage fraction of TDP at the reference temperature (paper §III-A).
LEAKAGE_TDP_FRACTION = 0.30

#: Reference temperature at which leakage equals 30% of TDP, degC.
LEAKAGE_REFERENCE_C = 90.0

#: Relative leakage change per degC around the reference.
LEAKAGE_TEMP_COEFF = 0.005

#: Leakage never falls below this fraction of its reference value.
LEAKAGE_FLOOR_FRACTION = 0.25

ArrayLike = Union[float, np.ndarray]


def leakage_power(temperature_c: ArrayLike, tdp_w: float) -> ArrayLike:
    """Temperature-dependent leakage power, W.

    Equals ``LEAKAGE_TDP_FRACTION * tdp_w`` at the reference temperature
    and varies linearly with a floor to stay physical at low
    temperatures.
    """
    if tdp_w <= 0:
        raise WorkloadError(f"TDP must be positive, got {tdp_w}")
    reference_leakage = LEAKAGE_TDP_FRACTION * tdp_w
    factor = 1.0 + LEAKAGE_TEMP_COEFF * (
        np.asarray(temperature_c) - LEAKAGE_REFERENCE_C
    )
    factor = np.maximum(factor, LEAKAGE_FLOOR_FRACTION)
    result = reference_leakage * factor
    if np.isscalar(temperature_c):
        return float(result)
    return result


def leakage_array(
    temperature_c: np.ndarray,
    tdp_w: ArrayLike,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-socket leakage power, W, into ``out`` when given.

    The vector kernel of the engine's power step, the DVFS selector and
    both steady solvers: ``leakage_power(temperature_c, 1.0) * tdp_w``
    in the identical per-element operation order, so its bits equal
    that composition's.  ``temperature_c`` sets the shape; ``tdp_w``
    (per-socket, or scalar) broadcasts over it, so a ``(rows, n)``
    block of chip temperatures takes one ``(n,)`` TDP vector.
    """
    leak = np.subtract(temperature_c, LEAKAGE_REFERENCE_C, out=out)
    leak *= LEAKAGE_TEMP_COEFF
    leak += 1.0
    np.maximum(leak, LEAKAGE_FLOOR_FRACTION, out=leak)
    leak *= LEAKAGE_TDP_FRACTION
    leak *= tdp_w
    return leak


@dataclass(frozen=True)
class PowerModel:
    """Power model for one benchmark set (or application) on one socket.

    Attributes:
        power_at_max_w: Total power at the top frequency and 90 degC, W.
        dynamic_exponent: Exponent alpha of the dynamic power law.
        tdp_w: Socket TDP (sets the leakage magnitude), W.
        ladder: DVFS ladder (sets the top frequency).
    """

    power_at_max_w: float
    dynamic_exponent: float
    tdp_w: float = 22.0
    ladder: FrequencyLadder = X2150_LADDER

    def __post_init__(self) -> None:
        if self.power_at_max_w <= 0:
            raise WorkloadError("power_at_max_w must be positive")
        if self.dynamic_exponent <= 0:
            raise WorkloadError("dynamic_exponent must be positive")
        if self.tdp_w <= 0:
            raise WorkloadError("tdp_w must be positive")
        if self.dynamic_power_at_max_w <= 0:
            raise WorkloadError(
                "power_at_max_w must exceed reference leakage "
                f"({LEAKAGE_TDP_FRACTION * self.tdp_w:.2f} W)"
            )

    @classmethod
    def for_set(
        cls,
        benchmark_set: BenchmarkSet,
        tdp_w: float = 22.0,
        ladder: FrequencyLadder = X2150_LADDER,
    ) -> "PowerModel":
        """Power model from a set-level profile (Figure 7a)."""
        profile: SetProfile = profile_for(benchmark_set)
        return cls(
            power_at_max_w=profile.power_at_max_w,
            dynamic_exponent=profile.dynamic_exponent,
            tdp_w=tdp_w,
            ladder=ladder,
        )

    @classmethod
    def for_app(
        cls,
        app: Application,
        tdp_w: float = 22.0,
        ladder: FrequencyLadder = X2150_LADDER,
    ) -> "PowerModel":
        """Power model for a single application."""
        profile = profile_for(app.benchmark_set)
        return cls(
            power_at_max_w=app.power_at_max_w,
            dynamic_exponent=profile.dynamic_exponent,
            tdp_w=tdp_w,
            ladder=ladder,
        )

    @property
    def dynamic_power_at_max_w(self) -> float:
        """Dynamic power at the top frequency, W."""
        return self.power_at_max_w - LEAKAGE_TDP_FRACTION * self.tdp_w

    def dynamic_power(self, freq_mhz: ArrayLike) -> ArrayLike:
        """Dynamic power at a frequency, W."""
        ratio = np.asarray(freq_mhz, dtype=float) / self.ladder.max_mhz
        result = self.dynamic_power_at_max_w * ratio**self.dynamic_exponent
        if np.isscalar(freq_mhz):
            return float(result)
        return result

    def total_power(
        self, freq_mhz: ArrayLike, temperature_c: ArrayLike
    ) -> ArrayLike:
        """Total socket power at a frequency and chip temperature, W."""
        dynamic = self.dynamic_power(freq_mhz)
        static = leakage_power(temperature_c, self.tdp_w)
        result = np.asarray(dynamic) + np.asarray(static)
        if np.isscalar(freq_mhz) and np.isscalar(temperature_c):
            return float(result)
        return result

    def power_at_reference(self, freq_mhz: ArrayLike) -> ArrayLike:
        """Total power at 90 degC — the quantity Figure 7a plots."""
        return self.total_power(freq_mhz, LEAKAGE_REFERENCE_C)
