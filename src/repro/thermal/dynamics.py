"""Two-node transient thermal dynamics.

Table III of the paper gives two time constants: an on-chip constant of
5 ms and a socket (heat-sink mass) constant of 30 s.  We model each
socket as a two-node RC ladder:

- the *sink* node represents the heat-sink and socket thermal mass; its
  steady-state temperature is ``ambient + power * r_ext`` and it relaxes
  toward that target with tau = 30 s;
- the *chip* node represents the die; its steady state is
  ``sink + power * r_int + theta(power)`` and it relaxes with tau = 5 ms.

Each step uses the exact exponential solution of the first-order ODE,
``T(t+dt) = target + (T(t) - target) * exp(-dt/tau)``, so the update is
unconditionally stable for any step size — the engine can take 1 ms
power-manager steps or coarser steps without error growth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ThermalModelError

#: On-chip thermal time constant (Table III), seconds.
DEFAULT_CHIP_TAU_S = 0.005

#: Socket / heat-sink thermal time constant (Table III), seconds.
DEFAULT_SOCKET_TAU_S = 30.0


@dataclass
class TwoNodeThermalState:
    """Vectorised transient state for a set of sockets.

    Attributes:
        sink_c: Heat-sink node temperatures, degC (one per socket).
        chip_c: Chip node temperatures, degC (one per socket).
        chip_tau_s: On-chip time constant, seconds.
        socket_tau_s: Heat-sink mass time constant, seconds.
    """

    sink_c: np.ndarray
    chip_c: np.ndarray
    chip_tau_s: float = DEFAULT_CHIP_TAU_S
    socket_tau_s: float = DEFAULT_SOCKET_TAU_S

    def __post_init__(self) -> None:
        self.sink_c = np.asarray(self.sink_c, dtype=float)
        self.chip_c = np.asarray(self.chip_c, dtype=float)
        if self.sink_c.shape != self.chip_c.shape:
            raise ThermalModelError(
                "sink and chip arrays must have identical shapes"
            )
        if self.chip_tau_s <= 0 or self.socket_tau_s <= 0:
            raise ThermalModelError("time constants must be positive")

    @classmethod
    def at_ambient(
        cls,
        n_sockets: int,
        ambient_c: float,
        chip_tau_s: float = DEFAULT_CHIP_TAU_S,
        socket_tau_s: float = DEFAULT_SOCKET_TAU_S,
    ) -> "TwoNodeThermalState":
        """All nodes equilibrated at the given ambient temperature."""
        if n_sockets <= 0:
            raise ThermalModelError(
                f"n_sockets must be positive, got {n_sockets}"
            )
        temps = np.full(n_sockets, float(ambient_c))
        return cls(
            sink_c=temps.copy(),
            chip_c=temps.copy(),
            chip_tau_s=chip_tau_s,
            socket_tau_s=socket_tau_s,
        )

    def step_decayed(
        self,
        sink_decay: float,
        chip_decay: float,
        ambient_c: np.ndarray,
        power_w: np.ndarray,
        r_int: np.ndarray,
        r_ext: np.ndarray,
        theta: np.ndarray,
        scratch: "np.ndarray | None" = None,
    ) -> None:
        """Advance both nodes in place by one step of ``dt`` seconds.

        The fixed-step engine relaxes the nodes thousands of times with
        the same ``dt``, so the step takes the decay factors
        ``exp(-dt/tau)`` precomputed once per run.  The sink relaxes
        toward ``ambient + power * r_ext`` first; the chip then relaxes
        toward the *new* sink plus ``power * r_int + theta``.  Both node
        arrays are updated fully in place (one scratch allocation per
        call when no buffer is given).

        Args:
            sink_decay: ``exp(-dt / socket_tau_s)`` for the engine step.
            chip_decay: ``exp(-dt / chip_tau_s)`` for the engine step.
            ambient_c: Per-socket entry air temperature, degC.
            power_w: Per-socket total power, W.
            r_int: Per-socket internal resistance, degC/W.
            r_ext: Per-socket external (sink) resistance, degC/W.
            theta: Per-socket Equation 1 correction, degC.
            scratch: Optional per-socket work buffer reused by the
                engine hot path (its contents are overwritten).
        """
        # Sink node: target = ambient + power * r_ext, then
        # T <- target + (T - target) * decay, evaluated in place.
        target = np.multiply(power_w, r_ext, out=scratch)
        target += ambient_c
        sink = self.sink_c
        sink -= target
        sink *= sink_decay
        sink += target
        # Chip node over the *new* sink state:
        # target = sink + power * r_int + theta.
        np.multiply(power_w, r_int, out=target)
        target += sink
        target += theta
        chip = self.chip_c
        chip -= target
        chip *= chip_decay
        chip += target

    def sink_heat_output_w(
        self,
        ambient_c: np.ndarray,
        r_ext: np.ndarray,
        out: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """Heat currently flowing from each sink into the air stream, W.

        This is the quantity that warms downstream sockets: the coupling
        chain consumes it instead of the instantaneous electrical power,
        which gives the 30 s coupling lag the paper describes.

        Args:
            ambient_c: Per-socket entry air temperature, degC.
            r_ext: Per-socket external (sink) resistance, degC/W.
            out: Optional output buffer reused by the engine hot path.
        """
        heat = np.subtract(self.sink_c, ambient_c, out=out)
        heat /= r_ext
        return np.maximum(heat, 0.0, out=heat)
