"""Power manager: DVFS selection and power computation.

The paper uses one DVFS rule in two places.  Its power management
policy "emphasizes responsiveness and runs jobs at the highest possible
frequency within the temperature limit" (Table III), evaluated every
1 ms; its Predictive and CP schedulers predict the state a job would
get the same way (Section IV-C).  Both grant the highest state whose
Equation-1 chip temperature

    T_chip = T_amb + P(f) * (R_int + R_ext) + theta(P(f))

stays under the 95 degC limit, which :func:`select_frequencies`
computes.  The 1-ms manager passes the current sink temperature with
``r_ext=0.0``: the on-chip time constant (5 ms) is tiny next to the
heat sink's (30 s), so the chip sits in quasi-equilibrium with its
sink.  The schedulers' steady prediction passes the entry air with
each socket's ``R_ext``: the temperature the chip settles at once its
sink equilibrates.  Boost states (above the sustained 1500 MHz) are
additionally gated by the boost governor threshold — the BKDG-derived
rule that a fully loaded socket only *sustains* the highest non-boost
state, boosting opportunistically while thermal headroom exists.

Idle sockets are power gated and draw 10% of TDP.

The selection is *batched over the ladder*: instead of a Python loop
re-deriving power and temperature per DVFS state, one
``(n_states, n_sockets)`` broadcast computes every state's predicted
chip temperature at once and a reverse arg-max picks the highest
admissible state per socket.  The broadcast performs the identical
floating-point operations in the identical per-element order as the
historical state-by-state walk, so results are bit-identical — only the
Python-level dispatch count shrinks (the engine's hottest loop).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple, Union

import numpy as np

from ..config.parameters import SimulationParameters
from ..server.processors import FrequencyLadder
from ..workloads.power_model import leakage_array

ArrayLike = Union[float, np.ndarray]


@lru_cache(maxsize=32)
def _ladder_tables(
    ladder: FrequencyLadder,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-ladder constants: states column, boost mask, ratio column.

    Cached per ladder (ladders are small frozen dataclasses shared by
    every socket).  The returned arrays are internal — callers must not
    mutate them.
    """
    states = np.asarray(ladder.states_mhz, dtype=float)[:, None]
    boost = np.asarray(
        [ladder.is_boost(state) for state in ladder.states_mhz],
        dtype=bool,
    )
    ratios = states / ladder.max_mhz
    return states, boost, ratios


@lru_cache(maxsize=64)
def _state_limits_cached(
    ladder: FrequencyLadder, limit: float, boost_limit_c: float
) -> np.ndarray:
    _, boost, _ = _ladder_tables(ladder)
    boost_limit = min(boost_limit_c, limit)
    return np.where(boost, boost_limit, limit)[:, None]


def _state_limits(
    ladder: FrequencyLadder, params: SimulationParameters
) -> np.ndarray:
    """Per-state chip-temperature admission threshold, as a column.

    A non-boost state only needs ``chip <= temperature_limit_c``; a
    boost state additionally needs ``chip <= boost_chip_temp_limit_c``.
    Collapsing the conjunction into ``chip <= min(both limits)`` yields
    the identical admission booleans with one comparison instead of a
    masked second pass.  Cached per (ladder, limits) triple.
    """
    return _state_limits_cached(
        ladder,
        params.temperature_limit_c,
        params.boost_chip_temp_limit_c,
    )


class SelectionWorkspace:
    """Reusable scratch buffers for :func:`select_frequencies`.

    The engine evaluates DVFS selection every millisecond; without a
    workspace each call allocates several ``(n_states, n_sockets)``
    temporaries.  A caller that owns one of these (the pipeline's
    PowerManager) amortises those allocations across the whole run.
    Buffer contents are overwritten on every call — never read them
    between calls.
    """

    __slots__ = (
        "power", "chip_eq", "theta_term", "allowed",
        "any_allowed", "pick", "freq",
    )

    def __init__(self, n_states: int, n_sockets: int) -> None:
        shape = (n_states, n_sockets)
        self.power = np.empty(shape)
        self.chip_eq = np.empty(shape)
        self.theta_term = np.empty(shape)
        self.allowed = np.empty(shape, dtype=bool)
        self.any_allowed = np.empty(n_sockets, dtype=bool)
        self.pick = np.empty(n_sockets, dtype=np.intp)
        self.freq = np.empty(n_sockets)

    @classmethod
    def for_ladder(
        cls, ladder: FrequencyLadder, n_sockets: int
    ) -> "SelectionWorkspace":
        return cls(len(ladder.states_mhz), n_sockets)


def _pick_highest_allowed(
    allowed: np.ndarray,
    states: np.ndarray,
    min_mhz: float,
    workspace: Optional[SelectionWorkspace] = None,
) -> np.ndarray:
    """Highest admissible ladder state per socket, else the floor.

    ``allowed`` is the ``(n_states, n_sockets)`` admissibility matrix
    with states ascending along axis 0.  Equivalent to the historical
    bottom-up walk that overwrote with each higher admissible state:
    the *last* allowed state wins; sockets with no admissible state
    fall back to the minimum (the clock is never stopped).
    """
    if workspace is None:
        any_allowed = allowed.any(axis=0)
        last = allowed.shape[0] - 1 - np.argmax(allowed[::-1], axis=0)
        return np.where(any_allowed, states[last, 0], min_mhz)
    # ndarray methods skip the np.* dispatch wrappers on the hot path.
    any_allowed = allowed.any(axis=0, out=workspace.any_allowed)
    pick = allowed[::-1].argmax(axis=0, out=workspace.pick)
    np.subtract(allowed.shape[0] - 1, pick, out=pick)
    states[:, 0].take(pick, out=workspace.freq)
    return np.where(any_allowed, workspace.freq, min_mhz)


def dynamic_power(
    freq_mhz: ArrayLike,
    dyn_max_w: ArrayLike,
    dyn_exp: ArrayLike,
    max_mhz: float,
) -> ArrayLike:
    """Dynamic power of the running job at ``freq_mhz``, W."""
    ratio = np.asarray(freq_mhz, dtype=float) / max_mhz
    return np.asarray(dyn_max_w) * ratio ** np.asarray(dyn_exp)


def select_frequencies(
    ambient_c: ArrayLike,
    chip_c: np.ndarray,
    dyn_max_w: np.ndarray,
    dyn_exp: np.ndarray,
    tdp_w: np.ndarray,
    r_ext: ArrayLike,
    theta_offset: np.ndarray,
    theta_slope: np.ndarray,
    ladder: FrequencyLadder,
    params: SimulationParameters,
    leakage_w: Optional[np.ndarray] = None,
    workspace: Optional[SelectionWorkspace] = None,
) -> np.ndarray:
    """Per-socket highest allowed frequency, MHz (vectorised).

    Every input is a per-socket array (idle sockets may pass zeros for
    the job parameters; their result is meaningless and ignored by the
    engine).  The selection considers every ladder state at once,
    keeping the highest state whose Equation-1 chip temperature
    ``ambient_c + P * (r_int + r_ext) + theta(P)`` respects the 95 degC
    limit — and, for boost states, the boost governor threshold.  The
    minimum state is always available (the clock is never stopped).

    The math is elementwise per socket column, so callers may flatten
    many sockets' inputs into one call (the fleet what-if's ``(N * n,)``
    scenarios, CP's concatenated victims) and get the bits of many
    small calls.

    Args:
        ambient_c: Temperature the chip's heat path starts from, degC:
            the current sink temperature with ``r_ext=0.0`` (the 1-ms
            power manager's quasi-equilibrium), or the entry air with
            the socket's external resistance (the steady prediction).
        r_ext: External (sink-to-air) thermal resistance, degC/W; a
            scalar or per-socket array.  ``r_int + 0.0`` is ``r_int``,
            so ``r_ext=0.0`` adds no rounding step.
        leakage_w: Optional precomputed per-socket leakage power
            (:func:`~repro.workloads.power_model.leakage_array` of
            ``chip_c`` and ``tdp_w``); callers that already hold the
            identical quantity (the engine's power step) pass it to
            avoid recomputation.
        workspace: Optional :class:`SelectionWorkspace` sized for this
            ladder and socket count; repeat callers (the engine hot
            path) pass one to skip per-call temporary allocation.
    """
    if leakage_w is None:
        leakage_w = leakage_array(chip_c, tdp_w)
    states, _, ratios = _ladder_tables(ladder)
    # In-place accumulation of power = dyn_max * ratio**exp + leak and
    # chip_eq = ambient + power*(r_int + r_ext) + theta_off
    # + theta_slope*power, reordering only across commutative ops
    # (bit-identical results).
    if workspace is None:
        power = ratios ** dyn_exp
        chip_eq = None
    else:
        power = np.power(ratios, dyn_exp, out=workspace.power)
        chip_eq = workspace.chip_eq
    power *= dyn_max_w
    power += leakage_w
    chip_eq = np.multiply(power, params.r_int + r_ext, out=chip_eq)
    chip_eq += ambient_c
    chip_eq += theta_offset
    if workspace is None:
        chip_eq += theta_slope * power
        allowed = chip_eq <= _state_limits(ladder, params)
    else:
        chip_eq += np.multiply(
            theta_slope, power, out=workspace.theta_term
        )
        allowed = np.less_equal(
            chip_eq, _state_limits(ladder, params), out=workspace.allowed
        )
    return _pick_highest_allowed(
        allowed, states, float(ladder.min_mhz), workspace
    )
