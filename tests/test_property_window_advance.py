"""Property-based tests for the closed-form window advance.

:meth:`~repro.thermal.dynamics.TwoNodeThermalState.advance_window` and
its functional core :func:`~repro.thermal.dynamics.advance_window_modes`
give the exact mode decomposition of ``n`` iterated
:meth:`~repro.thermal.dynamics.TwoNodeThermalState.step_decayed` calls
under frozen inputs.  :mod:`repro.sim.batched` uses them for
``evaluate_fleet``'s cold-start window and the fleet what-if
``window_steps``.  Hypothesis explores the input space for the
algebraic properties those callers lean on:

- **agreement** — the closed form matches the iterated recurrence to
  float round-off, in both the generic and the resonant branch;
- **semigroup** — advancing ``k1 + k2`` steps equals advancing ``k1``
  then ``k2``;
- **monotone decay** — at zero power with ordered initial state the
  chip cools monotonically toward ambient and never undershoots it.

Plus a steady-state cross-check against the general RC solver
(:class:`~repro.thermal.rc_network.FactorizedSystem` machinery).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.thermal.dynamics import TwoNodeThermalState

#: Agreement tolerance between the closed form and the iterated
#: recurrence.  Both are exact in real arithmetic; float round-off
#: accumulates slightly differently (power vs repeated multiply).
ATOL = 1e-7

decays = st.floats(
    min_value=1e-6, max_value=1.0 - 1e-6, allow_nan=False
)
temps = st.floats(min_value=-40.0, max_value=150.0, allow_nan=False)
powers = st.floats(min_value=0.0, max_value=400.0, allow_nan=False)
resistances = st.floats(
    min_value=0.001, max_value=2.0, allow_nan=False
)
step_counts = st.integers(min_value=0, max_value=2000)


def _state(sink0, chip0):
    return TwoNodeThermalState(
        sink_c=np.array([sink0]), chip_c=np.array([chip0])
    )


def _inputs(ambient, power, r_int, r_ext, theta):
    return dict(
        ambient_c=np.array([ambient]),
        power_w=np.array([power]),
        r_int=np.array([r_int]),
        r_ext=np.array([r_ext]),
        theta=np.array([theta]),
    )


@settings(max_examples=200, deadline=None)
@given(
    sink_decay=decays,
    chip_decay=decays,
    n_steps=st.integers(min_value=0, max_value=200),
    sink0=temps,
    chip0=temps,
    ambient=temps,
    power=powers,
    r_int=resistances,
    r_ext=resistances,
    theta=st.floats(min_value=-5.0, max_value=20.0, allow_nan=False),
)
def test_advance_window_matches_iterated_steps(
    sink_decay,
    chip_decay,
    n_steps,
    sink0,
    chip0,
    ambient,
    power,
    r_int,
    r_ext,
    theta,
):
    inputs = _inputs(ambient, power, r_int, r_ext, theta)
    closed = _state(sink0, chip0)
    closed.advance_window(sink_decay, chip_decay, n_steps, **inputs)
    iterated = _state(sink0, chip0)
    for _ in range(n_steps):
        iterated.step_decayed(sink_decay, chip_decay, **inputs)
    scale = max(abs(sink0), abs(chip0), abs(ambient), 1.0)
    assert abs(closed.sink_c[0] - iterated.sink_c[0]) <= ATOL * scale
    assert abs(closed.chip_c[0] - iterated.chip_c[0]) <= ATOL * scale


@settings(max_examples=100, deadline=None)
@given(
    decay=decays,
    n_steps=st.integers(min_value=0, max_value=200),
    sink0=temps,
    chip0=temps,
    ambient=temps,
    power=powers,
)
def test_resonant_branch_matches_iterated_steps(
    decay, n_steps, sink0, chip0, ambient, power
):
    """Equal decay factors exercise the confluent (k * r**k) form."""
    inputs = _inputs(ambient, power, 0.3, 0.5, 1.0)
    closed = _state(sink0, chip0)
    modes = closed.advance_window(decay, decay, n_steps, **inputs)
    assert modes.resonant
    iterated = _state(sink0, chip0)
    for _ in range(n_steps):
        iterated.step_decayed(decay, decay, **inputs)
    scale = max(abs(sink0), abs(chip0), abs(ambient), 1.0)
    assert abs(closed.sink_c[0] - iterated.sink_c[0]) <= ATOL * scale
    assert abs(closed.chip_c[0] - iterated.chip_c[0]) <= ATOL * scale


@settings(max_examples=200, deadline=None)
@given(
    sink_decay=decays,
    chip_decay=decays,
    k1=st.integers(min_value=0, max_value=500),
    k2=st.integers(min_value=0, max_value=500),
    sink0=temps,
    chip0=temps,
    ambient=temps,
    power=powers,
)
def test_advance_window_semigroup(
    sink_decay, chip_decay, k1, k2, sink0, chip0, ambient, power
):
    """advance(k1 + k2) == advance(k1) then advance(k2)."""
    inputs = _inputs(ambient, power, 0.2, 0.8, 2.0)
    whole = _state(sink0, chip0)
    whole.advance_window(sink_decay, chip_decay, k1 + k2, **inputs)
    split = _state(sink0, chip0)
    split.advance_window(sink_decay, chip_decay, k1, **inputs)
    split.advance_window(sink_decay, chip_decay, k2, **inputs)
    scale = max(abs(sink0), abs(chip0), abs(ambient), 1.0)
    assert abs(whole.sink_c[0] - split.sink_c[0]) <= ATOL * scale
    assert abs(whole.chip_c[0] - split.chip_c[0]) <= ATOL * scale


@settings(max_examples=100, deadline=None)
@given(
    sink_decay=st.floats(min_value=0.9, max_value=1.0 - 1e-9),
    chip_decay=st.floats(min_value=0.01, max_value=0.89),
    ambient=st.floats(min_value=0.0, max_value=45.0),
    sink_rise=st.floats(min_value=0.0, max_value=40.0),
    chip_rise=st.floats(min_value=0.0, max_value=40.0),
    n_steps=st.integers(min_value=1, max_value=300),
)
def test_zero_power_decay_is_monotone(
    sink_decay, chip_decay, ambient, sink_rise, chip_rise, n_steps
):
    """An idle, ordered-hot socket cools monotonically to ambient.

    With zero power and zero theta the only fixed point is ambient;
    starting from ``chip >= sink >= ambient`` the closed-form chip
    trajectory must be non-increasing in the window length and never
    undershoot ambient.
    """
    sink0 = ambient + sink_rise
    chip0 = sink0 + chip_rise
    inputs = _inputs(ambient, 0.0, 0.4, 0.6, 0.0)
    previous = chip0
    for k in range(1, n_steps + 1):
        state = _state(sink0, chip0)
        state.advance_window(sink_decay, chip_decay, k, **inputs)
        chip_k = state.chip_c[0]
        assert chip_k <= previous + 1e-9
        assert chip_k >= ambient - 1e-9
        previous = chip_k


def test_window_fixed_point_matches_rc_solver():
    """The closed form's equilibrium equals the general RC solution.

    A two-node ladder (ambient -- r_ext -- sink -- r_int -- chip,
    power injected at the chip) solved by the generic factorized RC
    machinery must agree with ``advance_window``'s constants
    (``sink_const``, ``chip_const`` with theta = 0) — the window
    advance converges to the physically correct steady state.
    """
    from repro.thermal.rc_network import FactorizedSystem

    ambient, power, r_int, r_ext = 25.0, 120.0, 0.05, 0.3
    # Unknowns [sink, chip]; conductance form G @ T = injection.
    g_ext, g_int = 1.0 / r_ext, 1.0 / r_int
    matrix = np.array(
        [[g_ext + g_int, -g_int], [-g_int, g_int]]
    )
    rhs = np.array([g_ext * ambient, power])
    solved = FactorizedSystem(matrix).solve(rhs)
    state = _state(90.0, 110.0)
    modes = state.advance_window(
        0.99,
        0.5,
        0,
        **_inputs(ambient, power, r_int, r_ext, 0.0),
    )
    assert abs(modes.sink_const[0] - solved[0]) <= 1e-9
    assert abs(modes.chip_const[0] - solved[1]) <= 1e-9
    # And a long window actually lands there.
    state.advance_window(
        0.9, 0.2, 5000, **_inputs(ambient, power, r_int, r_ext, 0.0)
    )
    assert abs(state.sink_c[0] - solved[0]) <= 1e-6
    assert abs(state.chip_c[0] - solved[1]) <= 1e-6
