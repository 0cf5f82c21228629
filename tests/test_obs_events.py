"""The telemetry event schema: construction and validation."""

import pytest

from repro.errors import ObservabilityError
from repro.obs import events as obs_events
from repro.obs.events import (
    EVENT_TYPES,
    SCHEMA_VERSION,
    EventBus,
    make_event,
    validate_event,
)


def test_make_event_stamps_version_and_type():
    event = make_event("placement", step=3, t=0.003, job_id=7, socket=2)
    assert event["v"] == SCHEMA_VERSION
    assert event["type"] == "placement"
    assert event["socket"] == 2


def test_every_schema_type_has_a_buildable_example():
    """The schema must be internally consistent: a payload built from
    each type's own spec validates."""
    example = {int: 1, float: 0.5, str: "x", bool: True}
    for type_, spec in EVENT_TYPES.items():
        fields = {
            name: example[allowed[0]] for name, allowed in spec.items()
        }
        event = make_event(type_, **fields)
        validate_event(event)


def test_unknown_type_rejected():
    with pytest.raises(ObservabilityError, match="unknown event type"):
        make_event("teleportation", step=1)


def test_missing_required_field_rejected():
    with pytest.raises(ObservabilityError, match="missing required"):
        make_event("placement", step=3, t=0.003, job_id=7)


def test_wrong_field_type_rejected():
    with pytest.raises(ObservabilityError, match="must be int"):
        make_event(
            "placement", step=3, t=0.003, job_id="seven", socket=2
        )


def test_bool_is_not_an_int():
    """``bool`` is an ``int`` subclass in Python, but not in the
    schema: a count field must never silently accept True."""
    with pytest.raises(ObservabilityError, match="got bool"):
        make_event(
            "placement", step=3, t=0.003, job_id=True, socket=2
        )
    # ...while a declared-bool field accepts exactly bools.
    make_event(
        "fault_activation", step=1, t=0.1, fault="X", activating=False
    )
    with pytest.raises(ObservabilityError):
        make_event(
            "fault_activation", step=1, t=0.1, fault="X", activating=1
        )


def test_float_fields_accept_ints():
    make_event("placement", step=3, t=0, job_id=7, socket=2)


def test_non_finite_floats_rejected():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ObservabilityError, match="non-finite"):
            make_event(
                "placement", step=3, t=bad, job_id=7, socket=2
            )


def test_extra_fields_allowed():
    """Schema evolution contract: writers may attach extra context."""
    event = make_event(
        "placement", step=3, t=0.003, job_id=7, socket=2, note="hot"
    )
    validate_event(event)


def test_version_mismatch_rejected():
    event = make_event("sweep_end", n_points=4)
    event["v"] = SCHEMA_VERSION + 1
    with pytest.raises(ObservabilityError, match="schema version"):
        validate_event(event)


def test_non_mapping_rejected():
    with pytest.raises(ObservabilityError, match="must be an object"):
        validate_event(["not", "an", "event"])


def test_bus_validates_once_and_shares_one_dict(monkeypatch):
    """Two subscribers: one make_event call per event, and both get the
    same dict."""
    calls = []

    def counting(type_, **fields):
        calls.append(type_)
        return make_event(type_, **fields)

    monkeypatch.setattr(obs_events, "make_event", counting)
    first, second = [], []
    bus = EventBus()
    bus.subscribe(first.append)
    bus.subscribe(second.append)
    bus.emit("placement", step=1, t=0.001, job_id=4, socket=2)
    bus.emit("sweep_end", n_points=3)
    assert calls == ["placement", "sweep_end"]
    assert len(first) == 2
    assert all(a is b for a, b in zip(first, second))
    assert first[1] == {"v": SCHEMA_VERSION, "type": "sweep_end", "n_points": 3}


def test_bus_validates_with_no_subscriber():
    with pytest.raises(ObservabilityError, match="missing required"):
        EventBus().emit("placement", step=3, t=0.003, job_id=7)
