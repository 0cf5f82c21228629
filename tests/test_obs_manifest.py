"""Provenance manifests: round-trips, guards, and true reproduction."""

import dataclasses
import json

import pytest

from repro.config.presets import smoke
from repro.core import get_scheduler
from repro.errors import ObservabilityError
from repro.faults.spec import parse_fault_spec
from repro.obs.manifest import (
    RunManifest,
    manifest_for_point,
    rerun_from_manifest,
    verify_manifest,
)
from repro.server.topology import moonshot_sut
from repro.sim.fingerprint import result_fingerprint
from repro.sim.runner import run_once
from repro.thermal import FIN_18
from repro.workloads.benchmark import BenchmarkSet


@pytest.fixture
def manifest(small_sut):
    return manifest_for_point(
        small_sut, smoke(seed=4), "CF", BenchmarkSet.COMPUTATION, 0.5
    )


# -- (de)serialisation -----------------------------------------------------


def test_round_trip_through_dict(manifest):
    assert RunManifest.from_dict(manifest.to_dict()) == manifest


def test_save_and_read(tmp_path, manifest):
    path = manifest.save(tmp_path / "run.manifest.json")
    assert RunManifest.read(path) == manifest


def test_unknown_fields_rejected(manifest):
    data = manifest.to_dict()
    data["surprise"] = 1
    with pytest.raises(ObservabilityError, match="unknown fields"):
        RunManifest.from_dict(data)


def test_read_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.manifest.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ObservabilityError, match="not valid JSON"):
        RunManifest.read(path)


def test_read_missing_file_raises(tmp_path):
    with pytest.raises(ObservabilityError, match="cannot read"):
        RunManifest.read(tmp_path / "absent.manifest.json")


def test_version_guard(manifest):
    assert manifest.version_compatible
    stale = dataclasses.replace(manifest, package_version="0.0.0-other")
    assert not stale.version_compatible


# -- recipe fidelity -------------------------------------------------------


def test_topology_recipe_proven_reconstructible(manifest, small_sut):
    topology = manifest.topology
    assert topology["reconstructible"] is True
    assert topology["n_sockets"] == small_sut.n_sockets
    assert topology["processor"] == small_sut.processor.name


def test_uniform_sink_topology_marked_non_reconstructible():
    """An ablation topology the scalar recipe cannot express must say
    so, and replaying it must fail cleanly rather than silently build
    the wrong machine."""
    exotic = moonshot_sut(n_rows=2, uniform_sink=FIN_18)
    manifest = manifest_for_point(
        exotic, smoke(seed=4), "CF", BenchmarkSet.COMPUTATION, 0.5
    )
    assert manifest.topology["reconstructible"] is False
    with pytest.raises(ObservabilityError, match="not reconstructible"):
        rerun_from_manifest(manifest)


def test_fault_schedule_round_trips(small_sut):
    schedule = parse_fault_spec(
        "fan:row=0,scale=0.5,start=2;kill:socket=3,start=4",
        topology=small_sut,
        horizon_s=10.0,
    )
    manifest = manifest_for_point(
        small_sut,
        smoke(seed=4),
        "CF",
        BenchmarkSet.COMPUTATION,
        0.5,
        fault_schedule=schedule,
    )
    assert manifest.fault["fingerprint"] == schedule.fingerprint()
    # A fingerprint survives the JSON round-trip...
    rebuilt = RunManifest.from_dict(
        json.loads(json.dumps(manifest.to_dict()))
    )
    assert rebuilt.fault == manifest.fault


def test_tampered_fault_payload_rejected(small_sut):
    schedule = parse_fault_spec(
        "kill:socket=3,start=4", topology=small_sut, horizon_s=10.0
    )
    manifest = manifest_for_point(
        small_sut,
        smoke(seed=4),
        "CF",
        BenchmarkSet.COMPUTATION,
        0.5,
        fault_schedule=schedule,
    )
    data = manifest.to_dict()
    data["fault"]["events"][0]["start_s"] = 5.0  # edit the schedule...
    tampered = RunManifest.from_dict(data)  # ...but not the fingerprint
    with pytest.raises(ObservabilityError, match="fingerprint"):
        rerun_from_manifest(tampered)


# -- the reproduction contract ---------------------------------------------


def test_manifest_reproduces_identical_fingerprint(small_sut):
    """The tentpole promise: a result's manifest alone re-runs the
    simulation to a bit-identical fingerprint."""
    params = smoke(seed=4)
    result = run_once(
        small_sut, params, get_scheduler("CP"), BenchmarkSet.COMPUTATION, 0.6
    )
    manifest = manifest_for_point(
        small_sut,
        params,
        "CP",
        BenchmarkSet.COMPUTATION,
        0.6,
        result=result,
    )
    assert manifest.result_fingerprint == result_fingerprint(result)
    assert verify_manifest(manifest)


def test_legacy_fixed_stepping_field_replays(tmp_path, small_sut):
    """Manifests from builds with a stepping mode recorded
    ``"stepping": "fixed"``; they still read and verify."""
    params = smoke(seed=4)
    result = run_once(
        small_sut, params, get_scheduler("CF"), BenchmarkSet.COMPUTATION, 0.5
    )
    manifest = manifest_for_point(
        small_sut,
        params,
        "CF",
        BenchmarkSet.COMPUTATION,
        0.5,
        result=result,
    )
    legacy = {**manifest.to_dict(), "stepping": "fixed"}
    path = tmp_path / "legacy.manifest.json"
    path.write_text(json.dumps(legacy, indent=2, sort_keys=True) + "\n")
    loaded = RunManifest.read(path)
    assert loaded == manifest
    assert verify_manifest(loaded)


def test_legacy_adaptive_stepping_rejected(manifest):
    legacy = {**manifest.to_dict(), "stepping": "adaptive"}
    with pytest.raises(ObservabilityError, match="multi-rate"):
        RunManifest.from_dict(legacy)


def test_verify_without_fingerprint_raises(manifest):
    with pytest.raises(ObservabilityError, match="no result fingerprint"):
        verify_manifest(manifest)
