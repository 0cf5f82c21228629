"""Provenance manifests: round-trips, guards and recorded recipes."""

import dataclasses
import hashlib
import json

import pytest

from repro.config.parameters import SimulationParameters
from repro.config.presets import smoke
from repro.core import get_scheduler
from repro.errors import ObservabilityError
from repro.faults.spec import parse_fault_spec
from repro.obs.manifest import RunManifest, manifest_for_point
from repro.server.topology import ServerTopology
from repro.sim.fingerprint import result_fingerprint
from repro.sim.parallel import topology_token
from repro.sim.runner import run_once
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
    """The recorded scalars rebuild the machine whose content token the
    manifest records."""
    topology = manifest.topology
    assert topology["n_sockets"] == small_sut.n_sockets
    assert topology["processor"] == small_sut.processor.name
    scalars = {
        key: topology[key]
        for key in (
            "n_rows",
            "lanes_per_row",
            "chain_length",
            "sockets_per_cartridge_depth",
            "socket_airflow_cfm",
            "mixing_factor",
            "intra_cartridge_decay",
            "inter_cartridge_decay",
        )
    }
    rebuilt = ServerTopology(processor=small_sut.processor, **scalars)
    token = hashlib.sha256(topology_token(rebuilt)).hexdigest()
    assert token == topology["token_sha256"]


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


# -- the recorded result ---------------------------------------------------


def test_manifest_reproduces_identical_fingerprint(small_sut):
    """The recorded recipe is complete: a run built from the manifest's
    fields reproduces the fingerprint it records."""
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
    again = run_once(
        small_sut,
        SimulationParameters(**manifest.params),
        get_scheduler(manifest.scheduler),
        BenchmarkSet(manifest.benchmark_set),
        manifest.load,
    )
    assert result_fingerprint(again) == manifest.result_fingerprint


def test_legacy_fixed_stepping_field_replays(tmp_path, small_sut):
    """Manifests from builds with a stepping mode recorded
    ``"stepping": "fixed"``; they still read."""
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
    assert RunManifest.read(path) == manifest


def test_legacy_adaptive_stepping_rejected(manifest):
    legacy = {**manifest.to_dict(), "stepping": "adaptive"}
    with pytest.raises(ObservabilityError, match="multi-rate"):
        RunManifest.from_dict(legacy)

