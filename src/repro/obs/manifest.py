"""Per-run provenance manifests: any artifact can name its exact run.

A :class:`RunManifest` is the machine-readable recipe that produced
one simulation result: the full simulation parameters, the topology
construction recipe, the scheduler/benchmark-set/load point, the fault
schedule (content plus fingerprint), the package version and — when
available — ``git describe``.  Manifests ride along with sweep
checkpoints (``<key>.manifest.json`` beside ``<key>.ckpt.pkl``) and
telemetry directories, so a figure traced back to its artifact can be
re-run *from the manifest alone* and reproduce the identical result
fingerprint (:func:`rerun_from_manifest`, pinned by tests).

Reconstruction scope: the standard experiment stack — any
:class:`~repro.server.topology.ServerTopology` built from scalar
geometry with the alternating-sink rule (which includes every
``moonshot_sut`` variant) and any registered processor/scheduler.
Exotic topologies (uniform-sink ablations, per-site sink callables)
still get a manifest, but with ``topology.reconstructible = false``
and only the content token recorded; re-running those raises a clean
:class:`~repro.errors.ObservabilityError`.  Reconstruction is *proven*
at manifest-build time by rebuilding the topology and comparing
content tokens — a manifest never claims a recipe it cannot replay.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import os
import subprocess
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .._version import __version__
from ..errors import ObservabilityError
from .events import SCHEMA_VERSION

#: Version of the manifest file format itself.
MANIFEST_VERSION = 1

#: Suffix of manifest files beside checkpoints and telemetry logs.
MANIFEST_SUFFIX = ".manifest.json"


@functools.lru_cache(maxsize=1)
def git_describe() -> Optional[str]:
    """``git describe --always --dirty`` of the source tree, if any.

    Cached per process — a sweep writing hundreds of manifests must
    not fork a ``git`` subprocess per point.
    """
    try:
        completed = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5.0,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    description = completed.stdout.strip()
    return description or None


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce (and verify) one run.

    Attributes:
        config_key: The sweep cache/checkpoint key of the point (see
            :func:`repro.sim.parallel.config_key`).
        scheduler: Registered scheduler name.
        benchmark_set: Benchmark set value (e.g. ``"Computation"``).
        load: Offered load in (0, 1].
        seed: Workload seed (duplicated from ``params`` for grep-ability).
        params: Full :class:`~repro.config.parameters.
            SimulationParameters` field dict.
        topology: Topology recipe: ``{"reconstructible": bool,
            "token_sha256": str, ...scalar geometry...}``.
        fault: Fault schedule content (``fingerprint``, ``response``,
            ``events``), or ``None`` for fault-free runs.
        result_fingerprint: Content fingerprint of the produced result
            (see :func:`repro.sim.fingerprint.result_fingerprint`), or
            ``None`` if the manifest was built before the run.
        profile: The run's :class:`~repro.obs.profiler.RunProfile`
            digest, when profiling was enabled.
        manifest_version: Format version of this file.
        schema_version: Telemetry event schema version in force.
        package_version: ``repro`` package version that produced the
            artifact.
        git: ``git describe`` of the producing tree, if available.
    """

    config_key: str
    scheduler: str
    benchmark_set: str
    load: float
    seed: int
    params: dict
    topology: dict
    fault: Optional[dict] = None
    result_fingerprint: Optional[str] = None
    profile: Optional[dict] = None
    manifest_version: int = MANIFEST_VERSION
    schema_version: int = SCHEMA_VERSION
    package_version: str = __version__
    git: Optional[str] = field(default_factory=git_describe)

    # -- (de)serialisation ----------------------------------------------

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        if not isinstance(data, dict):
            raise ObservabilityError(
                f"manifest must be an object, got {type(data).__name__}"
            )
        if "stepping" in data:
            # Earlier builds recorded the engine stepping mode.  Their
            # fixed runs are exactly today's runs; the adaptive engine is
            # gone.
            data = dict(data)
            stepping = data.pop("stepping")
            if stepping != "fixed":
                raise ObservabilityError(
                    f"manifest was recorded with stepping {stepping!r}; "
                    f"the adaptive (multi-rate) engine was removed and "
                    f"only fixed-step runs can be replayed"
                )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ObservabilityError(
                f"manifest carries unknown fields {sorted(unknown)}"
            )
        try:
            return cls(**data)
        except TypeError as exc:
            raise ObservabilityError(
                f"malformed manifest: {exc}"
            ) from exc

    @property
    def version_compatible(self) -> bool:
        """Whether this build can faithfully replay the manifest."""
        return (
            self.manifest_version == MANIFEST_VERSION
            and self.package_version == __version__
        )

    def save(self, path) -> Path:
        """Write the manifest atomically (temp file + rename)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(
            self.to_dict(), indent=2, sort_keys=True
        ) + "\n"
        fd, tmp_name = tempfile.mkstemp(
            prefix=".tmp-", suffix=MANIFEST_SUFFIX, dir=path.parent
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    # Named ``read`` (not ``load``) because ``load`` is a data field —
    # the point's offered load — and dataclasses forbid the collision.
    @classmethod
    def read(cls, path) -> "RunManifest":
        """Read a manifest file.

        Raises:
            ObservabilityError: if the file is unreadable, not JSON, or
                not a well-formed manifest.
        """
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ObservabilityError(
                f"cannot read manifest {path}: {exc}"
            ) from exc
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ObservabilityError(
                f"manifest {path} is not valid JSON: {exc}"
            ) from exc
        return cls.from_dict(data)


# -- building -----------------------------------------------------------


def _processor_registry() -> dict:
    """Registered processors by marketing name."""
    from ..server import processors as processors_module
    from ..server.processors import ProcessorSpec

    registry = {}
    for value in vars(processors_module).values():
        if isinstance(value, ProcessorSpec):
            registry[value.name] = value
    return registry


def _topology_token_digest(topology) -> str:
    import hashlib

    from ..sim.parallel import topology_token

    return hashlib.sha256(topology_token(topology)).hexdigest()


def _topology_payload(topology) -> dict:
    """The topology recipe, proven reconstructible (or marked not)."""
    from ..sim.parallel import topology_token

    payload = {
        "token_sha256": _topology_token_digest(topology),
        "n_sockets": int(topology.n_sockets),
        "kind": type(topology).__name__,
        "processor": topology.processor.name,
        "n_rows": int(topology.n_rows),
        "lanes_per_row": int(topology.lanes_per_row),
        "chain_length": int(topology.chain_length),
        "sockets_per_cartridge_depth": int(
            topology.sockets_per_cartridge_depth
        ),
        "socket_airflow_cfm": float(topology.socket_airflow_cfm),
        "mixing_factor": float(topology.mixing_factor),
        "intra_cartridge_decay": float(topology.intra_cartridge_decay),
        "inter_cartridge_decay": float(topology.inter_cartridge_decay),
    }
    # Prove the recipe: rebuild from the scalars and compare content
    # tokens.  Uniform-sink / per-site-sink topologies fail this and
    # are marked non-reconstructible instead of silently lying.
    try:
        candidate = _topology_from_payload(
            dict(payload, reconstructible=True)
        )
        reconstructible = topology_token(candidate) == topology_token(
            topology
        )
    except Exception:
        reconstructible = False
    payload["reconstructible"] = reconstructible
    return payload


def _topology_from_payload(payload: dict):
    from ..server.topology import ServerTopology

    if not payload.get("reconstructible"):
        raise ObservabilityError(
            "manifest topology is not reconstructible (non-standard "
            "sink arrangement); only its content token was recorded"
        )
    processors = _processor_registry()
    name = payload["processor"]
    if name not in processors:
        raise ObservabilityError(
            f"manifest names unknown processor {name!r}"
        )
    return ServerTopology(
        n_rows=int(payload["n_rows"]),
        lanes_per_row=int(payload["lanes_per_row"]),
        chain_length=int(payload["chain_length"]),
        processor=processors[name],
        sockets_per_cartridge_depth=int(
            payload["sockets_per_cartridge_depth"]
        ),
        socket_airflow_cfm=float(payload["socket_airflow_cfm"]),
        mixing_factor=float(payload["mixing_factor"]),
        intra_cartridge_decay=float(payload["intra_cartridge_decay"]),
        inter_cartridge_decay=float(payload["inter_cartridge_decay"]),
    )


def _fault_payload(fault_schedule) -> Optional[dict]:
    if fault_schedule is None:
        return None
    events = []
    for event in fault_schedule.events:
        entry = {"kind": type(event).__name__}
        for key, value in dataclasses.asdict(event).items():
            entry[key] = value.value if isinstance(value, enum.Enum) else value
        events.append(entry)
    return {
        "fingerprint": fault_schedule.fingerprint(),
        "response": dataclasses.asdict(fault_schedule.response),
        "events": events,
    }


def _fault_from_payload(payload: Optional[dict]):
    if payload is None:
        return None
    from ..faults import events as fault_events
    from ..faults.events import SensorFaultMode
    from ..faults.schedule import FaultResponse, FaultSchedule

    kinds = {
        name: getattr(fault_events, name)
        for name in (
            "FanLaneFault",
            "SensorFault",
            "DVFSStuckFault",
            "SocketKillFault",
            "PowerCapFault",
        )
    }
    events = []
    for entry in payload.get("events", ()):
        entry = dict(entry)
        kind = entry.pop("kind", None)
        if kind not in kinds:
            raise ObservabilityError(
                f"manifest names unknown fault kind {kind!r}"
            )
        if "mode" in entry:
            entry["mode"] = SensorFaultMode(entry["mode"])
        try:
            events.append(kinds[kind](**entry))
        except TypeError as exc:
            raise ObservabilityError(
                f"malformed manifest fault event ({kind}): {exc}"
            ) from exc
    try:
        response = FaultResponse(**payload.get("response", {}))
    except TypeError as exc:
        raise ObservabilityError(
            f"malformed manifest fault response: {exc}"
        ) from exc
    schedule = FaultSchedule(events=tuple(events), response=response)
    recorded = payload.get("fingerprint")
    if recorded is not None and schedule.fingerprint() != recorded:
        raise ObservabilityError(
            "rebuilt fault schedule does not match the manifest's "
            "recorded fingerprint — the manifest was edited or is from "
            "an incompatible version"
        )
    return schedule


def _params_from_payload(payload: dict):
    from ..config.parameters import SimulationParameters

    known = {
        f.name for f in dataclasses.fields(SimulationParameters)
    }
    unknown = set(payload) - known
    if unknown:
        raise ObservabilityError(
            f"manifest parameters carry unknown fields "
            f"{sorted(unknown)} — written by an incompatible version"
        )
    try:
        return SimulationParameters(**payload)
    except TypeError as exc:
        raise ObservabilityError(
            f"malformed manifest parameters: {exc}"
        ) from exc


def manifest_for_point(
    topology,
    params,
    scheduler_name: str,
    benchmark_set,
    load: float,
    fault_schedule=None,
    result=None,
    profile=None,
) -> RunManifest:
    """Build the manifest of one fully specified sweep point.

    Args:
        result: Optional finished :class:`~repro.sim.results.
            SimulationResult`; its content fingerprint is recorded so
            the manifest can later *verify* a reproduction, not just
            perform one.
        profile: Optional :class:`~repro.obs.profiler.RunProfile` to
            embed.
    """
    from ..sim.parallel import config_key

    benchmark_value = getattr(benchmark_set, "value", str(benchmark_set))
    fingerprint = None
    if result is not None:
        from ..sim.fingerprint import result_fingerprint

        fingerprint = result_fingerprint(result)
    return RunManifest(
        config_key=config_key(
            topology,
            params,
            scheduler_name,
            benchmark_set,
            load,
            fault_schedule=fault_schedule,
        ),
        scheduler=scheduler_name,
        benchmark_set=benchmark_value,
        load=float(load),
        seed=int(params.seed),
        params=dataclasses.asdict(params),
        topology=_topology_payload(topology),
        fault=_fault_payload(fault_schedule),
        result_fingerprint=fingerprint,
        profile=profile.to_dict() if profile is not None else None,
    )


# -- replaying ----------------------------------------------------------


def rerun_from_manifest(manifest: RunManifest, audit: bool = False):
    """Re-run the exact simulation a manifest describes.

    Returns:
        The fresh :class:`~repro.sim.results.SimulationResult`.  When
        the manifest recorded a ``result_fingerprint``, the caller can
        compare it against :func:`repro.sim.fingerprint.
        result_fingerprint` of the returned result — they must match
        bit-for-bit on a compatible build.

    Raises:
        ObservabilityError: if the topology recipe is marked
            non-reconstructible or any manifest content is malformed.
    """
    from ..core import get_scheduler
    from ..sim.runner import run_once
    from ..workloads.benchmark import BenchmarkSet

    topology = _topology_from_payload(manifest.topology)
    params = _params_from_payload(manifest.params)
    fault_schedule = _fault_from_payload(manifest.fault)
    auditor = None
    if audit:
        from ..sim.invariants import InvariantAuditor

        auditor = InvariantAuditor()
    return run_once(
        topology,
        params,
        get_scheduler(manifest.scheduler),
        BenchmarkSet(manifest.benchmark_set),
        manifest.load,
        auditor=auditor,
        fault_schedule=fault_schedule,
    )


def verify_manifest(manifest: RunManifest) -> bool:
    """Re-run a manifest and check the recorded result fingerprint.

    Raises:
        ObservabilityError: if the manifest recorded no fingerprint
            (nothing to verify against) or cannot be replayed.
    """
    if manifest.result_fingerprint is None:
        raise ObservabilityError(
            "manifest records no result fingerprint to verify against"
        )
    from ..sim.fingerprint import result_fingerprint

    result = rerun_from_manifest(manifest)
    return result_fingerprint(result) == manifest.result_fingerprint
