"""On-disk sweep checkpoints for crash-resilient, resumable sweeps.

A long sweep that dies at point 180 of 200 — a worker segfault, an OOM
kill, a pre-empted batch job — should not recompute the 179 finished
points.  :class:`SweepCheckpoint` persists each completed point as one
pickle file named by the point's full configuration key (see
:func:`repro.sim.parallel.config_key`), so a re-run with the same
configuration reloads every finished point and only simulates the
remainder.  Because every point is deterministic in its configuration,
a resumed sweep is bit-identical to an uninterrupted one.

Durability properties:

- **Atomic writes.** Each result is pickled to a temporary file in the
  checkpoint directory and moved into place with :func:`os.replace`,
  so a crash mid-write never leaves a truncated checkpoint under the
  final name.
- **Corruption tolerance.** A checkpoint that fails to unpickle (e.g.
  a stray partial file from a hard power loss) is deleted and treated
  as a miss — the point is simply recomputed.
- **Keyed by content, not position.** Files are named by the config
  key, so reordering the sweep grid, changing its size, or sharing one
  directory between overlapping sweeps all resume correctly.

Checkpoints store full :class:`~repro.sim.results.SimulationResult`
objects and are only meant to be read back by the same code version
that wrote them.  Each point may carry a ``<key>.manifest.json``
provenance sidecar (a :class:`~repro.obs.manifest.RunManifest`): the
full recipe — parameters, topology, fault schedule, package version,
result fingerprint — readable without unpickling anything.  The
manifest doubles as the version guard: a checkpoint whose sidecar was
written by a different package version is dropped and recomputed
instead of silently deserialising stale state.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path
from typing import Optional

from ..errors import CheckpointCorruptionError, SimulationError
from .results import SimulationResult

#: Suffix of finished-point files inside a checkpoint directory.
CHECKPOINT_SUFFIX = ".ckpt.pkl"


class SweepCheckpoint:
    """A directory of per-point sweep checkpoints.

    Attributes:
        directory: Where point files live (created on first use).
        expected_type: The class every checkpointed payload must be an
            instance of (:class:`~repro.sim.results.SimulationResult`
            for sweep points; the fleet layer stores chassis snapshots
            in the same container).
        loads: Points answered from disk so far.
        saves: Points persisted to disk so far.
        dropped: Corrupt files deleted and recomputed.
    """

    def __init__(self, directory, expected_type: type = SimulationResult):
        self.directory = Path(directory)
        if self.directory.exists() and not self.directory.is_dir():
            raise SimulationError(
                f"checkpoint path {self.directory} is not a directory"
            )
        self.expected_type = expected_type
        self.loads = 0
        self.saves = 0
        self.dropped = 0

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}{CHECKPOINT_SUFFIX}"

    def manifest_path(self, key: str) -> Path:
        """Where the point's provenance sidecar lives (if written)."""
        from ..obs.manifest import MANIFEST_SUFFIX

        return self.directory / f"{key}{MANIFEST_SUFFIX}"

    def load_manifest(self, key: str):
        """The point's :class:`~repro.obs.manifest.RunManifest`, if any.

        Returns ``None`` when no sidecar exists.  Raises
        :class:`~repro.errors.ObservabilityError` for a sidecar that
        exists but is malformed.
        """
        from ..obs.manifest import RunManifest

        path = self.manifest_path(key)
        if not path.exists():
            return None
        return RunManifest.read(path)

    def _drop(self, key: str) -> None:
        """Delete a poisoned point (checkpoint and sidecar) quietly."""
        self.dropped += 1
        for path in (self._path(key), self.manifest_path(key)):
            try:
                path.unlink()
            except OSError:  # pragma: no cover - unlink race
                pass

    def _read(self, key: str):
        """Load and verify one checkpoint, raising on anything suspect.

        Raises:
            CheckpointCorruptionError: naming the offending file, for a
                checkpoint that fails to unpickle, holds the wrong
                payload type, carries a malformed manifest sidecar, or
                was written by an incompatible package version.
        """
        path = self._path(key)
        if not path.exists():
            return None
        try:
            with open(path, "rb") as handle:
                result = pickle.load(handle)
        except Exception as exc:
            raise CheckpointCorruptionError(
                path, f"unpickling failed ({type(exc).__name__}: {exc})"
            ) from exc
        if not isinstance(result, self.expected_type):
            raise CheckpointCorruptionError(
                path,
                f"expected a {self.expected_type.__name__} payload, "
                f"got {type(result).__name__}",
            )
        # Version guard: a sidecar from another package version marks
        # the pickle as written by incompatible code.
        from ..errors import ObservabilityError

        try:
            manifest = self.load_manifest(key)
        except ObservabilityError as exc:
            raise CheckpointCorruptionError(
                self.manifest_path(key), str(exc)
            ) from exc
        if manifest is not None and not manifest.version_compatible:
            raise CheckpointCorruptionError(
                path,
                "manifest sidecar was written by an incompatible "
                "package version",
            )
        return result

    def load(self, key: str) -> Optional[SimulationResult]:
        """The checkpointed result for ``key``, or ``None``.

        A file that exists but cannot be unpickled — or whose manifest
        sidecar is malformed or was written by a different package
        version — is deleted and reported as a miss, so a half-written
        or stale checkpoint can never poison a sweep.  Use
        :meth:`load_strict` to surface the corruption instead.
        """
        try:
            result = self._read(key)
        except CheckpointCorruptionError:
            self._drop(key)
            return None
        if result is not None:
            self.loads += 1
        return result

    def load_strict(self, key: str) -> Optional[SimulationResult]:
        """Like :meth:`load`, but corruption raises instead of hiding.

        A missing checkpoint still returns ``None`` (a cold start is
        normal).  A checkpoint that exists but cannot be trusted raises
        :class:`~repro.errors.CheckpointCorruptionError` naming the
        offending path — after deleting the poisoned files, so the
        *next* recovery attempt starts cold instead of tripping over
        the same corpse.  The fleet supervisor maps this error to a
        cold restart rather than crashing.
        """
        try:
            result = self._read(key)
        except CheckpointCorruptionError:
            self._drop(key)
            raise
        if result is not None:
            self.loads += 1
        return result

    def save(self, key: str, result: SimulationResult, manifest=None) -> None:
        """Persist one finished point atomically.

        The pickle is written to a temporary file in the same directory
        and renamed over the final path, so readers only ever see
        complete checkpoints.  An optional
        :class:`~repro.obs.manifest.RunManifest` is written (also
        atomically) as the point's ``.manifest.json`` sidecar.

        Raises:
            SimulationError: if the checkpoint directory or files
                cannot be written.
        """
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                prefix=".tmp-",
                suffix=CHECKPOINT_SUFFIX,
                dir=self.directory,
            )
        except OSError as exc:
            raise SimulationError(
                f"cannot write checkpoints under {self.directory}: {exc}"
            ) from exc
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(result, handle, pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        if manifest is not None:
            manifest.save(self.manifest_path(key))
        self.saves += 1

    def __len__(self) -> int:
        """Number of finished points currently on disk."""
        if not self.directory.is_dir():
            return 0
        return sum(
            1
            for name in os.listdir(self.directory)
            if name.endswith(CHECKPOINT_SUFFIX)
            and not name.startswith(".tmp-")
        )
