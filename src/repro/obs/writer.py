"""Buffered JSONL event log writer and its reader.

The writer's contract, in order of importance:

1. **Never perturb the simulation.**  ``emit`` encodes the event and
   writes it to a buffered file on the caller's thread; it only reads
   the event.  A telemetry-enabled run is bit-identical to a
   telemetry-off run (pinned by the fingerprint oracle tests).
2. **Truncation safety.**  Lines are canonical one-line JSON documents
   flushed to the OS every 64 events, so a run killed with SIGKILL
   leaves a log whose every complete line parses; at most the final
   line is partial, and :func:`iter_events` tolerates exactly that (a
   corrupt *interior* line is real corruption and always raises).
3. **Deterministic bytes.**  Events are serialised with sorted keys and
   fixed separators, so the same event stream always produces the same
   file bytes — logs can be diffed and fingerprinted.

``NaN``/``Infinity`` are rejected (``allow_nan=False``): a non-finite
value would serialise to non-portable JSON and break every downstream
parser.  An event that cannot be encoded raises from
:meth:`JsonlWriter.emit`, at its source, and writes nothing.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterator, List

from ..errors import ObservabilityError
from .events import validate_event

#: Lines written between flushes to the OS.
_FLUSH_LINES = 64


def encode_event(event: dict) -> bytes:
    """The canonical one-line serialisation of one event.

    Raises:
        ObservabilityError: if the event contains non-finite floats or
            values JSON cannot represent.
    """
    try:
        text = json.dumps(
            event, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except (TypeError, ValueError) as exc:
        raise ObservabilityError(
            f"event is not JSON-serialisable: {exc}"
        ) from exc
    return text.encode("utf-8") + b"\n"


class JsonlWriter:
    """Append-only JSONL writer; ``emit`` writes on the caller's thread.

    Attributes:
        path: The log file (parent directories are created).
    """

    def __init__(self, path, append: bool = False) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._since_flush = 0
        self._file = open(self.path, "ab" if append else "wb")
        if append and self.path.stat().st_size > 0:
            # Terminate a truncated tail from an interrupted previous
            # writer so old and new lines cannot fuse into one corrupt
            # record.
            with open(self.path, "rb") as handle:
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    self._file.write(b"\n")

    def emit(self, event: dict) -> None:
        """Encode one event and write it to the buffered file.

        Raises:
            ObservabilityError: if the writer is already closed, or the
                event cannot be encoded (nothing is written then).
        """
        if self._file.closed:
            raise ObservabilityError(
                f"telemetry writer for {self.path} is closed"
            )
        self._file.write(encode_event(event))
        self._since_flush += 1
        if self._since_flush >= _FLUSH_LINES:
            self._file.flush()
            self._since_flush = 0

    def close(self) -> None:
        """Flush and close the file (idempotent)."""
        self._file.close()

    def __enter__(self) -> "JsonlWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def iter_events(
    path, strict: bool = False, validate: bool = False
) -> Iterator[dict]:
    """Yield every event of one JSONL log, tolerating a truncated tail.

    A log written by :class:`JsonlWriter` can end in a partial line if
    the writing process was killed mid-write; that final fragment is
    silently dropped unless ``strict`` is set.  A malformed line
    anywhere *before* the end is corruption, not truncation, and always
    raises.

    Args:
        path: The ``.jsonl`` file to read.
        strict: Also raise on a truncated final line.
        validate: Check every event against the schema
            (:func:`repro.obs.events.validate_event`).

    Raises:
        ObservabilityError: on interior corruption, strict-mode
            truncation, or (with ``validate``) a schema violation.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ObservabilityError(
            f"cannot read telemetry log {path}: {exc}"
        ) from exc
    lines = data.split(b"\n")
    # A well-formed log ends with a newline, leaving one empty tail
    # element; anything else in the tail slot is a truncated fragment.
    tail = lines.pop()
    if tail and strict:
        raise ObservabilityError(
            f"telemetry log {path} ends in a truncated line "
            f"({len(tail)} bytes)"
        )
    for number, raw in enumerate(lines, start=1):
        if not raw:
            continue
        try:
            event = json.loads(raw)
        except ValueError as exc:
            raise ObservabilityError(
                f"telemetry log {path} line {number} is corrupt: {exc}"
            ) from exc
        if validate:
            try:
                validate_event(event)
            except ObservabilityError as exc:
                raise ObservabilityError(
                    f"telemetry log {path} line {number}: {exc}"
                ) from exc
        yield event


def read_events(
    path, strict: bool = False, validate: bool = False
) -> List[dict]:
    """Materialised :func:`iter_events`."""
    return list(iter_events(path, strict=strict, validate=validate))
