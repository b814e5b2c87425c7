"""On-disk artifact workspace: content-keyed, atomic, thread-safe.

An :class:`ArtifactStore` lays artifacts out as
``<root>/<kind>/<key>.json`` with canonical encoding, so a workspace
directory is diffable, rsync-able and byte-identical for identical
content regardless of which process, thread or batch worker wrote it.
Writes go through a temporary file in the target directory followed by
an atomic rename, which makes concurrent writers of the *same* key safe:
the loser overwrites the winner with identical bytes.

:class:`PersistentEvaluationCache` plugs the store under the
design-space exploration engine's in-memory
:class:`~repro.flow.dse.EvaluationCache`, making evaluation outcomes
durable across processes: a cold process re-running a sweep against the
same workspace performs zero mapping analyses.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.artifacts.schema import (
    ArtifactError,
    canonical_json,
    check_envelope,
    from_payload,
    to_payload,
)
from repro.flow.dse import EvaluationCache, EvaluationOutcome

_SAFE_KEY_CHARS = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_."
)


def _check_component(value: str, what: str) -> str:
    if not value or not set(value) <= _SAFE_KEY_CHARS or value[0] == ".":
        raise ArtifactError(
            f"unsafe artifact {what} {value!r}; use "
            "[A-Za-z0-9._-] and no leading dot"
        )
    return value


def atomic_write_text(target: Path, text: str) -> None:
    """Write ``text`` to ``target`` via tmpfile + atomic rename.

    Concurrent writers of the same path are safe: readers only ever see
    a complete document, and the last writer wins.  Shared by the store
    and the session/batch report writers.
    """
    try:
        fd, tmp_name = tempfile.mkstemp(
            prefix=".tmp-", suffix=".json", dir=str(target.parent)
        )
    except OSError as error:
        raise ArtifactError(
            f"cannot write {target}: {error}"
        ) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class ArtifactStore:
    """A directory of canonical artifacts, addressed by (kind, key)."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise ArtifactError(
                f"cannot create artifact workspace {self.root}: {error}"
            ) from None

    # ------------------------------------------------------------------
    # addressing
    # ------------------------------------------------------------------
    def path_for(self, kind: str, key: str) -> Path:
        return (
            self.root
            / _check_component(kind, "kind")
            / f"{_check_component(key, 'key')}.json"
        )

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def put(self, kind: str, key: str, payload: Dict[str, Any]) -> Path:
        """Write one artifact atomically; returns its path.

        The payload must already be enveloped (``schema_version`` +
        ``kind``); the envelope kind must match the addressed kind so a
        store can never hand back an object of an unexpected type.
        """
        check_envelope(payload, kind)
        target = self.path_for(kind, key)
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise ArtifactError(
                f"cannot write artifact {target}: {error}"
            ) from None
        atomic_write_text(target, canonical_json(payload) + "\n")
        return target

    def get(self, kind: str, key: str) -> Optional[Dict[str, Any]]:
        """Read one artifact payload, or ``None`` when absent.

        Corrupt documents -- truncated or otherwise unparseable JSON, or
        a missing envelope -- also read as *absent*: store writes are
        atomic, so a corrupt file can only come from outside (a torn
        copy, a filled disk, a crashed foreign writer), and the safe
        response is a cache miss that recomputes and atomically rewrites
        the entry rather than an exception that wedges every consumer of
        the workspace.  Two failure modes still raise deliberately: a
        *newer* ``schema_version`` (the file is healthy; this build is
        too old to read it) and an envelope ``kind`` mismatch (an
        addressing bug in the caller, not data corruption).
        """
        document = self._read_document(kind, key)
        return None if document is None else document[1]

    def get_text(self, kind: str, key: str) -> Optional[str]:
        """The exact on-disk text of one artifact, or ``None``.

        The flow service's read-through: the document is validated (it
        must parse and carry the right envelope; corrupt files read as
        absent, exactly like :meth:`get`) but served verbatim, so a
        response built from ``get_text`` is byte-identical to the stored
        canonical artifact.
        """
        document = self._read_document(kind, key)
        return None if document is None else document[0]

    def _read_document(
        self, kind: str, key: str
    ) -> Optional[Tuple[str, Dict[str, Any]]]:
        """(text, validated payload) of one artifact; absent/corrupt -> None."""
        target = self.path_for(kind, key)
        try:
            text = target.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError as error:
            raise ArtifactError(
                f"cannot read artifact {target}: {error}"
            ) from None
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            return None  # corrupt: treated as a miss (see get())
        checked = check_envelope(payload, kind, lenient=True)
        if checked is None:
            return None  # envelope missing/mangled: also corrupt
        return text, checked

    def has(self, kind: str, key: str) -> bool:
        return self.path_for(kind, key).exists()

    def put_object(self, key: str, obj: Any) -> Path:
        """Serialize a domain object under its own kind."""
        payload = to_payload(obj)
        return self.put(payload["kind"], key, payload)

    def get_object(self, kind: str, key: str) -> Optional[Any]:
        """Read and decode one artifact, or ``None`` when absent."""
        payload = self.get(kind, key)
        return None if payload is None else from_payload(payload)

    # ------------------------------------------------------------------
    # enumeration
    # ------------------------------------------------------------------
    def kinds(self) -> Tuple[str, ...]:
        if not self.root.exists():
            return ()
        return tuple(
            sorted(p.name for p in self.root.iterdir() if p.is_dir())
        )

    def keys(self, kind: str) -> Tuple[str, ...]:
        directory = self.root / _check_component(kind, "kind")
        if not directory.exists():
            return ()
        return tuple(
            sorted(
                p.stem
                for p in directory.glob("*.json")
                if not p.name.startswith(".")
            )
        )

    def __len__(self) -> int:
        return sum(len(self.keys(kind)) for kind in self.kinds())


class PersistentEvaluationCache(EvaluationCache):
    """An :class:`EvaluationCache` write-through-backed by a store.

    Lookups hit the in-memory map first, then the workspace; misses that
    later complete are written to both.  Because keys are the content
    addresses of :func:`repro.flow.fingerprint.evaluation_key`, any
    process pointing at the same workspace shares the cache -- the
    "durable across processes" half of the FlowSession resume story.
    Disk hits count as cache hits in :attr:`stats`.
    """

    KIND = "evaluation-outcome"

    def __init__(self, store: ArtifactStore) -> None:
        super().__init__()
        self.artifacts = store

    def get(self, key: str) -> Optional[EvaluationOutcome]:
        with self._lock:
            outcome = self._store.get(key)
            if outcome is not None:
                self.stats.hits += 1
                return outcome
        payload = self.artifacts.get(self.KIND, key)
        if payload is not None:
            outcome = from_payload(payload)
            with self._lock:
                self._store[key] = outcome
                self.stats.hits += 1
            return outcome
        with self._lock:
            self.stats.misses += 1
        return None

    def put(self, key: str, outcome: EvaluationOutcome) -> None:
        super().put(key, outcome)
        self.artifacts.put(self.KIND, key, to_payload(outcome))
