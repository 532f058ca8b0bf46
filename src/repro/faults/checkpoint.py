"""Chunked campaign checkpoints: crash-safe save, fingerprinted resume.

A checkpointed campaign executes its sessions in fixed-size chunks and
persists each finished chunk with an atomic tmp+rename write before moving
on.  Killing the process at *any* chunk boundary therefore leaves a
directory from which the same campaign resumes — loading the surviving
chunks instead of re-running them — and, because every source of
randomness is derived per-participant rather than from execution order,
the resumed run's results are byte-identical to an uninterrupted run.

The manifest pins the campaign *fingerprint* (config identity, chunking,
participant count, fault plan).  Resuming with a different fingerprint
raises :class:`~repro.errors.CheckpointError` instead of silently mixing
two campaigns' state.
"""

from __future__ import annotations

import json
import os
import pickle
from pathlib import Path
from typing import Dict, Optional

from ..errors import CheckpointError

#: Format tag of checkpoint manifests; bumped on incompatible layout changes.
CHECKPOINT_FORMAT = "campaign-checkpoint-v2"

#: Zero-padded width of chunk indices in chunk file names.  Eight digits keep
#: lexicographic name order equal to numeric chunk order up to 100 million
#: chunks — the regime million-participant streaming campaigns enter.
CHUNK_INDEX_DIGITS = 8

_MANIFEST_NAME = "manifest.json"


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (tmp file + ``os.replace``).

    Readers never observe a partial file: they see either the old content
    or the new content.  A crash mid-write leaves only a ``.tmp`` file,
    which rebuild/fsck tooling recognises as debris.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


class CheckpointStore:
    """One campaign's chunk checkpoint directory.

    Args:
        root: directory to checkpoint into (created if missing).
        fingerprint: JSON-serialisable identity of the campaign being
            checkpointed.  A pre-existing manifest with a different
            fingerprint makes the constructor raise
            :class:`~repro.errors.CheckpointError`.
    """

    def __init__(self, root, fingerprint: Dict[str, object]) -> None:
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        self.fingerprint = json.loads(json.dumps(fingerprint, sort_keys=True))
        manifest_path = self.root / _MANIFEST_NAME
        if manifest_path.exists():
            try:
                manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as exc:
                raise CheckpointError(
                    f"unreadable checkpoint manifest at {manifest_path}: {exc}"
                ) from exc
            if manifest.get("format") != CHECKPOINT_FORMAT:
                raise CheckpointError(
                    f"checkpoint at {self.root} has format "
                    f"{manifest.get('format')!r}, expected {CHECKPOINT_FORMAT!r}"
                )
            stored = manifest.get("fingerprint")
            if stored != self.fingerprint:
                raise CheckpointError(
                    f"checkpoint at {self.root} belongs to a different campaign "
                    f"run; refusing to resume (stored fingerprint {stored!r} != "
                    f"expected {self.fingerprint!r})"
                )
        else:
            payload = json.dumps(
                {"format": CHECKPOINT_FORMAT, "fingerprint": self.fingerprint},
                sort_keys=True, indent=2,
            ).encode("utf-8")
            atomic_write_bytes(manifest_path, payload)

    # -- chunk IO ----------------------------------------------------------------

    def _chunk_path(self, index: int) -> Path:
        return self.root / f"chunk-{index:0{CHUNK_INDEX_DIGITS}d}.pkl"

    def has_chunk(self, index: int) -> bool:
        """Whether chunk ``index`` was checkpointed by a previous run."""
        return self._chunk_path(index).exists()

    def save_chunk(self, index: int, results: object) -> None:
        """Atomically persist the results of chunk ``index``.

        ``results`` is any picklable payload; the campaign engine stores a
        ``{"pids": [...], "results": [...]}`` envelope so a resumed run can
        verify each chunk against its recomputed roster slice.
        """
        atomic_write_bytes(
            self._chunk_path(index),
            pickle.dumps(results, protocol=pickle.HIGHEST_PROTOCOL),
        )

    def load_chunk(self, index: int) -> object:
        """Load a previously checkpointed chunk.

        Raises:
            CheckpointError: when the chunk file is missing or unreadable.
        """
        path = self._chunk_path(index)
        try:
            with path.open("rb") as handle:
                return pickle.load(handle)
        except FileNotFoundError as exc:
            raise CheckpointError(f"checkpoint chunk {index} missing at {path}") from exc
        except Exception as exc:  # pickle raises a zoo of exception types
            raise CheckpointError(
                f"checkpoint chunk {index} at {path} is unreadable: {exc}"
            ) from exc

    def completed_chunks(self, total: Optional[int] = None) -> int:
        """Count of contiguously checkpointed chunks starting at 0."""
        count = 0
        while (total is None or count < total) and self.has_chunk(count):
            count += 1
        return count
