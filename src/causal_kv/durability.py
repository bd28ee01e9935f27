"""Append-only change log: local durability and full state reconstruction.

The log holds one canonical change object (hash field included) per line, in
application order, which is always a linear extension of the DAG: every line
prefix is dependency-closed, so a crash can at worst cost the torn final line.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path

from .engine import Change, Document, canonical_json_bytes, change_from_wire, change_to_wire

logger = logging.getLogger(__name__)

LOG_NAME = "changes.log"


def change_line(change: Change) -> bytes:
    return canonical_json_bytes(change_to_wire(change)) + b"\n"


class ChangeLog:
    """Single-writer append-only log under one data directory."""

    def __init__(self, directory: str | Path, fsync: bool = False):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / LOG_NAME
        self.fsync = fsync
        self._fh = None

    def _handle(self):
        if self._fh is None:
            created = not self.path.exists()
            self._fh = open(self.path, "ab")
            if created:
                self._sync_directory()
        return self._fh

    def _sync_directory(self) -> None:
        """In fsync mode, make creating or cutting back the log survive a crash."""
        if self.fsync:
            fd = os.open(self.directory, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)

    def append(self, change: Change) -> None:
        """Write one change and, in flush-per-change mode, force it to stable storage."""
        fh = self._handle()
        fh.write(change_line(change))
        fh.flush()
        if self.fsync:
            os.fsync(fh.fileno())

    def load(self) -> Document:
        """Replay the log into a fresh document, truncating at the first corrupt line.

        A torn final write after a crash is expected: the file is cut back to the
        last good line so future appends stay well-formed.
        """
        doc = Document()
        if not self.path.exists():
            return doc
        good_bytes = 0
        with open(self.path, "rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.endswith(b"\n"):
                    logger.warning("%s: torn final line %d dropped", self.path, lineno)
                    break
                try:
                    change = change_from_wire(json.loads(line))
                    status, _ = doc.apply_remote(change)
                except Exception as exc:
                    logger.warning("%s: corrupt line %d (%s); truncating", self.path, lineno, exc)
                    break
                if status == "buffered":
                    logger.warning("%s: line %d out of dependency order; truncating", self.path, lineno)
                    break
                good_bytes += len(line)
        if good_bytes < self.path.stat().st_size:
            self.close()
            with open(self.path, "ab") as fh:
                fh.truncate(good_bytes)
            self._sync_directory()
        return doc

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
