"""Accounted temp files for spilled operator state.

Spill files follow the same simulation stance as the rest of the storage
layer (:mod:`repro.storage.disk`): row payloads stay in process memory —
queries run on real in-memory data — while every write, read and delete
is accounted against the owning slice's :class:`SimulatedDisk`. That
makes spill IO first-class for every existing failure mode: a
``DISK_MEDIA_WINDOW`` fault hits spill reads and writes exactly like
block IO and is recovered the same way (see :class:`SpillManager`); a
failed disk refuses spill IO; a full disk — real capacity or an injected
``DISK_FULL`` window — raises a typed
:class:`~repro.errors.SpillCapacityError` so WLM can shed the query
cleanly; and ``used_bytes`` includes live temp space until the owning
:class:`SpillManager` reclaims it at end of query.
"""

from __future__ import annotations

from functools import partial

from repro.errors import SpillCapacityError
from repro.storage.disk import SimulatedDisk


class SpillFile:
    """One temp file of spilled rows on a slice's disk.

    Rows accumulate via :meth:`write` (each call is one accounted disk
    write), come back in write order via :meth:`read` (one accounted
    read of everything written), and the accounted bytes are released by
    :meth:`release` — which the :class:`SpillManager` guarantees to call
    by end of query, success or abort.
    """

    def __init__(self, manager: "SpillManager", disk: SimulatedDisk, label: str):
        self._manager = manager
        self.disk = disk
        self.label = label
        self.rows: list = []
        self.bytes_written = 0
        self.released = False

    def write(self, rows: list, nbytes: int) -> None:
        """Append *rows*, accounting *nbytes* of temp space on the disk.

        Raises :class:`SpillCapacityError` when the disk has no room for
        the write (over capacity, or an injected ``DISK_FULL`` window) —
        the typed signal WLM converts into a clean shed, never a repair.
        A media error is recovered like a block charge's; a failed disk
        raises through.
        """
        disk = self.disk
        injector = self._manager.injector
        if injector is not None and injector.disk_full(disk.disk_id, nbytes):
            raise SpillCapacityError(
                disk.disk_id, nbytes, "disk_full fault window active"
            )
        if (
            disk.capacity_bytes is not None
            and disk.used_bytes + nbytes > disk.capacity_bytes
        ):
            raise SpillCapacityError(
                disk.disk_id,
                nbytes,
                f"{disk.used_bytes} of {disk.capacity_bytes} bytes used",
            )
        self._manager.recover(partial(disk.record_write, nbytes))
        self.rows.extend(rows)
        self.bytes_written += nbytes
        self._manager.bytes_written += nbytes

    def read(self) -> list:
        """All rows in write order; accounts one read of the file's bytes.

        An injected media error mid-read is recovered like a block
        charge's: the partition is read again once the handler approves.
        """
        self._manager.recover(partial(self.disk.record_read, self.bytes_written))
        self._manager.bytes_read += self.bytes_written
        return self.rows

    def release(self) -> None:
        """Reclaim the accounted temp space (idempotent, never raises)."""
        if not self.released:
            self.released = True
            self.disk.record_delete(self.bytes_written)


class SpillManager:
    """All spill files of one query, and their reclamation.

    The session creates one per SELECT and releases it in a
    ``finally`` — so temp bytes are reclaimed on success, on an
    error, on a WLM shed and on transaction abort alike, and leaked
    spill space cannot accumulate across a fleet simulation.

    *recover* runs each accounted read and write, the shape
    ``scan_blocks`` takes. The session passes its context's ``recover``,
    so a media error is repaired through the cluster's recovery handler
    and counted in ``stl_query.recoveries``; the default surfaces it.
    """

    def __init__(self, injector=None, recover=lambda op: op()):
        self.injector = injector
        self.recover = recover
        self._files: list[SpillFile] = []
        self.bytes_written = 0
        self.bytes_read = 0

    def create(self, disk: SimulatedDisk, label: str) -> SpillFile:
        spill_file = SpillFile(self, disk, label)
        self._files.append(spill_file)
        return spill_file

    def file_factory(self, disk: SimulatedDisk):
        """A ``label -> SpillFile`` factory bound to *disk* (the shape the
        spillable operator state in :mod:`repro.exec.spill` consumes)."""
        return lambda label: self.create(disk, label)

    @property
    def live_bytes(self) -> int:
        """Accounted temp bytes not yet reclaimed."""
        return sum(f.bytes_written for f in self._files if not f.released)

    def release_all(self) -> None:
        """Reclaim every spill file of the query (idempotent)."""
        for spill_file in self._files:
            spill_file.release()
