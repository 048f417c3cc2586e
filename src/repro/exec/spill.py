"""Memory-governed operator state: budgets and spill-to-disk structures.

The per-query :class:`MemoryBudget` (derived from the admitting WLM
queue's per-slot share, or set explicitly with ``SET query_memory_limit``)
is charged by the three operator-state structures that otherwise grow
without bound: hash-join build tables, aggregation state maps and sort
buffers. When a structure pushes the budget over its limit it spills to
accounted temp files (:mod:`repro.storage.spillfile`) on the owning
slice's simulated disk — grace-hash partitioning for hash state,
sorted-run generation with a k-way merge for sorts — and processes the
spilled partitions with bounded memory, releasing what it wrote.

Two invariants, enforced by the parity property suite:

* **Bit-identical results.** Spilled execution emits exactly the rows,
  in exactly the order, of unbounded execution. Hash-table key-list
  order, aggregate first-seen group order and sort stability are all
  preserved (spilled aggregate generations carry their first-seen
  sequence number; sorted runs merge stably).
* **Honest accounting.** Row payloads stay in process memory — the same
  simulation stance as :class:`~repro.storage.disk.SimulatedDisk` — but
  every spill write/read/delete is accounted on the disk, so media
  faults, capacity exhaustion and ``used_bytes`` behave exactly as they
  would for block IO, and the budget's ``peak_bytes`` traces the
  partition-at-a-time memory profile of a real grace-hash/merge-sort.
"""

from __future__ import annotations

import heapq
import zlib


class MemoryBudget:
    """Charge/release accounting for one query's operator state.

    ``limit_bytes`` of None means unbounded — the budget still tracks
    usage (``peak_bytes`` feeds the working-set measurements in bench
    a13) but nothing ever spills.
    """

    def __init__(self, limit_bytes: int | None = None):
        self.limit_bytes = limit_bytes
        self.used_bytes = 0
        self.peak_bytes = 0

    def charge(self, nbytes: int) -> None:
        self.used_bytes += nbytes
        if self.used_bytes > self.peak_bytes:
            self.peak_bytes = self.used_bytes

    def release(self, nbytes: int) -> None:
        self.used_bytes = max(0, self.used_bytes - nbytes)

    @property
    def over_budget(self) -> bool:
        return self.limit_bytes is not None and (
            self.used_bytes > self.limit_bytes
        )


#: Exact-type fast path for the scalar types the engine produces; the
#: sizes are deterministic estimates (platform-independent, so budgets
#: and spill accounting reproduce across runs and machines).
_SCALAR_NBYTES = {type(None): 8, bool: 8, int: 28, float: 24}


def value_nbytes(value: object) -> int:
    """Deterministic per-value size estimate."""
    nbytes = _SCALAR_NBYTES.get(type(value))
    if nbytes is not None:
        return nbytes
    if isinstance(value, bool):
        return 8
    if isinstance(value, int):
        return 28
    if isinstance(value, float):
        return 24
    if isinstance(value, str):
        return 49 + len(value)
    if isinstance(value, (tuple, list)):
        return 24 + sum(value_nbytes(v) for v in value)
    return 48


def row_nbytes(row) -> int:
    """Estimated in-memory bytes of one row/key tuple or state list.

    Called once per inserted row/key on every governed operator — the
    plain loop with the exact-type table is measurably faster than
    ``sum`` over a generator of :func:`value_nbytes` calls.
    """
    total = 24
    scalars = _SCALAR_NBYTES
    for value in row:
        nbytes = scalars.get(type(value))
        total += nbytes if nbytes is not None else value_nbytes(value)
    return total


def partition_of(key, partitions: int) -> int:
    """Stable partition assignment for a group/join key tuple."""
    return zlib.crc32(repr(key).encode()) % partitions


SPILL_PARTITIONS_DEFAULT = 8


def _chunk_bytes(budget: MemoryBudget, partitions: int) -> int:
    """Per-partition write-buffer size: bounded so the buffers together
    stay within the budget that forced the spill."""
    limit = budget.limit_bytes if budget.limit_bytes else 64 * 1024
    return max(512, limit // partitions)


class SpillableHashTable:
    """A hash-join build table that grace-hash partitions when over budget.

    In-memory phase: a plain ``key -> [rows]`` dict charged against the
    budget. Crossing the limit partitions every entry (and all later
    inserts) to ``partitions`` accounted temp files by stable key hash.
    :meth:`build` then re-reads the partitions one at a time — charging
    only a partition against the budget, the real grace-hash memory
    profile — and reassembles the table for the unchanged probe loop, so
    probe-order output and per-key row order are bit-identical to the
    in-memory run.
    """

    def __init__(
        self,
        budget: MemoryBudget,
        file_factory,
        label: str,
        partitions: int = SPILL_PARTITIONS_DEFAULT,
    ):
        self._budget = budget
        self._files = [file_factory(f"{label}.p{i}") for i in range(partitions)]
        self._partitions = partitions
        self._table: dict[tuple, list] = {}
        self._charged = 0
        self._buffers: list[list] = [[] for _ in range(partitions)]
        self._buffer_bytes = [0] * partitions
        self._chunk = _chunk_bytes(budget, partitions)
        self.spilled = False
        self.partitions_spilled = 0
        self.bytes_written = 0
        self.bytes_read = 0

    def insert(self, key: tuple, row: tuple) -> None:
        nbytes = row_nbytes(key) + row_nbytes(row)
        if not self.spilled:
            self._table.setdefault(key, []).append(row)
            self._charged += nbytes
            self._budget.charge(nbytes)
            if self._budget.over_budget:
                self._partition_out()
            return
        p = partition_of(key, self._partitions)
        self._buffers[p].append((key, row))
        self._buffer_bytes[p] += nbytes
        if self._buffer_bytes[p] >= self._chunk:
            self._flush(p)

    def _partition_out(self) -> None:
        """First over-budget insert: move the whole table to partitions."""
        self.spilled = True
        for key, rows in self._table.items():
            p = partition_of(key, self._partitions)
            buffer = self._buffers[p]
            nbytes = row_nbytes(key)
            for row in rows:
                buffer.append((key, row))
            self._buffer_bytes[p] += sum(
                nbytes + row_nbytes(row) for row in rows
            )
        self._table = {}
        for p in range(self._partitions):
            if self._buffer_bytes[p] >= self._chunk:
                self._flush(p)
        self._budget.release(self._charged)
        self._charged = 0

    def _flush(self, p: int) -> None:
        if not self._buffers[p]:
            return
        nbytes = self._buffer_bytes[p]
        self._files[p].write(self._buffers[p], nbytes)
        self.bytes_written += nbytes
        self._buffers[p] = []
        self._buffer_bytes[p] = 0

    def build(self) -> dict:
        """The complete build table, re-read partition by partition."""
        if not self.spilled:
            return self._table
        for p in range(self._partitions):
            self._flush(p)
        table: dict[tuple, list] = {}
        for p, spill_file in enumerate(self._files):
            if spill_file.bytes_written == 0:
                continue
            self.partitions_spilled += 1
            nbytes = spill_file.bytes_written
            self._budget.charge(nbytes)  # one partition resident at a time
            for key, row in spill_file.read():
                table.setdefault(key, []).append(row)
            self.bytes_read += nbytes
            self._budget.release(nbytes)
            spill_file.release()
        return table

    def done(self) -> None:
        """Probe phase over: release the build table's budget charge."""
        self._budget.release(self._charged)
        self._charged = 0


class SpillableAggregateStates(dict):
    """A ``group key -> state list`` map that flushes to disk over budget.

    A drop-in dict for every accumulation loop (volcano rows, vectorized
    batches, the compiled executor's generated code, leader partial
    merges): callers ``get``/``__setitem__`` new keys and mutate state
    lists in place. Each new key is charged against the budget and
    stamped with a first-seen sequence number. Crossing the limit
    flushes every live ``(seq, key, state)`` to its hash partition and
    clears the map, so later rows of a flushed key open a fresh
    generation — while rows of keys still resident keep accumulating
    in place for free, which is what makes governed execution cheap on
    key-clustered data. :meth:`finish` re-reads the partitions (a
    partition at a time against the budget), merges generations of the
    same key with ``agg.merge`` — every generation of a key carries the
    key's first-seen sequence — and returns a plain dict ordered by
    that sequence: exactly the insertion order an unbounded run would
    have produced, so downstream row emission is bit-identical.
    """

    def __init__(
        self,
        budget: MemoryBudget,
        file_factory,
        label: str,
        aggregates,
        partitions: int = SPILL_PARTITIONS_DEFAULT,
    ):
        super().__init__()
        self._budget = budget
        self._files = [file_factory(f"{label}.p{i}") for i in range(partitions)]
        self._partitions = partitions
        self._aggregates = aggregates
        self._charged = 0
        #: Smallest in-memory generation worth flushing: with a shared
        #: budget held over the limit by *other* operator state,
        #: flushing on every new key would write one-key generations
        #: forever. Requiring a chunk's worth of live state first
        #: amortizes the writes (the map itself stays bounded by one
        #: chunk, so memory is still governed).
        self._min_generation = _chunk_bytes(budget, partitions)
        self._next_seq = 0
        #: Per-key bookkeeping that persists across generations:
        #: ``key -> (first_seen_seq, nbytes, partition)``. finish()
        #: orders by first-seen sequence, so re-stamping a flushed key
        #: with its original sequence is equivalent — and the hot insert
        #: path skips re-hashing and re-measuring keys it has seen
        #: before (a key's state-list shape is fixed for the query, so
        #: its first-generation size estimate holds). Bookkeeping only
        #: (like the file handles): the governed state is the entries,
        #: charged below.
        self._keyinfo: dict = {}
        self.spilled = False
        self.partitions_spilled = 0
        self.bytes_written = 0
        self.bytes_read = 0

    def __setitem__(self, key, entry) -> None:
        info = self._keyinfo.get(key)
        if info is None:
            info = (
                self._next_seq,
                row_nbytes(key) + row_nbytes(entry),
                partition_of(key, self._partitions),
            )
            self._next_seq += 1
            self._keyinfo[key] = info
        nbytes = info[1]
        budget = self._budget
        budget.used_bytes += nbytes
        if budget.used_bytes > budget.peak_bytes:
            budget.peak_bytes = budget.used_bytes
        self._charged += nbytes
        super().__setitem__(key, entry)
        if (
            budget.limit_bytes is not None
            and budget.used_bytes > budget.limit_bytes
            and self._charged >= self._min_generation
        ):
            self._flush_generation()

    def _flush_generation(self) -> None:
        """Spill every live state to its partition and start fresh.

        States are spilled by reference — rows stay in process memory —
        so in-place accumulation into an entry the caller still holds
        keeps updating the spilled generation, exactly as the bytes on a
        real disk would have been written only once the generation went
        cold. The accounting writes happen here, at flush time.
        """
        self.spilled = True
        buffers: list[list] = [[] for _ in range(self._partitions)]
        buffer_bytes = [0] * self._partitions
        keyinfo = self._keyinfo
        for key, entry in self.items():
            seq, nbytes, p = keyinfo[key]
            buffers[p].append((seq, key, entry))
            buffer_bytes[p] += nbytes
        for p in range(self._partitions):
            if buffers[p]:
                self._files[p].write(buffers[p], buffer_bytes[p])
                self.bytes_written += buffer_bytes[p]
        self.clear()
        self._budget.release(self._charged)
        self._charged = 0

    def finish(self) -> dict:
        """The complete state map in first-seen order (a plain dict).

        Also releases the map's budget charge — the states hand off to
        row emission, so their governed lifetime ends here.
        """
        if not self.spilled:
            self._budget.release(self._charged)
            self._charged = 0
            return self
        if self:
            self._flush_generation()
        merges = [agg.merge for agg in self._aggregates]
        # Every generation of a key carries the key's first-seen seq
        # (from _keyinfo), so merging just folds entries per key; the
        # final ordering comes straight from _keyinfo.
        collected: dict[tuple, list] = {}
        for spill_file in self._files:
            if spill_file.bytes_written == 0:
                continue
            self.partitions_spilled += 1
            nbytes = spill_file.bytes_written
            self._budget.charge(nbytes)
            for _seq, key, entry in spill_file.read():
                target = collected.get(key)
                if target is None:
                    collected[key] = entry
                else:
                    target[:] = [
                        m(t, e) for m, t, e in zip(merges, target, entry)
                    ]
            self.bytes_read += nbytes
            self._budget.release(nbytes)
            spill_file.release()
        keyinfo = self._keyinfo
        ordered = sorted(collected.items(), key=lambda item: keyinfo[item[0]][0])
        return dict(ordered)


class SpillableSorter:
    """External merge sort: budget-sized sorted runs, k-way stable merge.

    ``sort_chunk`` must be the engine's stable sort (so each run orders
    rows exactly as the in-memory path would) and ``merge_key`` a
    composite key with the same comparison semantics; ``heapq.merge`` is
    stable across runs (earlier run wins ties), so the merged output is
    bit-identical to sorting the whole input in memory.
    """

    def __init__(self, budget: MemoryBudget, file_factory, label: str):
        self._budget = budget
        self._file_factory = file_factory
        self._label = label
        self.spilled = False
        self.partitions_spilled = 0  # sorted runs, for uniform reporting
        self.bytes_written = 0
        self.bytes_read = 0

    def sort(self, rows: list, sort_chunk, merge_key) -> list:
        sizes = [row_nbytes(row) for row in rows]
        total = sum(sizes)
        self._budget.charge(total)
        if not self._budget.over_budget:
            out = sort_chunk(rows)
            self._budget.release(total)
            return out
        self._budget.release(total)
        self.spilled = True
        limit = max(1, self._budget.limit_bytes)
        runs = []
        start = 0
        chunk_bytes = 0
        for i, nbytes in enumerate(sizes):
            if chunk_bytes + nbytes > limit and i > start:
                runs.append((start, i, chunk_bytes))
                start = i
                chunk_bytes = 0
            chunk_bytes += nbytes
        runs.append((start, len(rows), chunk_bytes))
        run_files = []
        for r, (lo, hi, nbytes) in enumerate(runs):
            self._budget.charge(nbytes)
            run = sort_chunk(rows[lo:hi])
            spill_file = self._file_factory(f"{self._label}.run{r}")
            spill_file.write(run, nbytes)
            self.bytes_written += nbytes
            self._budget.release(nbytes)
            run_files.append(spill_file)
        self.partitions_spilled = len(run_files)
        streams = []
        for spill_file in run_files:
            streams.append(spill_file.read())
            self.bytes_read += spill_file.bytes_written
        merged = list(heapq.merge(*streams, key=merge_key))
        for spill_file in run_files:
            spill_file.release()
        return merged
