"""The leader-side query result cache.

Real Redshift grew a leader-node result cache on the same principle as
its compiled-object cache (paper §2, "compiled code ... is cached"):
repeat queries over unchanged data should not pay execution again. An
entry stores the finished row set of one SELECT keyed on

- the normalized SQL text of the (subquery-expanded) query,
- the bound physical plan's EXPLAIN rendering minus its ``rows=``
  estimates (plan signature — two textually equal queries planned
  differently, e.g. after ANALYZE moved statistics, do not share an
  entry; estimates are left out because every write moves them, and a
  stale entry must be found again to be reclaimed), and
- the executor kind (a hit must be bit-identical to what *that*
  executor would recompute; parallel float aggregation may legally
  re-associate).

Validity is epoch-based, not push-based: the entry records the
per-table mutation epoch (:mod:`repro.storage.epoch`) of every user
table the plan scans, captured *before* execution started, and a lookup
revalidates them. Any mutation path — INSERT/DELETE/VACUUM, scrub
repair, restore, ``Block.corrupt()``, or a writing transaction's
commit/rollback — moves an epoch and the entry dies lazily on its next
lookup. Sessions bypass the cache entirely inside explicit transactions
and for system-table scans (see ``Session._select_on``).

Concurrency: every cache operation takes the instance lock (the same
treatment :class:`~repro.storage.blockcache.BlockDecodeCache` got), and
the cache additionally deduplicates concurrent *executions*: when many
sessions miss on the same key at once (the thundering-herd shape a
dashboard fleet produces), :meth:`lead_or_wait` elects one leader to
execute while the rest wait for the stored entry — execute-once,
serve-many. A leader that fails (or whose result was too large to
cache) wakes the waiters, and each re-checks the cache before electing
itself the new leader, so progress never depends on any one session.

Counters feed the ``stv_result_cache`` system table and the bench a12
experiment.
"""

from __future__ import annotations

import hashlib
import re
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.storage import epoch

#: Default number of cached result sets kept resident.
DEFAULT_CAPACITY = 256

#: Result sets larger than this many rows are not cached (the copy-out
#: on a hit would rival re-execution and the memory cost is unbounded).
DEFAULT_MAX_ROWS = 100_000


_ROW_ESTIMATE = re.compile(r"\(rows=\S+ ")


def result_cache_key(sql: str, plan_text: str, executor: str) -> str:
    """The cache key of one (query, plan, executor) combination;
    *plan_text* is the plan's ``explain()`` rendering."""
    digest = hashlib.sha256()
    digest.update(sql.encode())
    digest.update(b"\x00")
    digest.update(_ROW_ESTIMATE.sub("(", plan_text).encode())
    digest.update(b"\x00")
    digest.update(executor.encode())
    return digest.hexdigest()


@dataclass
class CacheEntry:
    """One cached result set."""

    key: str
    sql: str
    executor: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    #: User tables the plan scanned, with the epoch each had before the
    #: cached execution began. The entry is valid while none has moved.
    tables: tuple[str, ...]
    epochs: tuple[int, ...]
    hits: int = field(default=0)

    def valid(self) -> bool:
        return all(
            epoch.table_epoch(table) == stored
            for table, stored in zip(self.tables, self.epochs)
        )


class _Flight:
    """One in-flight execution other sessions may wait on."""

    __slots__ = ("event",)

    def __init__(self) -> None:
        self.event = threading.Event()


#: How long a waiter trusts the leader before executing itself anyway.
FLIGHT_TIMEOUT_S = 30.0


class QueryResultCache:
    """LRU of result-cache key -> :class:`CacheEntry`."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        max_rows: int = DEFAULT_MAX_ROWS,
    ):
        if capacity < 1:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.max_rows = max_rows
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self._lock = threading.Lock()
        #: key -> in-flight execution concurrent sessions coalesce on.
        self._flights: dict[str, _Flight] = {}
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.invalidations = 0
        #: Executions avoided by waiting on another session's in-flight
        #: run and then hitting the entry it stored.
        self.flight_waits = 0
        #: Waits that did NOT end in a hit (leader failed, result too
        #: large to cache, or the wait timed out): the waiter executed.
        self.flight_fallbacks = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _get_valid(self, key: str) -> CacheEntry | None:
        """Valid entry under *key* (lock held); drops a stale one."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        if not entry.valid():
            del self._entries[key]
            self.invalidations += 1
            return None
        return entry

    def lookup(self, key: str) -> CacheEntry | None:
        """The valid entry under *key*, or None.

        A present-but-stale entry (some table epoch moved) is dropped
        here — epoch invalidation is lazy — and counted as both an
        invalidation and a miss.
        """
        with self._lock:
            entry = self._get_valid(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            entry.hits += 1
            return entry

    def lead_or_wait(
        self, key: str, timeout: float = FLIGHT_TIMEOUT_S
    ) -> tuple[CacheEntry | None, bool]:
        """Hit, or elect this session to execute — ``(entry, leads)``.

        ``(entry, False)``: a valid entry exists (possibly stored by a
        leader this call waited on) — serve it. ``(None, True)``: no
        entry and no execution in flight; the caller must execute and
        then call :meth:`finish_flight` (success or not). ``(None,
        False)``: the wait on a leader timed out; execute without
        owning the flight.
        """
        waited = False
        while True:
            with self._lock:
                entry = self._get_valid(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    entry.hits += 1
                    if waited:
                        self.flight_waits += 1
                    return entry, False
                flight = self._flights.get(key)
                if flight is None:
                    self._flights[key] = _Flight()
                    self.misses += 1
                    if waited:
                        self.flight_fallbacks += 1
                    return None, True
            if not flight.event.wait(timeout):
                with self._lock:
                    self.misses += 1
                    self.flight_fallbacks += 1
                return None, False
            waited = True

    def finish_flight(self, key: str) -> None:
        """End this session's in-flight execution and wake the waiters.

        Must run whether the execution stored an entry, failed, or
        produced an uncacheable result; each waiter re-checks the cache
        and, if it finds nothing, elects itself the next leader.
        """
        with self._lock:
            flight = self._flights.pop(key, None)
        if flight is not None:
            flight.event.set()

    def store(
        self,
        key: str,
        sql: str,
        executor: str,
        columns: list[str],
        rows: list[tuple],
        tables: tuple[str, ...],
        epochs: tuple[int, ...],
    ) -> None:
        """Insert one finished result set.

        *epochs* must be the referenced tables' epochs captured before
        the execution that produced *rows* began: "valid" then means "no
        mutation since before we read".
        """
        if len(rows) > self.max_rows:
            return
        entry = CacheEntry(
            key=key,
            sql=sql,
            executor=executor,
            columns=tuple(columns),
            rows=tuple(rows),
            tables=tables,
            epochs=epochs,
        )
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            self.stores += 1
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop all entries (counters keep accumulating)."""
        with self._lock:
            self._entries.clear()

    def entries(self) -> list[CacheEntry]:
        """A stable snapshot of the current entries (stv_result_cache)."""
        with self._lock:
            return list(self._entries.values())
