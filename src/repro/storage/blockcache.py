"""LRU cache of decoded block vectors.

The vectorized executor consumes whole decoded columns, so decoding the
same immutable block on every query is pure waste — the block's bytes
never change until a VACUUM rewrite, a scrub repair, or an injected
bit-flip replaces its content. The cache therefore keys on ``block_id``
and hands out the decoded value list itself (callers must treat it as
read-only); eviction is plain LRU.

Invalidation rules (see DESIGN.md §7):

- ``Block.corrupt()`` (the fault injector's bit-flip path) invalidates
  the block's entry in **every** live cache via the module-level weak
  registry, so a corrupted block is re-read and fails its checksum
  instead of being served from cache.
- Chain mutations that replace sealed blocks under an existing id
  (scrub-and-repair ``replace_block``) or retire whole block sets
  (``adopt_blocks``, VACUUM's ``rewrite_in_order``) invalidate the old
  ids explicitly.

Counters (hits / misses / evictions / invalidations) feed the
``stv_block_cache`` system table and EXPLAIN ANALYZE.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict

#: Every live cache instance; Block.corrupt() and chain rewrites reach
#: all of them without holding strong references.
_instances: "weakref.WeakSet" = weakref.WeakSet()

#: Default number of decoded blocks kept resident.
DEFAULT_CAPACITY = 4096


def invalidate_everywhere(block_id: str) -> None:
    """Drop *block_id* from every live cache (bit-flips, rewrites)."""
    for cache in list(_instances):
        cache.invalidate(block_id)


class BlockDecodeCache:
    """LRU of ``block_id`` -> decoded value list."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[str, list]" = OrderedDict()
        #: Guards LRU mutation: the threaded parallel fallback shares one
        #: cache across workers, and OrderedDict reordering is not atomic.
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        #: Monotonic invalidation generation. A miss records the value it
        #: saw under the lock; the post-decode insert is discarded if any
        #: invalidation (or clear) landed in between, so a decode of
        #: pre-mutation content can never re-populate the cache after the
        #: mutation already evicted it.
        self._generation = 0
        _instances.add(self)

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, block) -> tuple[list, bool]:
        """The decoded values of *block* and whether they were cached.

        On miss the block is decoded and checksum-verified once via
        :meth:`Block.read_vector` and the resulting list is cached; the
        returned list is shared — callers must never mutate it.
        """
        with self._lock:
            values = self._entries.get(block.block_id)
            if values is not None:
                self._entries.move_to_end(block.block_id)
                self.hits += 1
                return values, True
            self.misses += 1
            generation = self._generation
        # Decode outside the lock: read_vector() is the expensive part and
        # is safe to race (worst case two threads decode the same block).
        values = block.read_vector()
        with self._lock:
            existing = self._entries.get(block.block_id)
            if existing is not None:
                # Lost the insert race to another thread: the caller gets
                # the cached vector, so account it as a hit (the miss was
                # provisional).
                self.misses -= 1
                self.hits += 1
                return existing, True
            if self._generation != generation:
                # An invalidation landed between the miss and here; this
                # decode may predate the mutation that caused it, so it
                # must not re-populate the cache. Serve it uncached.
                return values, False
            self._entries[block.block_id] = values
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        return values, False

    def peek(self, block) -> list | None:
        """The cached decoded values of *block*, or None — never decodes.

        The encoded scan path consults this first: when a decoded vector is
        already resident it is cheaper to consume than the compressed
        payload, so the peek counts as a hit. An absence is *not* counted
        as a miss — the encoded path is not going to decode, so no decode
        work was missed.
        """
        with self._lock:
            values = self._entries.get(block.block_id)
            if values is not None:
                self._entries.move_to_end(block.block_id)
                self.hits += 1
            return values

    def invalidate(self, block_id: str) -> bool:
        """Drop one entry; True when it was present.

        Always advances the invalidation generation — even when the entry
        is absent, an in-flight miss for this block must not insert its
        (possibly pre-mutation) decode.
        """
        with self._lock:
            self._generation += 1
            if self._entries.pop(block_id, None) is not None:
                self.invalidations += 1
                return True
            return False

    def clear(self) -> None:
        """Drop all entries (counters keep accumulating)."""
        with self._lock:
            self._generation += 1
            self._entries.clear()
